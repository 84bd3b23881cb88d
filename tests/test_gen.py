"""Synthetic dataset generator: determinism, shapes, and signal."""

from __future__ import annotations

from datetime import date, time

import pytest

from wrangle.errors import RangeError
from wrangle.gen import (
    DRY_CODE_CHOICES,
    GenConfig,
    TRAFFIC_HEADER,
    WET_CODE_CHOICES,
    generate,
    wet_days,
)
from wrangle.table import CType, infer_column_types, parse_csv
from wrangle.traffic import clean_site_id, weekday_name
from wrangle.weather import REP_LAYOUT, parse_weather_json

# Where a rep tuple holds its time and its W field.
OBS_TIME, W = ([name for name, _, _ in REP_LAYOUT].index(n) for n in ("ObsTime", "W"))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    config = GenConfig(seed=7, sites=2, rows_per_site=100)
    return config, generate(config, out), out


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path, small_run):
        config, paths, _ = small_run
        again = generate(config, tmp_path)
        for p1, p2 in zip(paths, again):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path, small_run):
        config, paths, _ = small_run
        other = generate(GenConfig(seed=8, sites=2, rows_per_site=100), tmp_path)
        assert paths[0].read_bytes() != other[0].read_bytes()


class TestShapes:
    def test_file_set(self, small_run):
        _, paths, _ = small_run
        assert [p.name for p in paths] == [
            "site_1.csv",
            "site_2.csv",
            "sites.csv",
            "weather.json",
        ]

    def test_traffic_files_have_canonical_header_and_rows(self, small_run):
        _, paths, _ = small_run
        t = parse_csv(paths[0].read_bytes())
        assert t.column_names == TRAFFIC_HEADER
        assert t.row_count == 100

    def test_types_infer_as_expected(self, small_run):
        _, paths, _ = small_run
        t = infer_column_types(parse_csv(paths[0].read_bytes()))
        assert t.column("Site ID").ctype is CType.TEXT
        assert t.column("Date").ctype is CType.TIMESTAMP
        assert t.column("Speed").ctype is CType.REAL
        assert t.column("Direction Name").ctype is CType.TEXT

    def test_site_ids_are_prefixed_and_clean_to_integers(self, small_run):
        _, paths, _ = small_run
        t = parse_csv(paths[0].read_bytes())
        raw = t.column("Site ID").cells[0]
        assert raw.startswith("'0")
        cleaned = clean_site_id(t, "Site ID").column("Site ID").cells[0]
        assert cleaned == "1083"

    def test_sites_csv_matches_traffic_ids(self, small_run):
        _, paths, _ = small_run
        sites = infer_column_types(parse_csv(paths[2].read_bytes()))
        assert sites.column("Site.ID").cells == (1083, 1084)
        assert sites.column("LinkLength").ctype is CType.REAL

    def test_weather_json_parses_with_hourly_reps(self, small_run):
        config, paths, _ = small_run
        doc = parse_weather_json(paths[3].read_bytes())
        assert len(doc.locations) == config.weather_locations
        period = doc.locations[0].periods[0]
        assert len(period.reps) == 24
        assert [r[OBS_TIME] for r in period.reps] == [time(h) for h in range(24)]


class TestSignal:
    def test_wet_labels_drive_codes_and_speeds(self, small_run):
        config, paths, _ = small_run
        labels = wet_days(config)
        doc = parse_weather_json(paths[3].read_bytes())
        for period in doc.locations[0].periods:
            codes = {r[W] for r in period.reps}
            if labels[period.date]:
                assert codes <= set(WET_CODE_CHOICES)
            else:
                assert codes <= set(DRY_CODE_CHOICES)

    def test_fridays_carry_both_labels(self):
        for seed in (1, 2, 42, 99):
            config = GenConfig(seed=seed)
            labels = wet_days(config)
            fridays = [d for d in config.days if weekday_name(d) == "Friday"]
            assert {labels[d] for d in fridays} == {True, False}

    def test_wet_speeds_slower_on_average(self, small_run):
        config, paths, _ = small_run
        labels = wet_days(config)
        t = infer_column_types(parse_csv(paths[0].read_bytes()))
        wet, dry = [], []
        for stamp, speed in zip(t.column("Date").cells, t.column("Speed").cells):
            (wet if labels[stamp.date()] else dry).append(speed)
        assert wet and dry
        assert sum(wet) / len(wet) < sum(dry) / len(dry)


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(RangeError):
            GenConfig(sites=1)
        with pytest.raises(RangeError):
            GenConfig(rows_per_site=0)
        with pytest.raises(RangeError):
            GenConfig(date_start=date(2018, 3, 1), date_end=date(2018, 2, 1))
        with pytest.raises(RangeError):
            GenConfig(weather_locations=0)
