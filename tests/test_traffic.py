"""Site-id cleaning, datetime splitting, weekday filtering, and the generic
nodes that end the bundled workflows: journey time and wet/dry means."""

from __future__ import annotations

import random
from datetime import date, datetime, time, timedelta
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import slowpaths
from conftest import assert_cells_close, table_from_rows
from wrangle.errors import RequirementFailed, TypeMismatch
from wrangle.table import Column, CType, Table
from wrangle.traffic import (
    WEEKDAY_NAMES,
    clean_site_id,
    filter_weekdays,
    separate_datetime,
    weekday_name,
)
from wrangle.workflow import parse_workflow


def text_col_table(cells):
    return table_from_rows(["Site ID"], [CType.TEXT], [[c] for c in cells])


class TestCleanSiteId:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("'000000001083", "1083"),
            ("1083", "1083"),
            ("'000", "0"),
            ("0", "0"),
            ("''007", "7"),
            (None, None),
        ],
    )
    def test_cases(self, raw, expected):
        got = clean_site_id(text_col_table([raw]), "Site ID")
        assert got.column("Site ID").cells == (expected,)
        assert got.column("Site ID").ctype is CType.TEXT

    @given(st.text(alphabet="'0123456789", max_size=16))
    def test_idempotent_and_nonincreasing(self, raw):
        once = clean_site_id(text_col_table([raw]), "Site ID").column("Site ID").cells[0]
        twice = clean_site_id(text_col_table([once]), "Site ID").column("Site ID").cells[0]
        assert twice == once
        assert len(once) <= max(len(raw), 1)

    @given(st.lists(st.none() | st.text(alphabet="'0123456789ab", max_size=8), max_size=12))
    def test_result_column_passes_the_checking_constructor(self, raw):
        col = clean_site_id(text_col_table(raw), "Site ID").column("Site ID")
        assert Column(col.name, col.ctype, col.cells) == col

    def test_non_text_rejected(self):
        t = table_from_rows(["Site ID"], [CType.INT], [[1083]])
        with pytest.raises(TypeMismatch):
            clean_site_id(t, "Site ID")

    @pytest.mark.parametrize("n_ids", [20, 2400, 5000])
    def test_few_or_many_distinct_ids_with_nulls_match_per_cell_cleaning(self, n_ids):
        # From a few ids over many rows to every row distinct.
        rng = random.Random(f"site_id:distinct:{n_ids}")
        ids = ["'" * rng.randrange(3) + "0" * rng.randrange(8) + str(k) for k in range(n_ids)]
        raw = [None if rng.random() < 0.1 else rng.choice(ids) for _ in range(5000)]
        t = table_from_rows(["Site ID", "n"], [CType.TEXT, CType.INT], [[r, i] for i, r in enumerate(raw)])
        once = clean_site_id(t, "Site ID")
        assert once == slowpaths.per_cell_clean_site_id(t, "Site ID")
        assert clean_site_id(once, "Site ID") == once

    @settings(deadline=None)
    @given(st.lists(st.none() | st.text(alphabet="'0123456789ab", max_size=8), max_size=40))
    def test_matches_per_cell_cleaning(self, raw):
        t = text_col_table(raw)
        once = clean_site_id(t, "Site ID")
        assert once == slowpaths.per_cell_clean_site_id(t, "Site ID")
        assert clean_site_id(once, "Site ID") == once


class TestSeparateDatetime:
    def test_splits_in_place(self):
        t = table_from_rows(
            ["before", "Date", "after"],
            [CType.INT, CType.TIMESTAMP, CType.INT],
            [[1, datetime(2018, 2, 1, 0, 0, 1, 180000), 2]],
        )
        got = separate_datetime(t, "Date")
        assert got.column_names == ("before", "Date", "Hours", "after")
        assert got.column("Date").cells == (date(2018, 2, 1),)
        assert got.column("Hours").cells == (time(0, 0, 1, 180000),)

    def test_midnight(self):
        t = table_from_rows(["Date"], [CType.TIMESTAMP], [[datetime(2018, 2, 1)]])
        got = separate_datetime(t, "Date")
        assert got.column("Hours").cells == (time(0, 0, 0),)

    def test_recombination_round_trip(self):
        # date text + " " + time text reproduces the original timestamp text
        from wrangle.table import format_cell

        rng = random.Random("separate:recombine")
        stamps = [
            datetime(2018, 2, 1 + rng.randrange(27), rng.randrange(24),
                     rng.randrange(60), rng.randrange(60), rng.randrange(100) * 10000)
            for _ in range(60)
        ]
        t = table_from_rows(["Date"], [CType.TIMESTAMP], [[s] for s in stamps])
        got = separate_datetime(t, "Date")
        for stamp, d, h in zip(
            stamps, got.column("Date").cells, got.column("Hours").cells
        ):
            assert f"{format_cell(d)} {format_cell(h)}" == format_cell(stamp)

    @given(st.lists(st.none() | st.datetimes(), max_size=12))
    def test_result_columns_pass_the_checking_constructor(self, stamps):
        t = table_from_rows(["Date"], [CType.TIMESTAMP], [[s] for s in stamps])
        got = separate_datetime(t, "Date")
        for col in got.columns:
            assert Column(col.name, col.ctype, col.cells) == col
        assert [c.ctype for c in got.columns] == [CType.DATE, CType.TIME]

    def test_non_timestamp_rejected(self):
        t = table_from_rows(["Date"], [CType.DATE], [[date(2018, 2, 1)]])
        with pytest.raises(TypeMismatch):
            separate_datetime(t, "Date")


class TestFilterWeekdays:
    def date_table(self, days):
        return table_from_rows(["d"], [CType.DATE], [[d] for d in days])

    def test_friday_kept_thursday_dropped(self):
        t = self.date_table([date(2018, 2, 2), date(2018, 2, 1)])
        got = filter_weekdays(t, "d", {"Friday"})
        assert got.column("d").cells == (date(2018, 2, 2),)

    def test_all_days_is_identity(self):
        rng = random.Random("weekdays:identity")
        days = [date(2018, 1, 1) + timedelta(days=rng.randrange(365)) for _ in range(40)]
        t = self.date_table(days)
        got = filter_weekdays(t, "d", set(WEEKDAY_NAMES))
        assert got.column("d").cells == t.column("d").cells

    def test_singleton_filters_partition(self):
        rng = random.Random("weekdays:partition")
        days = [date(2018, 1, 1) + timedelta(days=rng.randrange(365)) for _ in range(60)]
        t = self.date_table(days)
        total = sum(
            filter_weekdays(t, "d", {name}).row_count for name in WEEKDAY_NAMES
        )
        assert total == t.row_count

    def test_timestamp_column_accepted(self):
        t = table_from_rows(
            ["d"], [CType.TIMESTAMP], [[datetime(2018, 2, 2, 17, 30)]]
        )
        assert filter_weekdays(t, "d", {"Friday"}).row_count == 1

    def test_timestamp_column_with_nulls_matches_per_cell_filter(self):
        rng = random.Random("weekdays:timestamps")
        stamps = [
            None if rng.random() < 0.2
            else datetime(2018, 2, 1) + timedelta(minutes=rng.randrange(40 * 1440))
            for _ in range(500)
        ]
        t = table_from_rows(["d", "n"], [CType.TIMESTAMP, CType.INT], [[s, i] for i, s in enumerate(stamps)])
        for days in ({"Friday"}, {"Monday", "Sunday"}, set(WEEKDAY_NAMES)):
            got = filter_weekdays(t, "d", days)
            assert got == slowpaths.per_cell_filter_weekdays(t, "d", days)
        assert None not in filter_weekdays(t, "d", set(WEEKDAY_NAMES)).column("d").cells

    @given(
        st.lists(st.none() | st.dates(), max_size=30),
        st.sets(st.sampled_from(WEEKDAY_NAMES), min_size=1),
    )
    def test_date_column_matches_per_cell_filter(self, days_in, wanted):
        t = self.date_table(days_in)
        assert filter_weekdays(t, "d", wanted) == slowpaths.per_cell_filter_weekdays(t, "d", wanted)

    def test_datetime_subclass_matches_per_cell_filter(self):
        class Instant(datetime):
            pass

        stamps = [Instant(2018, 2, d, 9, 30) for d in range(1, 15)]
        for cells in (stamps, stamps + [None]):
            t = table_from_rows(["d"], [CType.TIMESTAMP], [[s] for s in cells])
            got = filter_weekdays(t, "d", {"Friday", "Saturday"})
            assert got == slowpaths.per_cell_filter_weekdays(t, "d", {"Friday", "Saturday"})
            assert got.column("d").cells == (stamps[1], stamps[2], stamps[8], stamps[9])

    def test_weekday_agrees_with_sakamoto(self):
        d = date(1995, 6, 15)
        while d <= date(2005, 1, 1):
            assert weekday_name(d) == oracles.sakamoto_weekday(d.year, d.month, d.day)
            d += timedelta(days=17)


def run_nodes(workflow: str, first: str, last: str, t: Table) -> Table:
    """Run a bundled workflow's nodes ``first`` to ``last``, a chain of ``in`` ports."""
    spec = parse_workflow(resources.files("wrangle.workflows").joinpath(workflow).read_bytes())
    ids = [n.id for n in spec.nodes]
    for node in spec.nodes[ids.index(first) : ids.index(last) + 1]:
        t = node.op_def.run({"in": t}, node.bound_params)
    return t


def journey_time_s(links) -> float:
    """dwr1's tail over (link length m, mean speed mph) pairs."""
    t = table_from_rows(
        ["Site ID", "LinkLength", "mean_speed"],
        [CType.INT, CType.REAL, CType.REAL],
        [[i, length, speed] for i, (length, speed) in enumerate(links)],
    )
    (seconds,) = run_nodes("dwr1.json", "check_links", "check_total", t).column(
        "journey_time_s"
    ).cells
    return seconds


class TestJourneyTime:
    def test_null_speed_rejected(self):
        with pytest.raises(RequirementFailed, match="^row 1 does not meet mean_speed > 0 and "):
            journey_time_s([(100.0, 30.0), (100.0, None)])

    def test_zero_speed_rejected(self):
        with pytest.raises(RequirementFailed, match="^row 0 does not meet mean_speed > 0 and "):
            journey_time_s([(100.0, 0.0)])

    def test_negative_speed_rejected(self):
        with pytest.raises(RequirementFailed, match="^row 0 does not meet mean_speed > 0 and "):
            journey_time_s([(100.0, -30.0)])

    def test_single_link_hand_value(self):
        # 500 m at 30 mph: 500 / (30 * 0.44704) s, worked out independently
        got = journey_time_s([(500.0, 30.0)])
        assert_cells_close(got, 500.0 / (30.0 * oracles.MPH_TO_MPS))
        assert got == pytest.approx(37.2822715, abs=5e-7)

    def test_zero_length_is_zero_seconds(self):
        assert journey_time_s([(0.0, 30.0)]) == 0.0

    def test_two_equal_links_double_one(self):
        one = journey_time_s([(440.0, 28.0)])
        two = journey_time_s([(440.0, 28.0)] * 2)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_empty_list_rejected(self):
        # No links sum to null, which the total's requirement refuses.
        with pytest.raises(RequirementFailed) as err:
            journey_time_s([])
        assert str(err.value) == "row 0 does not meet journey_time_s >= 0"

    def test_monotone_in_speed_and_length(self):
        rng = random.Random("journey:monotone")
        for _ in range(20):
            speed = rng.uniform(5, 60)
            length = rng.uniform(100, 900)
            base = journey_time_s([(length, speed)])
            faster = journey_time_s([(length, speed + 1)])
            longer = journey_time_s([(length + 10, speed)])
            assert faster < base < longer

    def test_positive_when_any_length_positive(self):
        assert journey_time_s([(0.0, 10.0), (3.0, 9.0)]) > 0


class TestAverageSpeedByCondition:
    def cond_table(self, pairs):
        return table_from_rows(
            ["Speed", "weatherCond"],
            [CType.REAL, CType.TEXT],
            [[s, c] for s, c in pairs],
        )

    def condition_means(self, pairs):
        return run_nodes("dwr2.json", "wet_or_dry", "avg_speed", self.cond_table(pairs))

    def test_two_condition_means(self):
        got = self.condition_means([(20.0, "wet"), (30.0, "wet"), (40.0, "dry")])
        assert got.column_names == ("weatherCond", "avg_speed")
        assert got.column("weatherCond").cells == ("wet", "dry")
        assert got.column("avg_speed").cells == (25.0, 40.0)

    def test_null_condition_rows_excluded(self):
        got = self.condition_means([(20.0, None), (30.0, None)])
        assert got.row_count == 0
        got = self.condition_means([(20.0, None), (30.0, "dry")])
        assert got.column("avg_speed").cells == (30.0,)

    def test_single_condition(self):
        got = self.condition_means([(22.0, "dry")])
        assert got.row_count == 1
        assert got.column("avg_speed").cells == (22.0,)
