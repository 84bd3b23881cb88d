"""Observation-document parsing and flattening."""

from __future__ import annotations

import json
import random
from datetime import date, datetime, time
from pathlib import Path

import pytest

from wrangle.errors import MalformedJson, MissingField, RangeError
from wrangle.table import CType
from wrangle.weather import (
    FLAT_COLUMNS,
    WeatherDoc,
    WxLocation,
    WxPeriod,
    WxRep,
    flatten_weather,
    parse_weather_json,
)

FIXTURE = Path(__file__).parent / "data" / "baltasound.json"


def _one_rep_doc(rep: dict, **location: object) -> bytes:
    loc = {"i": "1", "lat": "50", "lon": "0", **location}
    loc["Period"] = {"value": "2016-06-20Z", "Rep": rep}
    return json.dumps({"DV": {"dataDate": "2016-06-21T16:00:00Z", "Location": loc}}).encode()


@pytest.fixture()
def baltasound() -> WeatherDoc:
    return parse_weather_json(FIXTURE.read_bytes())


class TestParse:
    def test_fixture_document(self, baltasound):
        doc = baltasound
        assert doc.doc_type == "Obs"
        assert doc.data_date == datetime(2016, 6, 21, 16, 0, 0)
        assert len(doc.locations) == 1
        loc = doc.locations[0]
        assert loc.id == "3002"
        assert loc.name == "BALTASOUND"
        assert loc.lat == 60.749
        assert loc.lon == -0.854
        assert loc.elevation_m == 15.0
        assert len(loc.periods) == 1
        period = loc.periods[0]
        assert period.date == date(2016, 6, 20)
        assert len(period.reps) == 1
        rep = period.reps[0]
        assert rep.temperature == 13.2
        assert rep.wind_speed == 23.0
        assert rep.weather_code == 8
        assert rep.pressure_tendency == "R"
        assert rep.dew_point == 10.2
        assert rep.minutes_after_midnight == 960

    def test_missing_optional_rep_fields(self):
        doc = parse_weather_json(
            json.dumps(
                {
                    "DV": {
                        "dataDate": "2016-06-21T16:00:00Z",
                        "type": "Obs",
                        "Location": [
                            {
                                "i": "1",
                                "lat": "50",
                                "lon": "0",
                                "Period": [
                                    {"value": "2016-06-20Z", "Rep": [{"T": "5.0", "$": "60"}]}
                                ],
                            }
                        ],
                    }
                }
            ).encode()
        )
        rep = doc.locations[0].periods[0].reps[0]
        assert rep.gust is None and rep.visibility is None
        assert rep.temperature == 5.0

    def test_bare_object_equals_singleton_list(self):
        def doc_with(location):
            return json.dumps(
                {"DV": {"dataDate": "2016-06-21T16:00:00Z", "Location": location}}
            ).encode()

        loc = {
            "i": "7",
            "lat": "10",
            "lon": "20",
            "Period": {"value": "2016-06-20Z", "Rep": {"T": "1.0", "$": "0"}},
        }
        bare = parse_weather_json(doc_with(loc))
        listed = parse_weather_json(doc_with([loc]))
        assert bare == listed
        assert len(bare.locations) == 1

    def test_no_dv(self):
        with pytest.raises(MissingField):
            parse_weather_json(b'{"SiteRep": {}}')

    def test_no_location(self):
        with pytest.raises(MissingField):
            parse_weather_json(b'{"DV": {"dataDate": "2016-06-21T16:00:00Z"}}')

    def test_invalid_json(self):
        with pytest.raises(MalformedJson):
            parse_weather_json(b"{nope")

    def test_lat_out_of_range(self):
        with pytest.raises(RangeError):
            parse_weather_json(
                json.dumps(
                    {
                        "DV": {
                            "dataDate": "2016-06-21T16:00:00Z",
                            "Location": [{"i": "1", "lat": "95", "lon": "0"}],
                        }
                    }
                ).encode()
            )

    @pytest.mark.parametrize(
        "loc, rep",
        [
            ({}, {"$": "60", "W": 12.7}),
            ({}, {"$": 90.5}),
            ({}, {"$": "60", "W": True}),
            ({}, {"$": True}),
            ({}, {"$": "60", "T": True}),
            ({}, {"$": "60", "T": 10**400}),
            ({"lat": True}, {"$": "60"}),
        ],
    )
    def test_bool_fraction_or_overflow_in_a_numeric_field_is_malformed(self, loc, rep):
        with pytest.raises(MalformedJson):
            parse_weather_json(_one_rep_doc(rep, **loc))

    def test_whole_json_numbers_are_accepted(self):
        doc = parse_weather_json(_one_rep_doc({"$": 90, "W": 12.0, "T": 5}, lat=50.5))
        rep = doc.locations[0].periods[0].reps[0]
        assert (rep.minutes_after_midnight, rep.weather_code, rep.temperature) == (90, 12, 5.0)
        assert type(rep.weather_code) is int and doc.locations[0].lat == 50.5

    def test_minutes_out_of_range(self):
        with pytest.raises(RangeError):
            WxRep(minutes_after_midnight=1440)

    def test_unknown_rep_fields_counted(self, baltasound):
        raw = json.loads(FIXTURE.read_text())
        raw["SiteRep"]["DV"]["Location"][0]["Period"][0]["Rep"][0]["Zz"] = "1"
        doc = parse_weather_json(json.dumps(raw).encode())
        assert doc.unknown_rep_fields == 1
        assert baltasound.unknown_rep_fields == 0


class TestFlatten:
    def test_fixture_row(self, baltasound):
        t = flatten_weather(baltasound)
        assert t.row_count == 1
        row = {name: t.column(name).cells[0] for name, _ in FLAT_COLUMNS}
        assert row["SiteID"] == "3002"
        assert row["SiteName"] == "BALTASOUND"
        assert row["ObsDate"] == date(2016, 6, 20)
        assert row["ObsTime"] == time(16, 0)  # 960 minutes after midnight
        assert row["T"] == 13.2
        assert row["W"] == 8

    def test_empty_doc_keeps_header(self):
        doc = WeatherDoc(datetime(2016, 6, 21, 16), "Obs", ())
        t = flatten_weather(doc)
        assert t.row_count == 0
        assert t.column_names == tuple(name for name, _ in FLAT_COLUMNS)
        assert t.column("W").ctype is CType.INT

    def test_row_count_is_total_reps(self):
        rng = random.Random("weather:count")
        reps_total = 0
        locations = []
        for i in range(2):
            periods = []
            for p in range(2):
                n = 3
                reps_total += n
                periods.append(
                    WxPeriod(
                        "Day",
                        date(2018, 2, 1 + p),
                        tuple(
                            WxRep(minutes_after_midnight=rng.randrange(1440))
                            for _ in range(n)
                        ),
                    )
                )
            locations.append(
                WxLocation(
                    id=str(i), lat=50.0, lon=0.0, name=f"L{i}", country="",
                    continent="", elevation_m=None, periods=tuple(periods),
                )
            )
        doc = WeatherDoc(datetime(2018, 2, 1), "Obs", tuple(locations))
        t = flatten_weather(doc)
        assert t.row_count == reps_total == 12

    def test_lossless_for_present_fields(self, baltasound):
        # every rep value appears verbatim in its flattened row
        t = flatten_weather(baltasound)
        rep = baltasound.locations[0].periods[0].reps[0]
        assert t.column("G").cells[0] == rep.gust
        assert t.column("H").cells[0] == rep.humidity
        assert t.column("P").cells[0] == rep.pressure
        assert t.column("V").cells[0] == rep.visibility
        assert t.column("D").cells[0] == rep.wind_dir
        assert t.column("Dp").cells[0] == rep.dew_point

    def test_obstime_minutes_identity(self):
        # 60*hh + mm equals the $ field for every row
        rng = random.Random("weather:minutes")
        reps = tuple(WxRep(minutes_after_midnight=rng.randrange(1440)) for _ in range(50))
        loc = WxLocation(
            id="1", lat=0.0, lon=0.0, name="", country="", continent="",
            elevation_m=None, periods=(WxPeriod("Day", date(2020, 1, 1), reps),),
        )
        t = flatten_weather(WeatherDoc(datetime(2020, 1, 1), "Obs", (loc,)))
        for rep, cell in zip(reps, t.column("ObsTime").cells):
            assert cell.hour * 60 + cell.minute == rep.minutes_after_midnight
