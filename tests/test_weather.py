"""Observation-document parsing and flattening."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from datetime import date, datetime, time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from wrangle.errors import MalformedJson, MissingField, RangeError, TypeMismatch
from wrangle.table import CType, write_csv
from wrangle.weather import (
    FLAT_COLUMNS,
    REP_LAYOUT,
    WeatherDoc,
    WxLocation,
    WxPeriod,
    _parse_data_date,
    flatten_weather,
    parse_weather_json,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "baltasound.json"
# write_csv(flatten_weather(...)) of FIXTURE, checked in so that the flat
# layout and its cells are pinned byte for byte.
FIXTURE_FLAT = DATA / "baltasound.csv"
SRC = Path(__file__).resolve().parent.parent / "src"
BOM = b"\xef\xbb\xbf"


def _fields(rep: tuple) -> dict:
    """A parsed rep's cells by flat column name."""
    return dict(zip((name for name, _, _ in REP_LAYOUT), rep, strict=True))


def _rep_at(minutes: int) -> tuple:
    """A hand-built rep: its time, every field absent."""
    return (time(*divmod(minutes, 60)),) + (None,) * (len(REP_LAYOUT) - 1)


def _one_rep_doc(rep: object, **location: object) -> bytes:
    loc = {"i": "1", "lat": "50", "lon": "0", **location}
    loc["Period"] = {"value": "2016-06-20Z", "Rep": rep}
    return json.dumps({"DV": {"dataDate": "2016-06-21T16:00:00Z", "Location": loc}}).encode()


def _one_location_doc(*periods: WxPeriod) -> WeatherDoc:
    loc = WxLocation(
        id="1", lat=0.0, lon=0.0, name="", country="", elevation_m=None, periods=periods,
    )
    return WeatherDoc((loc,))


@pytest.fixture()
def baltasound() -> WeatherDoc:
    return parse_weather_json(FIXTURE.read_bytes())


class TestParse:
    def test_fixture_document(self, baltasound):
        doc = baltasound
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
        rep = _fields(period.reps[0])
        assert rep["T"] == 13.2
        assert rep["S"] == 23.0
        assert rep["W"] == 8
        assert rep["Pt"] == "R"
        assert rep["Dp"] == 10.2
        assert rep["ObsTime"] == time(16, 0)  # 960 minutes after midnight

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
        rep = _fields(doc.locations[0].periods[0].reps[0])
        assert rep["G"] is None and rep["V"] is None
        assert rep["T"] == 5.0

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

    def test_bom_prefixed_document_parses_as_without(self, baltasound):
        doc = parse_weather_json(BOM + FIXTURE.read_bytes())
        assert doc == baltasound
        assert doc.unknown_rep_fields == baltasound.unknown_rep_fields

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

    @pytest.mark.parametrize("value", ["NaN", "nan", "inf", "-inf", "-Infinity", "1e999"])
    def test_a_non_finite_real_field_is_malformed(self, value):
        # Written as nan or inf, the flat column would read back as text.
        with pytest.raises(MalformedJson) as err:
            parse_weather_json(_one_rep_doc({"$": 60, "T": value}))
        assert str(err.value) == f"field 'T' is not numeric: {value!r}"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_json_nan_and_infinity_are_malformed(self, token):
        data = _one_rep_doc({"$": 60, "G": 0}).replace(b'"G": 0', f'"G": {token}'.encode())
        with pytest.raises(MalformedJson, match="^field 'G' is not numeric: "):
            parse_weather_json(data)

    @pytest.mark.parametrize("loc", [{"lat": "NaN"}, {"lon": "-inf"}, {"lat": "1e999"}])
    def test_a_non_finite_coordinate_is_malformed(self, loc):
        with pytest.raises(MalformedJson, match="is not numeric"):
            parse_weather_json(_one_rep_doc({"$": 60}, **loc))

    @pytest.mark.parametrize("key, value", [("D", ["N"]), ("Pt", {"a": 1}), ("D", [])])
    def test_an_array_or_object_in_a_text_field_is_malformed(self, key, value):
        with pytest.raises(MalformedJson) as err:
            parse_weather_json(_one_rep_doc({"$": 60, key: value}))
        assert str(err.value) == f"field '{key}' is not text: {value!r}"

    def test_whole_json_numbers_are_accepted(self):
        doc = parse_weather_json(_one_rep_doc({"$": 90, "W": 12.0, "T": 5}, lat=50.5))
        rep = _fields(doc.locations[0].periods[0].reps[0])
        assert (rep["ObsTime"], rep["W"], rep["T"]) == (time(1, 30), 12, 5.0)
        assert type(rep["W"]) is int and doc.locations[0].lat == 50.5

    def test_minutes_out_of_range(self):
        for minutes in (1440, -1):
            with pytest.raises(RangeError, match=rf"minutes after midnight {minutes} not in"):
                parse_weather_json(_one_rep_doc({"$": minutes}))

    def test_unknown_rep_fields_counted(self, baltasound):
        raw = json.loads(FIXTURE.read_text())
        raw["SiteRep"]["DV"]["Location"][0]["Period"][0]["Rep"][0]["Zz"] = "1"
        doc = parse_weather_json(json.dumps(raw).encode())
        assert doc.unknown_rep_fields == 1
        assert baltasound.unknown_rep_fields == 0


# Digits a dataDate field may be written with: ASCII most often, then digits
# that strptime's \\d also takes (Arabic-Indic, fullwidth).
_DIGITS = st.sampled_from("0123456789" * 4 + "\u0660\u0661\u0662\u0669\uff10\uff11\uff19")


def _field(most: int):
    return st.lists(_DIGITS, min_size=1, max_size=most).map("".join)


_DATA_DATES = st.tuples(
    _field(4), st.just("-"), _field(2), st.just("-"), _field(2), st.sampled_from("Tt "),
    _field(2), st.just(":"), _field(2), st.just(":"), _field(2), st.sampled_from(["Z", "z", ""]),
).map("".join)


class TestDataDate:
    """``dataDate`` reads as ``datetime.strptime`` reads it; canonical text
    is read without it."""

    @settings(max_examples=500, deadline=None)
    @given(_DATA_DATES)
    @example("2018-02-05T12:00:00Z")
    @example("0001-01-01T00:00:00Z")
    @example("9999-12-31T23:59:59Z")
    @example("0000-01-01T00:00:00Z")  # year 0
    @example("2018-02-29T00:00:00Z")  # not a leap year
    @example("2018-02-01T00:00:60Z")  # strptime's pattern takes 60 and 61; datetime does not
    @example("2018-02-01T24:00:00Z")
    @example("2018-02-01t00:00:00z")
    @example("2018-2-1T0:0:0Z")
    @example("\u0662\u0660\u0661\u0668-02-01T00:00:00Z")
    def test_reads_as_strptime_reads_it(self, text):
        try:
            expected = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
        except ValueError:
            expected = None
        data = json.dumps({"DV": {"dataDate": text, "Location": []}}).encode()
        if expected is None:
            with pytest.raises(MalformedJson) as err:
                parse_weather_json(data)
            assert str(err.value) == f"bad dataDate {text!r}"
        else:
            assert parse_weather_json(data).locations == ()
            assert _parse_data_date(text) == expected

    def test_a_canonical_data_date_does_not_load_strptime(self):
        code = (
            "import sys\n"
            "from wrangle.weather import parse_weather_json\n"
            f"parse_weather_json(open({str(FIXTURE)!r}, 'rb').read())\n"
            "print('_strptime' in sys.modules)\n"
        )
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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

    def test_fixture_flattens_to_the_pinned_csv_through_the_cli(self, baltasound):
        pinned = FIXTURE_FLAT.read_bytes()
        assert write_csv(flatten_weather(baltasound)) == pinned
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "wrangle", "op", "weather.flatten", "--weather", str(FIXTURE)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == pinned

    def test_empty_doc_keeps_header(self):
        doc = WeatherDoc(())
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
                        date(2018, 2, 1 + p),
                        tuple(_rep_at(rng.randrange(1440)) for _ in range(n)),
                    )
                )
            locations.append(
                WxLocation(
                    id=str(i), lat=50.0, lon=0.0, name=f"L{i}", country="",
                    elevation_m=None, periods=tuple(periods),
                )
            )
        doc = WeatherDoc(tuple(locations))
        t = flatten_weather(doc)
        assert t.row_count == reps_total == 12

    def test_lossless_for_present_fields(self, baltasound):
        # every rep value appears verbatim in its flattened row
        t = flatten_weather(baltasound)
        rep = _fields(baltasound.locations[0].periods[0].reps[0])
        for name in ("G", "H", "P", "V", "D", "Dp"):
            assert t.column(name).cells[0] == rep[name]

    def test_obstime_minutes_identity(self):
        # 60*hh + mm equals the $ field for every row
        rng = random.Random("weather:minutes")
        minutes = [rng.randrange(1440) for _ in range(50)]
        doc = parse_weather_json(_one_rep_doc([{"$": m} for m in minutes]))
        cells = flatten_weather(doc).column("ObsTime").cells
        assert [cell.hour * 60 + cell.minute for cell in cells] == minutes

    def test_hand_built_rep_of_wrong_shape_or_kind_is_refused(self):
        period = WxPeriod(date(2020, 1, 1), (_rep_at(0)[:-1],))
        with pytest.raises(ValueError):
            flatten_weather(_one_location_doc(period))
        period = WxPeriod(date(2020, 1, 1), (_rep_at(0), _rep_at(60)[:-1]))
        with pytest.raises(ValueError):
            flatten_weather(_one_location_doc(period))
        period = WxPeriod(date(2020, 1, 1), ((60,) + _rep_at(0)[1:],))
        with pytest.raises(TypeMismatch, match="column 'ObsTime' is time but cell 0 is 60"):
            flatten_weather(_one_location_doc(period))


# ---------------------------------------------------------------------------
# The parse and flatten against the WxRep-based oracle
# ---------------------------------------------------------------------------

# Values of any kind, fit or not: absent-as-null, bools, fractions, text,
# numbers as text, out-of-range minutes and values JSON numbers cannot hold.
_ANY_VALUE = st.one_of(
    st.sampled_from(
        [None, True, False, "", "N", "SSW", "x", "nan", "inf", "1e999", 10**400, 12.0, 12.5,
         "12.5", 90.5, "90", 1440, "1440", -1, "-1", [], {}, float("nan"), float("inf")]
    ),
    st.integers(-10, 2000),
    st.integers(-10, 2000).map(str),
    st.floats(-1e3, 1e4, allow_nan=False),
    st.floats(-1e3, 1e4, allow_nan=False).map(repr),
)
_MINUTES = st.integers(0, 1439)
# Values that fit each kind, as JSON numbers or as text.
_FITTING = {
    CType.TIME: _MINUTES | _MINUTES.map(str) | _MINUTES.map(float),
    CType.TEXT: st.sampled_from(["N", "SSW", "R", "", "F"]) | st.integers(0, 9),
    CType.REAL: st.floats(-50, 1100, allow_nan=False) | st.integers(-50, 1100)
    | st.floats(-50, 1100, allow_nan=False).map(repr),
    CType.INT: st.integers(0, 30) | st.integers(0, 30).map(str) | st.integers(0, 30).map(float),
}
_UNKNOWN_KEYS = st.sampled_from(["Zz", "t", "w", "$$", "dp", "i"])


@st.composite
def _rep_objects(draw, faulty=None):
    """A Rep object; a faulty one may hold several faults."""
    if draw(st.integers(0, 60)) == 0:
        return draw(st.sampled_from(["x", 5, [], None]))  # not an object
    if faulty is None:
        faulty = draw(st.integers(0, 12)) == 0
    rep = {}
    for _, key, ctype in draw(st.permutations(REP_LAYOUT)):
        if key == "$" and draw(st.integers(0, 60)) == 0 or key != "$" and draw(st.booleans()):
            continue  # absent
        odds = 4 if key == "$" else 2  # a bad $ hides every later fault
        bad = faulty and draw(st.integers(1, odds)) == 1
        rep[key] = draw(_ANY_VALUE if bad else _FITTING[ctype])
    for key in draw(st.lists(_UNKNOWN_KEYS, max_size=2)):
        rep[key] = draw(_ANY_VALUE)
    return rep


def _singleton_or_list(items):
    """A bare item (the singleton form), a list of one to three, or now and
    then an empty list."""
    return st.integers(0, 15).flatmap(
        lambda n: st.just([]) if n == 0 else items | st.lists(items, min_size=1, max_size=3)
    )


def _mostly(fitting: list, faulty: list):
    """One of ``fitting``, or now and then one of ``faulty``."""
    return st.integers(0, 30).flatmap(
        lambda n: st.sampled_from(faulty if n == 0 else fitting)
    )


_ABSENT = object()


@st.composite
def _periods(draw):
    period = {
        "value": draw(_mostly(["2018-02-02Z", "2018-02-03"], ["2018-02-30Z", _ABSENT])),
        "type": draw(st.sampled_from(["Day", _ABSENT])),
        "Rep": draw(_mostly([True], [_ABSENT])) and draw(_singleton_or_list(_rep_objects())),
    }
    return {k: v for k, v in period.items() if v is not _ABSENT}


@st.composite
def _locations(draw):
    loc = {
        "i": draw(_mostly(["3002", 3005], [None, _ABSENT])),
        "lat": draw(_mostly(["60.749", 51.5], ["95", True, None, "x"])),
        "lon": draw(_mostly(["-0.854", -1.25, 0], ["-181", _ABSENT])),
        "Period": draw(_mostly([True], [_ABSENT])) and draw(_singleton_or_list(_periods())),
    }
    for key in ("name", "country", "continent"):
        loc[key] = draw(st.sampled_from(["BALTASOUND", 15, "UK", None, _ABSENT]))
    loc["elevation"] = draw(_mostly(["15.0", 15, None, _ABSENT], ["high"]))
    return {k: v for k, v in loc.items() if v is not _ABSENT}


@st.composite
def _documents(draw) -> bytes:
    dv = {"dataDate": "2018-02-05T12:00:00Z", "type": "Obs"}
    if draw(st.integers(0, 3)):
        dv["Location"] = draw(_singleton_or_list(_locations()))
    else:  # one location whose reps are faulty
        reps = draw(st.lists(_rep_objects(faulty=True), min_size=1, max_size=3))
        period = {"value": "2018-02-02Z", "Rep": reps}
        dv["Location"] = {"i": "1", "lat": "50", "lon": "0", "Period": period}
    doc = {"SiteRep": {"DV": dv}} if draw(st.booleans()) else {"DV": dv}
    return json.dumps(doc).encode()


def _outcome(parse, flatten, data: bytes):
    """The flat table cell by cell and the unknown-key count, or the error
    class and message. Cells compare by type and ``repr``, so NaN meets NaN."""
    try:
        doc = parse(data)
        t = flatten(doc)
    except Exception as exc:
        return type(exc), str(exc)
    cells = [(c.name, c.ctype, [(type(v), repr(v)) for v in c.cells]) for c in t.columns]
    return cells, doc.unknown_rep_fields


@settings(max_examples=400, deadline=None)
@given(_documents())
@example(FIXTURE.read_bytes())
@example(_one_rep_doc([{"$": 1440, "W": 12.5, "T": True, "D": None}]))  # T first
@example(_one_rep_doc([{"W": "x", "G": True}]))  # no $ before any field
@example(_one_rep_doc([{"$": "9.5", "D": "N", "G": "x"}]))  # a fractional $ before any field
@example(_one_rep_doc([{"$": 1440, "Dp": "x"}]))  # the last field before the range
@example(_one_rep_doc([{"$": 1440}]))
@example(_one_rep_doc([{"$": 0, "Zz": 1, "t": None}, {"$": "1439.0", "W": "7", "Pt": 3}]))
@example(_one_rep_doc({"$": 60, "W": True}, lat="95"))  # the rep before the latitude
@example(_one_rep_doc({"$": 60}, elevation="high", lat="95"))  # elevation before latitude
@example(_one_rep_doc({"$": 60, "G": "NaN", "V": "inf", "T": 10**400}))
@example(b"{}")
def test_parse_and_flatten_equal_the_wxrep_oracle(data):
    assert _outcome(parse_weather_json, flatten_weather, data) == _outcome(
        slowpaths.wxrep_parse_weather_json, slowpaths.wxrep_flatten_weather, data
    )
