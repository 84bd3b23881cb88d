"""Great-circle distance, the space-time join, and wet/dry labelling."""

from __future__ import annotations

import random
import tracemalloc
from datetime import date, datetime, time, timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import opharness
import oracles
import slowpaths
from conftest import table_from_rows
from wrangle import relops, spacetime, table
from wrangle.errors import RangeError, TypeMismatch, UnknownColumn
from wrangle.spacetime import (
    DEFAULT_WET_CODES,
    SpaceTimeParams,
    add_weather_condition,
    haversine_m,
    time_space_join,
)
from wrangle.gen import GenConfig, generate
from wrangle.table import Column, CType, Table, infer_column_types, parse_csv
from wrangle.traffic import clean_site_id, separate_datetime
from wrangle.weather import flatten_weather, parse_weather_json


class TestHaversine:
    def test_identical_points(self):
        assert haversine_m(60.749, -0.854, 60.749, -0.854) == 0.0

    def test_symmetry(self):
        rng = random.Random("haversine:sym")
        for _ in range(50):
            a = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert haversine_m(*a, *b) == pytest.approx(haversine_m(*b, *a), rel=1e-12)

    def test_against_law_of_cosines(self):
        # ~0.01 degrees of latitude near Baltasound
        got = haversine_m(60.749, -0.854, 60.759, -0.854)
        ref = oracles.law_of_cosines_m(60.749, -0.854, 60.759, -0.854)
        assert got == pytest.approx(ref, rel=1e-3)
        rng = random.Random("haversine:loc")
        for _ in range(50):
            lat1, lon1 = rng.uniform(-80, 80), rng.uniform(-179, 179)
            lat2 = lat1 + rng.uniform(0.01, 1.0)
            lon2 = lon1 + rng.uniform(0.01, 1.0)
            got = haversine_m(lat1, lon1, lat2, lon2)
            assert got == pytest.approx(
                oracles.law_of_cosines_m(lat1, lon1, lat2, lon2), rel=1e-3
            )

    def test_range_errors(self):
        with pytest.raises(RangeError):
            haversine_m(91.0, 0.0, 0.0, 0.0)
        with pytest.raises(RangeError):
            haversine_m(0.0, -181.0, 0.0, 0.0)


def _traffic(rows):
    return table_from_rows(
        ["Lat", "Lon", "Date", "Hours", "Speed"],
        [CType.REAL, CType.REAL, CType.DATE, CType.TIME, CType.REAL],
        rows,
    )


def _weather(rows):
    return table_from_rows(
        ["Lat", "Lon", "ObsDate", "ObsTime", "W"],
        [CType.REAL, CType.REAL, CType.DATE, CType.TIME, CType.INT],
        rows,
    )


class TestTimeSpaceJoin:
    def test_baltasound_match_within_buffers(self):
        # 600 s gap and zero distance: matched under the mile/30-minute defaults
        traffic = _traffic([[60.749, -0.854, date(2016, 6, 20), time(16, 10), 30.0]])
        weather = _weather([[60.749, -0.854, date(2016, 6, 20), time(16, 0), 8]])
        got = time_space_join(traffic, weather, SpaceTimeParams())
        assert got.column("wx_W").cells == (8,)

    def test_empty_weather_keeps_traffic_with_nulls(self):
        traffic = _traffic([[60.0, 0.0, date(2016, 6, 20), time(12, 0), 25.0]])
        got = time_space_join(traffic, _weather([]), SpaceTimeParams())
        assert got.row_count == 1
        assert got.column("wx_W").cells == (None,)
        assert got.column("wx_W").ctype is CType.INT

    def test_row_count_and_order_preserved(self):
        rng = random.Random("st:order")
        for _ in range(5):
            opharness.check_spacetime(rng)

    def test_nearest_wins_then_time_then_row_order(self):
        day = date(2018, 2, 2)
        traffic = _traffic([[53.0, -2.0, day, time(12, 0), 30.0]])
        near_far = _weather(
            [
                [53.004, -2.0, day, time(12, 20), 1],  # farther
                [53.001, -2.0, day, time(12, 25), 2],  # nearest: wins
            ]
        )
        got = time_space_join(traffic, near_far, SpaceTimeParams())
        assert got.column("wx_W").cells == (2,)

        time_tie = _weather(
            [
                [53.001, -2.0, day, time(12, 25), 1],  # same spot, 25 min away
                [53.001, -2.0, day, time(12, 10), 2],  # same spot, 10 min: wins
            ]
        )
        got = time_space_join(traffic, time_tie, SpaceTimeParams())
        assert got.column("wx_W").cells == (2,)

        full_tie = _weather(
            [
                [53.001, -2.0, day, time(12, 10), 1],  # first row wins the full tie
                [53.001, -2.0, day, time(12, 10), 2],
            ]
        )
        got = time_space_join(traffic, full_tie, SpaceTimeParams())
        assert got.column("wx_W").cells == (1,)

    def test_buffer_monotonicity(self):
        rng = random.Random("st:monotone")
        day = date(2018, 2, 2)
        traffic = _traffic(
            [
                [
                    53.0 + rng.uniform(-0.05, 0.05),
                    -2.0 + rng.uniform(-0.05, 0.05),
                    day,
                    time(rng.randrange(24), rng.randrange(60)),
                    30.0,
                ]
                for _ in range(30)
            ]
        )
        weather = _weather(
            [
                [
                    53.0 + rng.uniform(-0.05, 0.05),
                    -2.0 + rng.uniform(-0.05, 0.05),
                    day,
                    time(rng.randrange(24), rng.randrange(60)),
                    rng.randrange(16),
                ]
                for _ in range(30)
            ]
        )

        def matched(space_m, time_s):
            got = time_space_join(
                traffic, weather,
                SpaceTimeParams(space_buffer_m=space_m, time_buffer_s=time_s),
            )
            return sum(1 for v in got.column("wx_W").cells if v is not None)

        for tighter, looser in [((1000, 900), (3000, 900)), ((3000, 600), (3000, 1800))]:
            assert matched(*tighter) <= matched(*looser)

    def test_matches_satisfy_buffers_post_hoc(self):
        rng = random.Random("st:posthoc")
        day = date(2018, 2, 2)
        p = SpaceTimeParams(space_buffer_m=2500.0, time_buffer_s=1200)
        traffic_rows = [
            [53.0 + rng.uniform(-0.05, 0.05), -2.0 + rng.uniform(-0.05, 0.05),
             day, time(rng.randrange(24), rng.randrange(60)), 30.0]
            for _ in range(25)
        ]
        weather_rows = [
            [53.0 + rng.uniform(-0.05, 0.05), -2.0 + rng.uniform(-0.05, 0.05),
             day, time(rng.randrange(24), rng.randrange(60)), rng.randrange(16)]
            for _ in range(25)
        ]
        got = time_space_join(_traffic(traffic_rows), _weather(weather_rows), p)
        for i in range(got.row_count):
            wx_lat = got.column("wx_Lat").cells[i]
            if wx_lat is None:
                continue
            dist = haversine_m(
                traffic_rows[i][0], traffic_rows[i][1], wx_lat,
                got.column("wx_Lon").cells[i],
            )
            dt = abs(
                (
                    datetime.combine(traffic_rows[i][2], traffic_rows[i][3])
                    - datetime.combine(
                        got.column("wx_ObsDate").cells[i],
                        got.column("wx_ObsTime").cells[i],
                    )
                ).total_seconds()
            )
            assert dist <= p.space_buffer_m
            assert dt <= p.time_buffer_s

    def test_timestamp_column_form(self):
        traffic = table_from_rows(
            ["Lat", "Lon", "When"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [[53.0, -2.0, datetime(2018, 2, 2, 12, 0)]],
        )
        weather = _weather([[53.0, -2.0, date(2018, 2, 2), time(12, 15), 3]])
        p = SpaceTimeParams(traffic_timestamp="When")
        got = time_space_join(traffic, weather, p)
        assert got.column("wx_W").cells == (3,)

    def test_timestamp_wins_over_date_and_time_names_the_table_lacks(self):
        traffic = table_from_rows(
            ["Lat", "Lon", "When"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [[53.0, -2.0, datetime(2018, 2, 2, 12, 0)], [53.0, -2.0, datetime(2018, 2, 3, 0, 0)]],
        )
        weather = _weather([[53.0, -2.0, date(2018, 2, 2), time(12, 15), 3]])
        named = SpaceTimeParams(traffic_timestamp="When", traffic_date="NoDate",
                                traffic_time="NoTime")
        assert (named.traffic_date, named.traffic_time) == ("NoDate", "NoTime")
        got = time_space_join(traffic, weather, named)
        assert got == time_space_join(traffic, weather, SpaceTimeParams(traffic_timestamp="When"))
        assert got.column("wx_W").cells == (3, None)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            time_space_join(_traffic([]), _weather([]), SpaceTimeParams(traffic_lat="nope"))

    def test_against_oracle(self):
        opharness.run_batch("time_space_join", 15, "spacetime:oracle")

    def test_generated_weather_skips_the_per_cell_check(self, tmp_path):
        # The flattened weather and the joined wx_ columns go through the
        # checking Column(...), but by their cell types, never cell by cell.
        site, _, sites, wx = generate(
            GenConfig(seed=7, sites=2, rows_per_site=2000, weather_locations=4), tmp_path
        )
        traffic = infer_column_types(clean_site_id(parse_csv(site.read_bytes()), "Site ID"))
        traffic = relops.join(
            traffic, infer_column_types(parse_csv(sites.read_bytes())), [("Site ID", "Site.ID")]
        )
        traffic = separate_datetime(traffic, "Date")
        doc = parse_weather_json(wx.read_bytes())
        with mock.patch.object(table, "cell_matches", wraps=table.cell_matches) as spy:
            weather = flatten_weather(doc)
            got = time_space_join(traffic, weather, SpaceTimeParams())
        assert spy.call_count == 0
        matched = sum(v is not None for v in got.column("wx_W").cells)
        assert 0 < matched and weather.row_count > 0


# Anchors for generated instants: windows that cross midnight and a month
# end, and both ends of the datetime range.
_ANCHORS = (
    datetime(2018, 2, 2, 23, 50),
    datetime(2018, 2, 28, 23, 59, 59, 990000),
    datetime.min,
    datetime.max,
)
_CENTI = timedelta(milliseconds=10)
# Grid steps of ~450 m and ~400 m: distances tie, and some exceed a mile.
_LATS = st.sampled_from([53.0 + 0.004 * k for k in range(-3, 4)])
_LONS = st.sampled_from([-2.0 + 0.006 * k for k in range(-3, 4)])
# Half the rows are complete; the rest null one field.
_NULLED = st.sampled_from((None, None, None, None, "lat", "lon", "date", "time"))


def _clamped(instant, delta):
    try:
        return instant + delta
    except OverflowError:
        return datetime.max if delta > timedelta(0) else datetime.min


def _nulled(lat, lon, instant, which):
    return [
        None if which == "lat" else lat,
        None if which == "lon" else lon,
        None if which == "date" else instant.date(),
        None if which == "time" else instant.time(),
    ]


@st.composite
def _join_cases(draw):
    anchor = draw(st.sampled_from(_ANCHORS))
    buf_s = draw(st.sampled_from((1, 900, 1800, 86400)))
    reach = (buf_s + 60) * 100
    near_anchor = st.integers(-reach, reach).map(lambda c: _clamped(anchor, c * _CENTI))

    t_rows = draw(st.lists(st.tuples(_LATS, _LONS, near_anchor, _NULLED), max_size=10))
    w_rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("free", "edge", "dup", "same_instant")))
        lat, lon, instant = draw(_LATS), draw(_LONS), draw(near_anchor)
        if kind == "edge" and t_rows:
            # Exactly one buffer from a traffic instant, or 10 ms either side.
            _, _, t_instant, _ = draw(st.sampled_from(t_rows))
            sign = draw(st.sampled_from((-1, 1)))
            nudge = draw(st.sampled_from((-1, 0, 1))) * _CENTI
            instant = _clamped(t_instant, sign * timedelta(seconds=buf_s) + nudge)
        elif kind == "dup" and w_rows:
            lat, lon, instant, _ = draw(st.sampled_from(w_rows))
        elif kind == "same_instant" and w_rows:
            _, _, instant, _ = draw(st.sampled_from(w_rows))
        w_rows.append((lat, lon, instant, draw(_NULLED)))

    p = SpaceTimeParams(
        space_buffer_m=draw(st.sampled_from((500.0, 1609.34, 5000.0))),
        time_buffer_s=buf_s,
        traffic_timestamp="When" if draw(st.booleans()) else None,
    )
    if p.traffic_timestamp:
        traffic = table_from_rows(
            ["Lat", "Lon", "When", "Speed"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP, CType.REAL],
            [
                [None if which == "lat" else lat, None if which == "lon" else lon,
                 None if which in ("date", "time") else instant, 30.0]
                for lat, lon, instant, which in t_rows
            ],
        )
    else:
        traffic = _traffic([_nulled(*row) + [30.0] for row in t_rows])
    weather = _weather([_nulled(*row) + [j] for j, row in enumerate(w_rows)])
    return traffic, weather, p


def _repeated_coordinates_case(t_points, w_points, lat_kind):
    """Every traffic point against every weather point, all at one instant."""
    when = datetime(2018, 2, 2, 12, 0)
    traffic = table_from_rows(
        ["Lat", "Lon", "When"],
        [lat_kind, lat_kind, CType.TIMESTAMP],
        [[lat, lon, when] for lat, lon in t_points],
    )
    weather = _weather(
        [[lat, lon, when.date(), when.time(), j] for j, (lat, lon) in enumerate(w_points)]
    )
    return traffic, weather, SpaceTimeParams(traffic_timestamp="When")


class TestTimeWindow:
    """The bisected time window against the nested loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_join_cases())
    # Coordinates equal as keys but not as objects share one distance.
    @example(_repeated_coordinates_case(
        [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (0.01, 0.0)],
        [(-0.0, 0.0), (0.0, -0.0), (0.005, -0.0)],
        CType.REAL,
    ))
    @example(_repeated_coordinates_case(
        [(53, -2), (53, -2), (54, -2)],
        [(53.0, -2.0), (53.004, -2.0), (53.0, -2.0)],
        CType.INT,
    ))
    def test_matches_nested_loop(self, case):
        traffic, weather, p = case
        assert time_space_join(traffic, weather, p) == (
            slowpaths.nested_loop_time_space_join(traffic, weather, p)
        )

    def test_gap_equal_to_buffer_matches(self):
        traffic = _traffic([[53.0, -2.0, date(2018, 2, 2), time(23, 50, 0, 370000), 30.0]])
        weather = _weather(
            [
                [53.0, -2.0, date(2018, 2, 3), time(0, 20, 0, 380000), 1],  # 1800.01 s
                [53.0, -2.0, date(2018, 2, 3), time(0, 20, 0, 370000), 2],  # 1800 s
            ]
        )
        got = time_space_join(traffic, weather, SpaceTimeParams(time_buffer_s=1800))
        assert got.column("wx_W").cells == (2,)

    def test_range_ends_do_not_overflow(self):
        traffic = table_from_rows(
            ["Lat", "Lon", "When"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [[53.0, -2.0, datetime.min], [53.0, -2.0, datetime.max]],
        )
        weather = _weather(
            [
                [53.0, -2.0, date.min, time(23, 0), 1],
                [53.0, -2.0, date.max, time(1, 0), 2],
            ]
        )
        for buf_s, want in ((3600, (None, None)), (86400, (1, 2)), (10**15, (1, 2))):
            p = SpaceTimeParams(traffic_timestamp="When", time_buffer_s=buf_s)
            got = time_space_join(traffic, weather, p)
            assert got.column("wx_W").cells == want
            assert got == slowpaths.nested_loop_time_space_join(traffic, weather, p)

    def test_work_is_bounded_by_pairs_inside_the_time_buffer(self, monkeypatch):
        # A scan of every weather row per traffic row would take 4M time
        # differences here, against ~40k pairs inside the buffer. Those pairs
        # repeat 3 traffic points x 4 weather points: each distinct coordinate
        # quadruple among them is measured exactly once.
        subtractions = 0

        class CountedInstant(datetime):
            def __sub__(self, other):
                nonlocal subtractions
                subtractions += isinstance(other, datetime)
                return super().__sub__(other)

            def __rsub__(self, other):
                nonlocal subtractions
                subtractions += isinstance(other, datetime)
                return super().__rsub__(other)

        rng = random.Random("st:workbound")
        four_days_cs = 4 * 86400 * 100
        t_points = [(53.0, -2.0), (53.01, -2.0), (53.0, -2.02)]
        w_points = [(53.0, -2.0), (53.005, -2.01), (52.99, -1.99), (53.02, -2.03)]
        t_rows = [(rng.choice(t_points), rng.randrange(four_days_cs)) for _ in range(2000)]
        w_rows = [(rng.choice(w_points), rng.randrange(four_days_cs)) for _ in range(2000)]
        traffic = table_from_rows(
            ["Lat", "Lon", "When"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [[*pt, CountedInstant(2018, 2, 1) + c * _CENTI] for pt, c in t_rows],
        )
        w_instants = [datetime(2018, 2, 1) + c * _CENTI for _, c in w_rows]
        weather = _weather(
            [[*pt, w.date(), w.time(), 0] for (pt, _), w in zip(w_rows, w_instants)]
        )

        calls = 0
        real = spacetime.haversine_m

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(spacetime, "haversine_m", counting)
        time_space_join(traffic, weather, SpaceTimeParams(traffic_timestamp="When"))
        buf_cs = 1800 * 100
        in_buffer = [(a, b) for a, ca in t_rows for b, cb in w_rows if -buf_cs <= ca - cb <= buf_cs]
        assert 0 < calls == len(set(in_buffer)) == len(t_points) * len(w_points)
        assert subtractions <= len(in_buffer)

    def test_kept_distances_are_bounded(self, monkeypatch):
        # Coordinates that never repeat: keeping the distance of each of these
        # ~13k in-buffer pairs would peak near 1.9 MB; the bounded memo at 0.6.
        rng = random.Random("st:memo-bound")
        day = date(2018, 2, 1)
        traffic = table_from_rows(
            ["Lat", "Lon", "When"],
            [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [
                [53 + rng.random() / 50, -2 + rng.random() / 50,
                 datetime.combine(day, time()) + timedelta(seconds=rng.randrange(86400))]
                for _ in range(800)
            ],
        )
        weather = _weather(
            [
                [53 + rng.random() / 50, -2 + rng.random() / 50, day,
                 time(rng.randrange(24), rng.randrange(60)), j]
                for j in range(400)
            ]
        )
        p = SpaceTimeParams(traffic_timestamp="When")
        tracemalloc.start()
        try:
            got = time_space_join(traffic, weather, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # A memo that starts over often still gives the nested loop's answer.
        monkeypatch.setattr(spacetime, "_MAX_KEPT_DISTANCES", 2)
        assert time_space_join(traffic, weather, p) == got
        head = traffic.take(range(100))
        assert time_space_join(head, weather, p) == (
            slowpaths.nested_loop_time_space_join(head, weather, p)
        )

    def test_bad_coordinate_raises_once_inside_the_window(self):
        # The bad weather point lies outside the first traffic row's window
        # and inside the second's, after a good pair has been measured.
        day = date(2018, 2, 2)
        traffic = _traffic(
            [[53.0, -2.0, day, time(8, 0), 30.0], [53.0, -2.0, day, time(12, 0), 30.0]]
        )
        weather = _weather(
            [[53.0, -2.0, day, time(8, 0), 1], [91.0, -2.0, day, time(12, 0), 2]]
        )
        p = SpaceTimeParams()
        with pytest.raises(RangeError):
            time_space_join(traffic, weather, p)
        with pytest.raises(RangeError):
            slowpaths.nested_loop_time_space_join(traffic, weather, p)
        # Only the first row, whose window excludes the bad point: no error.
        assert time_space_join(traffic.take([0]), weather, p).column("wx_W").cells == (1,)

    def test_float_rounding_of_huge_gaps_still_decides(self):
        # 2**35 s plus 1 us rounds to exactly 2**35 in total_seconds(), so the
        # float test admits a gap just past the buffer; the window must too.
        start = datetime(2018, 2, 1)
        traffic = table_from_rows(
            ["Lat", "Lon", "When"], [CType.REAL, CType.REAL, CType.TIMESTAMP],
            [[53.0, -2.0, start]],
        )
        w = start + timedelta(seconds=2**35, microseconds=1)
        weather = _weather([[53.0, -2.0, w.date(), w.time(), 7]])
        p = SpaceTimeParams(traffic_timestamp="When", time_buffer_s=2**35)
        got = time_space_join(traffic, weather, p)
        assert got.column("wx_W").cells == (7,)
        assert got == slowpaths.nested_loop_time_space_join(traffic, weather, p)

    def test_bad_weather_coordinate_raises_only_inside_a_window(self):
        day = date(2018, 2, 2)
        traffic = _traffic([[53.0, -2.0, day, time(12, 0), 30.0]])
        far = _weather([[53.0, -2.0, day, time(12, 5), 1], [95.0, -2.0, day, time(18, 0), 2]])
        assert time_space_join(traffic, far, SpaceTimeParams()).column("wx_W").cells == (1,)
        near = _weather([[53.0, -2.0, day, time(12, 5), 1], [95.0, -2.0, day, time(12, 20), 2]])
        with pytest.raises(RangeError):
            time_space_join(traffic, near, SpaceTimeParams())


class TestWetCodes:
    def _joined(self, codes):
        return table_from_rows(
            ["Speed", "wx_W"], [CType.REAL, CType.INT], [[30.0, c] for c in codes]
        )

    def test_default_labels(self):
        got = add_weather_condition(self._joined([8, 12, None]))
        assert got.column("weatherCond").cells == ("dry", "wet", None)

    def test_null_exactly_where_code_null(self):
        rng = random.Random("wet:nulls")
        codes = [None if rng.random() < 0.3 else rng.randrange(16) for _ in range(40)]
        got = add_weather_condition(self._joined(codes))
        for code, label in zip(codes, got.column("weatherCond").cells):
            assert (label is None) == (code is None)
            if code is not None:
                assert label == ("wet" if code in DEFAULT_WET_CODES else "dry")

    @given(st.lists(st.none() | st.integers(-1, 20), max_size=12))
    def test_result_column_passes_the_checking_constructor(self, codes):
        col = add_weather_condition(self._joined(codes)).column("weatherCond")
        assert Column(col.name, col.ctype, col.cells) == col

    def test_custom_code_set(self):
        got = add_weather_condition(self._joined([5]), frozenset({5}))
        assert got.column("weatherCond").cells == ("wet",)

    def test_non_integer_codes_rejected(self):
        t = table_from_rows(["wx_W"], [CType.TEXT], [["8"]])
        with pytest.raises(TypeMismatch):
            add_weather_condition(t)

    def test_missing_column(self):
        t = table_from_rows(["x"], [CType.INT], [])
        with pytest.raises(UnknownColumn):
            add_weather_condition(t)
