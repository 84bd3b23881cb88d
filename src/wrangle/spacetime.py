"""Joining traffic records to nearby weather observations, and wet/dry labels.

A traffic row matches the weather observation that is closest in space
among those within both buffers (great-circle distance and absolute time
difference); distance ties fall back to the smaller time gap, then to
weather row order. Each traffic row gains at most one observation, so row
count and order are preserved for downstream grouping.

The time condition is a band join: weather observations are sorted by
instant once, and each traffic row bisects the window
``[instant - time_buffer_s, instant + time_buffer_s]`` (widened by a
millisecond of slack, clamped to the ``datetime`` range) instead of
scanning every observation. Inside the window the float test
``abs(dt.total_seconds()) > time_buffer_s`` decides, so an observation
exactly ``time_buffer_s`` away matches. Distances are computed, and bad
coordinates raise :class:`RangeError`, only for pairs that pass it. A
call keeps the distances it computed, up to a bound, so a coordinate
quadruple that recurs across pairs is measured once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta

from .errors import RangeError, SchemaMismatch, TypeMismatch
from .table import Cell, Column, CType, Table

EARTH_RADIUS_M = 6_371_000.0

#: Significant-weather codes treated as rain by default (the rain family).
DEFAULT_WET_CODES = frozenset({9, 10, 11, 12, 13, 14, 15})

MILE_M = 1609.34

# The float test in time_space_join decides the boundary; the bisected window
# only has to contain every pair it admits. total_seconds() rounds, by under
# 0.1 ms across the whole datetime range, so a millisecond of slack suffices.
_WINDOW_SLACK = timedelta(milliseconds=1)
_DATETIME_SPAN_S = (datetime.max - datetime.min).total_seconds()

# time_space_join keeps at most this many distances, and starts over when
# full: every pair of a few sites and stations fits, and coordinates that
# never repeat cannot grow the memo with the number of pairs.
_MAX_KEPT_DISTANCES = 4096


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of Earth radius."""
    for lat in (lat1, lat2):
        if not -90.0 <= lat <= 90.0:
            raise RangeError(f"latitude {lat} out of range")
    for lon in (lon1, lon2):
        if not -180.0 <= lon <= 180.0:
            raise RangeError(f"longitude {lon} out of range")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class SpaceTimeParams:
    """Column names and buffers for the join.

    The traffic timestamp comes from one timestamp column
    (``traffic_timestamp``) when that is set, and the date and time-of-day
    columns are then not read; otherwise it comes from a date column
    (``traffic_date``) plus a time-of-day column (``traffic_time``), and
    both must be set.
    """

    space_buffer_m: float = MILE_M
    time_buffer_s: int = 1800
    traffic_lat: str = "Lat"
    traffic_lon: str = "Lon"
    traffic_timestamp: str | None = None
    traffic_date: str | None = "Date"
    traffic_time: str | None = "Hours"
    weather_lat: str = "Lat"
    weather_lon: str = "Lon"
    weather_date: str = "ObsDate"
    weather_time: str = "ObsTime"

    def __post_init__(self) -> None:
        if not (self.space_buffer_m > 0 and self.time_buffer_s > 0):  # NaN too
            raise RangeError("buffers must be positive")
        if self.traffic_timestamp is None and (
            self.traffic_date is None or self.traffic_time is None
        ):
            raise ValueError(
                "need traffic_timestamp or both traffic_date and traffic_time"
            )


def _require(t: Table, name: str, kinds: set[CType], what: str) -> Column:
    col = t.column(name)
    if col.ctype not in kinds:
        wanted = "/".join(sorted(k.value for k in kinds))
        raise TypeMismatch(f"{what} column '{name}' is {col.ctype.value}, need {wanted}")
    return col


def _traffic_instants(traffic: Table, p: SpaceTimeParams) -> list[datetime | None]:
    if p.traffic_timestamp is not None:
        col = _require(traffic, p.traffic_timestamp, {CType.TIMESTAMP}, "traffic")
        return list(col.cells)  # type: ignore[arg-type]
    dcol = _require(traffic, p.traffic_date, {CType.DATE}, "traffic")  # type: ignore[arg-type]
    tcol = _require(traffic, p.traffic_time, {CType.TIME}, "traffic")  # type: ignore[arg-type]
    out: list[datetime | None] = []
    for d, t in zip(dcol.cells, tcol.cells):
        if d is None or t is None:
            out.append(None)
        else:
            out.append(datetime.combine(d, t))  # type: ignore[arg-type]
    return out


def _shifted(instant: datetime, delta: timedelta) -> datetime:
    """``instant + delta``, clamped to the ``datetime`` range."""
    try:
        return instant + delta
    except OverflowError:
        return datetime.max if delta > timedelta(0) else datetime.min


def time_space_join(traffic: Table, weather: Table, params: SpaceTimeParams) -> Table:
    """Append the nearest in-buffer weather observation to each traffic row.

    Weather columns arrive with a ``wx_`` prefix; unmatched traffic rows
    keep null weather cells. Traffic row count and order are unchanged.
    An observation is in the time buffer when ``abs(dt.total_seconds())``
    is at most ``time_buffer_s``, so a gap equal to the buffer matches.
    Each traffic row looks only at the observations in a bisected
    ``±time_buffer_s`` window of the instant-sorted weather rows.
    """
    lat_col = _require(traffic, params.traffic_lat, {CType.REAL, CType.INT}, "traffic")
    lon_col = _require(traffic, params.traffic_lon, {CType.REAL, CType.INT}, "traffic")
    instants = _traffic_instants(traffic, params)

    wlat = _require(weather, params.weather_lat, {CType.REAL, CType.INT}, "weather")
    wlon = _require(weather, params.weather_lon, {CType.REAL, CType.INT}, "weather")
    wdate = _require(weather, params.weather_date, {CType.DATE}, "weather")
    wtime = _require(weather, params.weather_time, {CType.TIME}, "weather")

    candidates: list[tuple[datetime, int, float, float]] = []
    for j in range(weather.row_count):
        lat, lon = wlat.cells[j], wlon.cells[j]
        d, t = wdate.cells[j], wtime.cells[j]
        if lat is None or lon is None or d is None or t is None:
            continue
        candidates.append((datetime.combine(d, t), j, float(lat), float(lon)))  # type: ignore[arg-type]
    candidates.sort()  # by (instant, j); j is unique, so coordinates never compare
    wx_instants = [c[0] for c in candidates]
    buf = timedelta(seconds=min(params.time_buffer_s, _DATETIME_SPAN_S)) + _WINDOW_SLACK

    # Few distinct coordinate quadruples recur across many pairs; only a
    # distance that was computed is kept, so a bad coordinate raises each time.
    dists: dict[tuple[Cell, Cell, float, float], float] = {}
    # The weather row each traffic row takes; unmatched rows take the null
    # row appended one past the last weather row.
    unmatched = weather.row_count
    picks: list[int] = []
    for i in range(traffic.row_count):
        lat, lon, instant = lat_col.cells[i], lon_col.cells[i], instants[i]
        if lat is None or lon is None or instant is None:
            picks.append(unmatched)
            continue
        lo = bisect_left(wx_instants, _shifted(instant, -buf))
        hi = bisect_right(wx_instants, _shifted(instant, buf))
        best: tuple[float, float, int] | None = None
        for wx_instant, j, wx_lat, wx_lon in candidates[lo:hi]:
            dt = abs((instant - wx_instant).total_seconds())
            if dt > params.time_buffer_s:
                continue
            key = (lat, lon, wx_lat, wx_lon)
            dist = dists.get(key)
            if dist is None:
                if len(dists) == _MAX_KEPT_DISTANCES:
                    dists.clear()
                dist = dists[key] = haversine_m(float(lat), float(lon), wx_lat, wx_lon)
            if dist > params.space_buffer_m:
                continue
            rank = (dist, dt, j)
            if best is None or rank < best:
                best = rank
        picks.append(best[2] if best is not None else unmatched)

    taken = set(traffic.column_names)
    out = list(traffic.columns)
    for col in weather.columns:
        name = f"wx_{col.name}"
        if name in taken:
            raise SchemaMismatch(f"traffic table already has a column '{name}'")
        cells = col.cells + (None,)  # already checked; the extra null is for unmatched rows
        out.append(Column._unchecked(name, col.ctype, tuple(map(cells.__getitem__, picks))))
    return Table(tuple(out))


def add_weather_condition(
    t: Table, wet_codes: frozenset[int] = DEFAULT_WET_CODES, col: str = "wx_W"
) -> Table:
    """Append a text ``weatherCond`` column: wet, dry, or null when the code is null."""
    codes = t.column(col)
    if codes.ctype is not CType.INT and any(v is not None for v in codes.cells):
        raise TypeMismatch(f"column '{col}' is {codes.ctype.value}, need int codes")
    cells = tuple(
        None if v is None else ("wet" if v in wet_codes else "dry")
        for v in codes.cells
    )
    return Table(t.columns + (Column._unchecked("weatherCond", CType.TEXT, cells),))
