"""Slow reference implementations kept as differential oracles.

Each function here is the straightforward form of a fast path in the
package, kept verbatim so tests can require exactly equal results. Unlike
:mod:`oracles`, these call package helpers (``haversine_m`` in particular)
so that floating-point results are bit-identical, not merely close.
"""

from __future__ import annotations

from datetime import datetime

from wrangle import spacetime
from wrangle.errors import SchemaMismatch
from wrangle.spacetime import SpaceTimeParams
from wrangle.table import Cell, Column, CType, Table


def nested_loop_time_space_join(traffic: Table, weather: Table, p: SpaceTimeParams) -> Table:
    """``spacetime.time_space_join`` as a scan of every weather row per traffic row."""
    lat_col = spacetime._require(traffic, p.traffic_lat, {CType.REAL, CType.INT}, "traffic")
    lon_col = spacetime._require(traffic, p.traffic_lon, {CType.REAL, CType.INT}, "traffic")
    instants = spacetime._traffic_instants(traffic, p)

    wlat = spacetime._require(weather, p.weather_lat, {CType.REAL, CType.INT}, "weather")
    wlon = spacetime._require(weather, p.weather_lon, {CType.REAL, CType.INT}, "weather")
    wdate = spacetime._require(weather, p.weather_date, {CType.DATE}, "weather")
    wtime = spacetime._require(weather, p.weather_time, {CType.TIME}, "weather")

    candidates: list[tuple[int, float, float, datetime]] = []
    for j in range(weather.row_count):
        lat, lon = wlat.cells[j], wlon.cells[j]
        d, t = wdate.cells[j], wtime.cells[j]
        if lat is None or lon is None or d is None or t is None:
            continue
        candidates.append((j, float(lat), float(lon), datetime.combine(d, t)))  # type: ignore[arg-type]

    matches: list[int | None] = []
    for i in range(traffic.row_count):
        lat, lon, instant = lat_col.cells[i], lon_col.cells[i], instants[i]
        if lat is None or lon is None or instant is None:
            matches.append(None)
            continue
        best: tuple[float, float, int] | None = None
        for j, wx_lat, wx_lon, wx_instant in candidates:
            dt = abs((instant - wx_instant).total_seconds())
            if dt > p.time_buffer_s:
                continue
            dist = spacetime.haversine_m(float(lat), float(lon), wx_lat, wx_lon)
            if dist > p.space_buffer_m:
                continue
            rank = (dist, dt, j)
            if best is None or rank < best:
                best = rank
        matches.append(best[2] if best is not None else None)

    taken = set(traffic.column_names)
    out = list(traffic.columns)
    for col in weather.columns:
        name = f"wx_{col.name}"
        if name in taken:
            raise SchemaMismatch(f"traffic table already has a column '{name}'")
        cells: list[Cell] = [
            col.cells[j] if j is not None else None for j in matches
        ]
        out.append(Column(name, col.ctype, tuple(cells)))
    return Table(tuple(out))


def hand_rolled_take(t: Table, indices: list[int]) -> Table:
    """``Table.take`` as the per-column row copy, every cell checked again."""
    return Table(
        tuple(
            Column(c.name, c.ctype, tuple(c.cells[i] for i in indices)) for c in t.columns
        )
    )
