"""Traffic-domain operators: identifier cleaning, date/time splitting,
weekday filtering, and journey-time arithmetic.

Speeds are miles per hour, link lengths meters, journey times seconds;
the single conversion constant 1 mph = 0.44704 m/s lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from itertools import compress

from .errors import EmptyInput, NonPositiveSpeed, SchemaMismatch, TypeMismatch
from .relops import group_summarise
from .table import Cell, Column, CType, Table, format_cell
from .expr import AggSpec

MPH_TO_MPS = 0.44704

WEEKDAY_NAMES = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


def weekday_name(d: date) -> str:
    """Civil weekday of a proleptic Gregorian date."""
    return WEEKDAY_NAMES[d.weekday()]


def clean_site_id(t: Table, col: str) -> Table:
    """Strip leading apostrophes, then leading zeroes; an all-zero id becomes "0"."""
    target = t.column(col)
    if target.ctype is not CType.TEXT:
        raise TypeMismatch(f"column '{col}' is {target.ctype.value}, need text")

    # Exports repeat a few ids over many rows: clean each distinct id once.
    # Any leading run of apostrophes and zeroes goes; the combined strip
    # (rather than apostrophes-then-zeroes) keeps the operation idempotent.
    lookup = {
        v: None if v is None else (v.lstrip("'0") or "0")  # type: ignore[union-attr]
        for v in set(target.cells)
    }
    cells = tuple(map(lookup.__getitem__, target.cells))
    new_col = Column._unchecked(col, CType.TEXT, cells)
    return Table(tuple(new_col if c.name == col else c for c in t.columns))


def separate_datetime(t: Table, col: str) -> Table:
    """Replace a timestamp column, in place, by ``Date`` and ``Hours`` columns."""
    target = t.column(col)
    if target.ctype is not CType.TIMESTAMP:
        raise TypeMismatch(f"column '{col}' is {target.ctype.value}, need timestamp")
    for name in ("Date", "Hours"):
        if name != col and t.has_column(name):
            raise SchemaMismatch(f"table already has a column '{name}'")
    dates = tuple(None if v is None else v.date() for v in target.cells)
    times = tuple(None if v is None else v.time() for v in target.cells)
    out: list[Column] = []
    for c in t.columns:
        if c.name == col:
            out.append(Column._unchecked("Date", CType.DATE, dates))
            out.append(Column._unchecked("Hours", CType.TIME, times))
        else:
            out.append(c)
    return Table(tuple(out))


def filter_weekdays(t: Table, date_col: str, days: set[str]) -> Table:
    """Keep rows whose date falls on one of the named weekdays."""
    if not days:
        raise ValueError("days must not be empty")
    bad = days - set(WEEKDAY_NAMES)
    if bad:
        raise ValueError(f"unknown weekday names: {sorted(bad)}")
    target = t.column(date_col)
    if target.ctype not in (CType.DATE, CType.TIMESTAMP):
        raise TypeMismatch(
            f"column '{date_col}' is {target.ctype.value}, need date or timestamp"
        )
    wanted = {WEEKDAY_NAMES.index(day) for day in days}
    cells = target.cells
    # date.weekday reads a datetime's date too, so one call serves both kinds.
    if None in cells:
        keep = [i for i, v in enumerate(cells) if v is not None and date.weekday(v) in wanted]
    else:
        keep = list(compress(range(len(cells)), map(wanted.__contains__, map(date.weekday, cells))))
    return t.take(keep)


@dataclass(frozen=True)
class LinkMeasure:
    site_id: str
    mean_speed: float   # mph
    link_length: float  # meters


def extract_speed_and_length(
    t: Table,
    site_col: str = "Site.ID",
    length_col: str = "LinkLength",
    speed_col: str = "mean_speed",
) -> list[LinkMeasure]:
    """One measure per row of a per-site summary table."""
    sites = t.column(site_col)
    lengths = t.column(length_col)
    speeds = t.column(speed_col)
    if lengths.ctype not in (CType.INT, CType.REAL):
        raise TypeMismatch(f"column '{length_col}' is {lengths.ctype.value}, need numeric")
    if speeds.ctype not in (CType.INT, CType.REAL):
        raise TypeMismatch(f"column '{speed_col}' is {speeds.ctype.value}, need numeric")
    measures = []
    for i in range(t.row_count):
        speed = speeds.cells[i]
        if speed is None or speed <= 0:  # type: ignore[operator]
            raise NonPositiveSpeed(f"row {i}: mean speed {speed!r} must be > 0")
        length = lengths.cells[i]
        if length is None or length < 0:  # type: ignore[operator]
            raise TypeMismatch(f"row {i}: link length {length!r} must be >= 0")
        measures.append(
            LinkMeasure(
                site_id=format_cell(sites.cells[i]),
                mean_speed=float(speed),  # type: ignore[arg-type]
                link_length=float(length),  # type: ignore[arg-type]
            )
        )
    return measures


def journey_time_s(measures: list[LinkMeasure]) -> float:
    """Total traversal time: sum of link_length / mean_speed across links."""
    if not measures:
        raise EmptyInput("no link measures")
    total = 0.0
    for m in measures:
        if m.mean_speed <= 0:
            raise NonPositiveSpeed(f"site {m.site_id}: speed {m.mean_speed} must be > 0")
        total += m.link_length / (m.mean_speed * MPH_TO_MPS)
    return total


def average_speed_by_condition(t: Table, speed_col: str) -> Table:
    """Mean speed per weather condition; rows with a null condition are excluded."""
    cond = t.column("weatherCond")
    speeds = t.column(speed_col)
    if speeds.ctype not in (CType.INT, CType.REAL):
        raise TypeMismatch(f"column '{speed_col}' is {speeds.ctype.value}, need numeric")
    keep = [i for i, v in enumerate(cond.cells) if v is not None]
    return group_summarise(
        t.take(keep), ["weatherCond"], [AggSpec("avg_speed", "mean", speed_col)]
    )
