"""Traffic-domain operators: identifier cleaning, date/time splitting and
weekday filtering of loop-detector exports."""

from __future__ import annotations

from datetime import date
from itertools import compress

from .errors import SchemaMismatch, TypeMismatch
from .table import Column, CType, Table

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


def filter_weekdays(t: Table, col: str, days: set[str]) -> Table:
    """Keep rows whose date falls on one of the named weekdays."""
    target = t.column(col)
    if target.ctype not in (CType.DATE, CType.TIMESTAMP):
        raise TypeMismatch(f"column '{col}' is {target.ctype.value}, need date or timestamp")
    wanted = {WEEKDAY_NAMES.index(day) for day in days}
    cells = target.cells
    # date.weekday reads a datetime's date too, so one call serves both kinds.
    if None in cells:
        keep = [i for i, v in enumerate(cells) if v is not None and date.weekday(v) in wanted]
    else:
        keep = list(compress(range(len(cells)), map(wanted.__contains__, map(date.weekday, cells))))
    return t.take(keep)
