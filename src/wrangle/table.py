"""In-memory tabular data model and the traffic-export CSV dialect.

A :class:`Table` is an ordered collection of equal-length, individually
typed columns. Cells are plain Python values:

    ==========  ======================  ===========================
    kind        Python value            CSV text form
    ==========  ======================  ===========================
    null        ``None``                empty field
    text        ``str``                 as-is, quoted when needed
    int         ``int`` (64-bit range)  decimal digits
    real        ``float``               ``repr`` (shortest round-trip)
    date        ``datetime.date``       ``YYYY-MM-DD``
    time        ``datetime.time``       ``HH:MM:SS`` or ``HH:MM:SS.ff``
    timestamp   ``datetime.datetime``   ``YYYY-MM-DD HH:MM:SS[.ff]``
    bool        ``bool``                ``true`` / ``false``
    ==========  ======================  ===========================

Tables are immutable after construction and safe to share between threads.

The CSV dialect follows the inductive-loop exports this package targets:
comma delimiter, double-quote quoting with ``""`` escapes, a mandatory
header row, apostrophe-prefixed identifiers kept verbatim as text, and a
tolerated trailing empty field at the end of data rows. A bare empty field
is null; a quoted empty field (``""``) is the empty string. Times carry
fractional seconds to two decimals and reprint exactly as parsed
(``2018-02-01 00:00:01.18`` survives a round trip byte-for-byte). A leading
UTF-8 byte order mark, as some spreadsheet exports write, is dropped.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from datetime import date, datetime, time
from typing import Iterable, Sequence

from .errors import EmptyInput, MalformedCsv, SchemaMismatch, TypeMismatch, UnknownColumn

Cell = None | str | int | float | date | time | datetime | bool

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_INT_RE = re.compile(r"[+-]?\d+\Z")
_REAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})\Z")
_TIME_RE = re.compile(r"(\d{1,2}):(\d{2})(?::(\d{2})(?:\.(\d{1,2}))?)?\Z")
_TIMESTAMP_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2}) (\d{1,2}):(\d{2}):(\d{2})(?:\.(\d{1,2}))?\Z"
)


class CType(enum.Enum):
    TEXT = "text"
    INT = "int"
    REAL = "real"
    DATE = "date"
    TIME = "time"
    TIMESTAMP = "timestamp"
    BOOL = "bool"


#: Kinds usable in arithmetic and in mean/sum aggregation.
NUMERIC_KINDS = frozenset({CType.INT, CType.REAL})

#: Kinds with a total order, usable in comparisons and min/max.
ORDERED_KINDS = frozenset(
    {CType.TEXT, CType.INT, CType.REAL, CType.DATE, CType.TIME, CType.TIMESTAMP}
)


def cell_matches(value: Cell, ctype: CType) -> bool:
    """True if ``value`` is null or belongs to ``ctype``.

    bool is a subclass of int and datetime of date, so dispatch order matters.
    """
    if value is None:
        return True
    if ctype is CType.BOOL:
        return isinstance(value, bool)
    if ctype is CType.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if ctype is CType.REAL:
        return isinstance(value, float)
    if ctype is CType.TEXT:
        return isinstance(value, str)
    if ctype is CType.TIMESTAMP:
        return isinstance(value, datetime)
    if ctype is CType.DATE:
        return isinstance(value, date) and not isinstance(value, datetime)
    if ctype is CType.TIME:
        return isinstance(value, time)
    raise AssertionError(ctype)


def kinds_comparable(a: CType, b: CType) -> bool:
    """Whether two kinds may meet in a comparison (ints and reals mix)."""
    if a == b:
        return True
    return a in NUMERIC_KINDS and b in NUMERIC_KINDS


def kind_of_value(value: Cell) -> CType:
    """The kind a single non-null Python value belongs to."""
    if isinstance(value, bool):
        return CType.BOOL
    if isinstance(value, int):
        return CType.INT
    if isinstance(value, float):
        return CType.REAL
    if isinstance(value, str):
        return CType.TEXT
    if isinstance(value, datetime):
        return CType.TIMESTAMP
    if isinstance(value, date):
        return CType.DATE
    if isinstance(value, time):
        return CType.TIME
    raise TypeMismatch(f"unsupported cell value {value!r}")


@dataclass(frozen=True)
class Column:
    name: str
    ctype: CType
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        for i, v in enumerate(self.cells):
            if not cell_matches(v, self.ctype):
                raise TypeMismatch(
                    f"column '{self.name}' is {self.ctype.value} but cell {i} is {v!r}"
                )


@dataclass(frozen=True)
class Table:
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaMismatch(f"duplicate column name '{col.name}'")
            seen.add(col.name)
        if self.columns:
            n = len(self.columns[0].cells)
            for col in self.columns:
                if len(col.cells) != n:
                    raise SchemaMismatch(
                        f"column '{col.name}' has {len(col.cells)} cells, expected {n}"
                    )

    @property
    def row_count(self) -> int:
        return len(self.columns[0].cells) if self.columns else 0

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise UnknownColumn(
            f"no column '{name}' (have: {', '.join(self.column_names) or 'none'})"
        )

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def row(self, i: int) -> tuple[Cell, ...]:
        return tuple(col.cells[i] for col in self.columns)

    def rows(self) -> Iterable[tuple[Cell, ...]]:
        for i in range(self.row_count):
            yield self.row(i)


def table_from_rows(
    names: Sequence[str],
    ctypes: Sequence[CType],
    rows: Iterable[Sequence[Cell]],
) -> Table:
    """Build a table column-wise from row data."""
    if len(names) != len(ctypes):
        raise SchemaMismatch("names and ctypes differ in length")
    cols: list[list[Cell]] = [[] for _ in names]
    for r, row in enumerate(rows):
        if len(row) != len(names):
            raise SchemaMismatch(f"row {r} has {len(row)} cells, expected {len(names)}")
        for i, v in enumerate(row):
            cols[i].append(v)
    return Table(
        tuple(
            Column(name, ctype, tuple(cells))
            for name, ctype, cells in zip(names, ctypes, cols)
        )
    )


# ---------------------------------------------------------------------------
# Cell text forms
# ---------------------------------------------------------------------------

def format_time(t: time) -> str:
    """``HH:MM:SS``, plus two fractional digits when sub-second."""
    base = f"{t.hour:02d}:{t.minute:02d}:{t.second:02d}"
    if t.microsecond:
        return f"{base}.{t.microsecond // 10000:02d}"
    return base


def format_cell(value: Cell) -> str:
    """Canonical text form of a cell; null is the empty string."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        return f"{value.date().isoformat()} {format_time(value.time())}"
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, time):
        return format_time(value)
    raise TypeMismatch(f"unsupported cell value {value!r}")


def parse_int_text(text: str) -> int | None:
    if not _INT_RE.match(text):
        return None
    v = int(text)
    if not _INT64_MIN <= v <= _INT64_MAX:
        return None
    return v


def parse_real_text(text: str) -> float | None:
    if not _REAL_RE.match(text):
        return None
    return float(text)


def parse_date_text(text: str) -> date | None:
    m = _DATE_RE.match(text)
    if not m:
        return None
    try:
        return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None


def _time_from_parts(hh: str, mm: str, ss: str | None, frac: str | None) -> time | None:
    hour, minute = int(hh), int(mm)
    second = int(ss) if ss else 0
    micros = int(frac.ljust(2, "0")) * 10000 if frac else 0
    try:
        return time(hour, minute, second, micros)
    except ValueError:
        return None


def parse_time_text(text: str) -> time | None:
    m = _TIME_RE.match(text)
    if not m:
        return None
    return _time_from_parts(m.group(1), m.group(2), m.group(3), m.group(4))


def parse_timestamp_text(text: str) -> datetime | None:
    m = _TIMESTAMP_RE.match(text)
    if not m:
        return None
    d = parse_date_text("-".join(m.group(1, 2, 3)))
    t = _time_from_parts(m.group(4), m.group(5), m.group(6), m.group(7))
    if d is None or t is None:
        return None
    return datetime.combine(d, t)


def parse_bool_text(text: str) -> bool | None:
    # Strictly the literals true/false; "0"/"1" never promote to bool.
    if text == "true":
        return True
    if text == "false":
        return False
    return None


_PARSERS = (
    (CType.INT, parse_int_text),
    (CType.REAL, parse_real_text),
    (CType.TIMESTAMP, parse_timestamp_text),
    (CType.DATE, parse_date_text),
    (CType.TIME, parse_time_text),
    (CType.BOOL, parse_bool_text),
)


# ---------------------------------------------------------------------------
# CSV codec
# ---------------------------------------------------------------------------

# Raw fields distinguish bare-empty (null) from quoted-empty (empty text).
_NULL_FIELD = object()


def _split_records(text: str, on_error_line: int = 1) -> list[tuple[int, list[object]]]:
    """Char-by-char record splitter.

    Returns (line_number, fields) pairs where a field is either a str or the
    _NULL_FIELD marker (a bare empty field). Tolerates CRLF and lone CR as
    terminators; newlines inside quotes are content.
    """
    records: list[tuple[int, list[object]]] = []
    fields: list[object] = []
    buf: list[str] = []
    quoted = False      # current field was opened with a quote
    in_quotes = False   # currently inside the quoted section
    field_open = False  # some char consumed for the current field
    line = on_error_line
    record_line = line
    i, n = 0, len(text)

    def end_field() -> None:
        nonlocal buf, quoted, field_open
        if not field_open:
            fields.append(_NULL_FIELD)
        elif quoted or buf:
            fields.append("".join(buf))
        else:
            fields.append(_NULL_FIELD)
        buf = []
        quoted = False
        field_open = False

    def end_record() -> None:
        nonlocal fields, record_line
        end_field()
        records.append((record_line, fields))
        fields = []

    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < n and text[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
                i += 1
                continue
            if ch == "\n":
                line += 1
            buf.append(ch)
            i += 1
            continue
        if ch == '"':
            if field_open and (buf or quoted):
                raise MalformedCsv("quote opened mid-field", line)
            quoted = True
            in_quotes = True
            field_open = True
            i += 1
            continue
        if ch == ",":
            end_field()
            i += 1
            continue
        if ch == "\r":
            end_record()
            line += 1
            i += 2 if i + 1 < n and text[i + 1] == "\n" else 1
            record_line = line
            continue
        if ch == "\n":
            end_record()
            line += 1
            i += 1
            record_line = line
            continue
        if quoted:
            raise MalformedCsv("content after closing quote", line)
        buf.append(ch)
        field_open = True
        i += 1

    if in_quotes:
        raise MalformedCsv("unclosed quote", record_line)
    if field_open or fields:
        end_record()
    return records


def _strip_trailing_nulls(fields: list[object]) -> list[object]:
    end = len(fields)
    while end > 0 and fields[end - 1] is _NULL_FIELD:
        end -= 1
    return fields[:end]


def parse_csv(data: bytes) -> Table:
    """Parse CSV bytes into a table of text columns (no type inference).

    A leading UTF-8 byte order mark is dropped. The first row is the
    header. Data rows shorter than the header are padded with nulls; rows
    longer only by trailing empty fields are truncated; any other
    raggedness raises :class:`MalformedCsv`.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"not valid UTF-8: {exc}") from None
    records = _split_records(text)
    if not records:
        raise EmptyInput("no header row")

    header_line, raw_header = records[0]
    raw_header = _strip_trailing_nulls(raw_header)
    names: list[str] = []
    for f in raw_header:
        if f is _NULL_FIELD or f == "":
            raise MalformedCsv("empty header name", header_line)
        names.append(f)  # type: ignore[arg-type]
    if not names:
        raise EmptyInput("header row has no names")
    if len(set(names)) != len(names):
        raise MalformedCsv("duplicate header names", header_line)

    width = len(names)
    cols: list[list[Cell]] = [[] for _ in range(width)]
    for line, fields in records[1:]:
        if len(fields) > width:
            extra = fields[width:]
            if any(f is not _NULL_FIELD for f in extra):
                raise MalformedCsv(
                    f"row has {len(fields)} fields, header has {width}", line
                )
            fields = fields[:width]
        for i in range(width):
            if i >= len(fields) or fields[i] is _NULL_FIELD:
                cols[i].append(None)
            else:
                cols[i].append(fields[i])  # type: ignore[arg-type]
    return Table(
        tuple(
            Column(name, CType.TEXT, tuple(cells)) for name, cells in zip(names, cols)
        )
    )


def _write_field(value: Cell) -> str:
    if value is None:
        return ""
    text = format_cell(value)
    if isinstance(value, str) and text == "":
        return '""'
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(t: Table) -> bytes:
    """Serialize a table: header then rows, LF line endings, UTF-8."""
    lines = [",".join(_write_field(name) for name in t.column_names)]
    for row in t.rows():
        lines.append(",".join(_write_field(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def infer_column_types(t: Table) -> Table:
    """Promote text columns to the narrowest kind matching every non-null cell.

    Kinds are tried in order int, real, timestamp, date, time, bool; a column
    with any non-conforming cell stays text, as does an all-null column.
    Already-typed columns pass through, so the operation is idempotent and
    usable mid-pipeline.
    """
    new_cols = []
    for col in t.columns:
        if col.ctype is not CType.TEXT:
            new_cols.append(col)
            continue
        values = [v for v in col.cells if v is not None]
        if not values:
            new_cols.append(col)
            continue
        for ctype, parser in _PARSERS:
            parsed = [parser(v) for v in values]  # type: ignore[arg-type]
            if all(p is not None for p in parsed):
                it = iter(parsed)
                cells = tuple(None if v is None else next(it) for v in col.cells)
                new_cols.append(Column(col.name, ctype, cells))
                break
        else:
            new_cols.append(col)
    return Table(tuple(new_cols))
