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

The reader splits, checks and types whole columns at once. Quote counts,
character sets and anchored regex matches over a column's newline-joined
text prove its quoting and its kind, and a proved column is converted in
bulk. What that cannot decide falls back to a field tokenizer, one regex
match per field, and to per-cell parsers (see :func:`parse_csv` and
:func:`infer_column_types`). Given the set of columns a caller reads, the
reader builds only those, so only those are typed; it still checks every
line's width and every column's quoting, so a file fails as it would whole.
The writer formats a block of rows at a time, each column's slice whole by
its kind, and writes the same bytes as formatting cell by cell (see
:func:`write_csv`). Times and timestamps are assembled from a table of the
two-digit strings ``"00"`` to ``"99"``, with each distinct day of a
timestamp slice formatted once, and a date slice formats each distinct date
once.
A :class:`Column` checks its cells by their set of exact types, and walks
them one by one only when that set holds a type outside the kind's.
The slow paths these replaced are kept in ``tests/slowpaths.py`` as
differential oracles.
"""

from __future__ import annotations

import enum
import math
import re
from datetime import date, datetime, time
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import EmptyInput, MalformedCsv, SchemaMismatch, TypeMismatch, UnknownColumn
from .record import record

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


#: Each kind's Python type. bool is a subclass of int and datetime of date,
#: so each subclass comes before its base: the first ``isinstance`` wins.
_PY_TYPES = (
    (CType.BOOL, bool),
    (CType.INT, int),
    (CType.REAL, float),
    (CType.TEXT, str),
    (CType.TIMESTAMP, datetime),
    (CType.DATE, date),
    (CType.TIME, time),
)


def _kind_or_none(value: object) -> CType | None:
    """The kind ``value`` belongs to, or None for null and unsupported types."""
    for kind, py_type in _PY_TYPES:
        if isinstance(value, py_type):
            return kind
    return None


#: Kinds whose values may carry a UTC offset. The CSV dialect writes none,
#: so a column of these kinds holds naive values only.
_CLOCK_KINDS = frozenset({CType.TIME, CType.TIMESTAMP})


def cell_matches(value: Cell, ctype: CType) -> bool:
    """True if ``value`` is null or belongs to ``ctype`` (naive, if a time or timestamp)."""
    if value is None:
        return True
    return _kind_or_none(value) is ctype and (
        ctype not in _CLOCK_KINDS or value.tzinfo is None  # type: ignore[union-attr]
    )


def kinds_comparable(a: CType, b: CType) -> bool:
    """Whether two kinds may meet in a comparison (ints and reals mix)."""
    if a == b:
        return True
    return a in NUMERIC_KINDS and b in NUMERIC_KINDS


def kind_of_value(value: Cell) -> CType:
    """The kind a single non-null Python value belongs to."""
    kind = _kind_or_none(value)
    if kind is None:
        raise TypeMismatch(f"unsupported cell value {value!r}")
    return kind


#: Each kind's exact cell types, null included: the check's fast path (see Column).
_EXACT_TYPES = {kind: frozenset({py_type, type(None)}) for kind, py_type in _PY_TYPES}


@record
class Column:
    """A named, typed, immutable column of cells.

    Construction checks every cell against ``ctype`` (see
    :func:`cell_matches`) and raises :class:`TypeMismatch` naming the first
    bad cell. A column whose cells' exact types all belong to the kind (or
    are ``NoneType``) passes in one C-level pass over ``map(type, cells)``,
    and for a time or timestamp one more pass that finds no ``tzinfo``;
    any other type, a subclass such as an ``IntEnum``, a wrong kind or an
    aware value, sends the column cell by cell through :func:`cell_matches`.
    """

    name: str
    ctype: CType
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if _EXACT_TYPES[self.ctype].issuperset(map(type, self.cells)) and (
            self.ctype not in _CLOCK_KINDS
            or all(v is None or v.tzinfo is None for v in self.cells)  # type: ignore[union-attr]
        ):
            return
        for i, v in enumerate(self.cells):
            if not cell_matches(v, self.ctype):
                raise TypeMismatch(
                    f"column '{self.name}' is {self.ctype.value} but cell {i} is {v!r}"
                )

    @classmethod
    def _unchecked(cls, name: str, ctype: CType, cells: tuple[Cell, ...]) -> "Column":
        """A column of cells already checked against ``ctype``: skips the check."""
        col = object.__new__(cls)
        col.__dict__.update(name=name, ctype=ctype, cells=cells)
        return col


@record
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

    def take(self, indices: Sequence[int]) -> "Table":
        """The rows at ``indices`` in that order, repeats allowed; no cell is checked again.

        Each column is built by one ``itemgetter`` over all the indices, which
        needs two or more of them to return a tuple.
        """
        if len(indices) > 1:
            get = itemgetter(*indices)
        else:
            get = lambda cells: tuple(map(cells.__getitem__, indices))
        return Table(
            tuple(Column._unchecked(c.name, c.ctype, get(c.cells)) for c in self.columns)
        )


# ---------------------------------------------------------------------------
# Cell text forms
# ---------------------------------------------------------------------------

#: ``"00"`` to ``"99"``: the two-digit fields of the time text.
_TWO_DIGITS = [f"{i:02d}" for i in range(100)]


def format_time(t: time | datetime) -> str:
    """``HH:MM:SS``, plus two fractional digits when sub-second.

    The fraction is truncated to hundredths: 1 to 9,999 microseconds print
    ``.00``. Of a datetime, the text of its time. The writer formats times
    and timestamps with this too.
    """
    two = _TWO_DIGITS
    if t.microsecond:
        return f"{two[t.hour]}:{two[t.minute]}:{two[t.second]}.{two[t.microsecond // 10000]}"
    return f"{two[t.hour]}:{two[t.minute]}:{two[t.second]}"


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
    try:
        v = int(text)
    except ValueError:
        # More digits than int() converts (4,300 by default). Decimal has no
        # such limit; only zero padding can leave the value in range.
        from decimal import Decimal

        v = Decimal(text)
    if not _INT64_MIN <= v <= _INT64_MAX:
        return None
    return int(v)


def parse_real_text(text: str) -> float | None:
    """A finite real; text that overflows to an infinity is not one."""
    if not _REAL_RE.match(text):
        return None
    v = float(text)
    return None if math.isinf(v) else v


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


# ---------------------------------------------------------------------------
# CSV codec
# ---------------------------------------------------------------------------

# One field and what ends it: a comma, CRLF, LF, a lone CR or the end of the
# text. A quoted field closes at a quote that no other quote follows; a bare
# field holds no quote. These patterns compile on first use, like the column
# searches below; ``_CLOSED_QUOTE`` only on the error path.
_QUOTED_BODY = r'[^"]*(?:""[^"]*)*'
_FIELD = rf'(?:"({_QUOTED_BODY})"|([^",\r\n]*))(,|\r\n?|\n|\Z)'
_CLOSED_QUOTE = rf'"{_QUOTED_BODY}"(?!")'


def _split_records(text: str) -> list[tuple[int, list[str | None]]]:
    """Field tokenizer: (line_number, fields) per record.

    A bare empty field is None and a quoted one a str, ``""`` unescaped.
    Tolerates CRLF and lone CR as terminators; newlines inside quotes are
    content.
    """
    match = re.compile(_FIELD).match
    records: list[tuple[int, list[str | None]]] = []
    fields: list[str | None] = []
    line = record_line = 1
    pos, n = 0, len(text)
    while pos < n or fields:
        m = match(text, pos)
        if m is None:
            raise _bad_field(text, pos, line, record_line)
        quoted, bare, end = m.groups()
        if quoted is None:
            fields.append(bare or None)
        else:
            fields.append(quoted.replace('""', '"'))
            line += quoted.count("\n")
        pos = m.end()
        if end != ",":
            records.append((record_line, fields))
            fields = []
            line += 1
            record_line = line
    return records


def _bad_field(text: str, pos: int, line: int, record_line: int) -> MalformedCsv:
    """The error of the field at ``pos``, which does not split, on line ``line``."""
    if text[pos] != '"':
        return MalformedCsv("quote opened mid-field", line)
    closed = re.compile(_CLOSED_QUOTE).match(text, pos)
    if closed is None:
        return MalformedCsv("unclosed quote", record_line)
    return MalformedCsv("content after closing quote", line + closed.group().count("\n"))


def _strip_trailing_nulls(fields: list[str | None]) -> list[str | None]:
    end = len(fields)
    while end > 0 and fields[end - 1] is None:
        end -= 1
    return fields[:end]


def parse_csv(data: bytes, columns: frozenset[str] | None = None) -> Table:
    """Parse CSV bytes into a table of text columns (no type inference).

    A leading UTF-8 byte order mark is dropped. The first row is the
    header. Data rows shorter than the header are padded with nulls; rows
    longer only by trailing empty fields are truncated; any other
    raggedness raises :class:`MalformedCsv`.

    With ``columns``, the table holds only the header's columns named in
    it, in header order, when the header has every one of them; else it
    holds all columns, so that the reader of a missing name reports it
    against the whole header. The file is checked as a whole either way:
    a read of some columns raises what a read of all would.

    Text with LF or CRLF line ends, no comma or newline inside quotes, and
    rows that all split into the header's width (or one more, when every
    row ends in a bare empty field) takes the column path,
    :func:`_parse_columns`. Anything else (a lone CR, a quoted comma or
    newline, a stray quote, ragged rows, a bad header) goes through the
    field tokenizer :func:`_split_records`, the only source of
    :class:`MalformedCsv` messages and line numbers.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]  # line ends: LF, CRLF or a lone CR
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MalformedCsv(f"not valid UTF-8: {exc}", line) from None
    table = _parse_columns(text, columns)
    return table if table is not None else _parse_records(text, columns)


def parse_csv_range(data: bytes, columns: frozenset[str] | None = None) -> Table | None:
    """A header line and a run of rows read by :func:`parse_csv`'s column path, or None
    where it cannot decide them (a quoted comma or newline, whose field a cut may split,
    any other case for the field tokenizer, undecodable bytes)."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    return _parse_columns(text, columns)


def _kept_names(names: Sequence[str], columns: frozenset[str] | None) -> frozenset[str]:
    """The header ``names`` a read of ``columns`` keeps: all, unless the header has each."""
    return frozenset(names) if columns is None or not columns.issubset(names) else columns


# The rows are split and transposed per block of about this many characters
# (some 2,500 traffic rows), so that only one block's pieces are alive at a time.
_BLOCK_CHARS = 1 << 18

# Finds the first line of a newline-joined column that is neither free of
# quotes nor one whole quoted field with ``""`` escapes. This and the other
# column searches compile on first use (``re`` caches them), not at import.
_BAD_QUOTING = r'^(?!"[^"\n]*(?:""[^"\n]*)*"$|[^"\n]*$)'


def _parse_columns(text: str, columns: frozenset[str] | None = None) -> Table | None:
    """The column path of :func:`parse_csv`; None where it cannot decide.

    Splitting each line on every comma gives the field tokenizer's fields
    exactly when each piece is either free of quotes or one whole quoted
    field, which :func:`_unquote_column` checks a column at a time. The
    columns ``columns`` does not keep are checked the same way where they
    may hold a quote (see :func:`_split_block`), and their cells dropped.
    """
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    stop = len(text) - 1 if text.endswith("\n") else len(text)
    header_end = text.find("\n", 0, stop)
    try:
        header = _split_records(text[: stop if header_end < 0 else header_end])
    except MalformedCsv:
        return None
    names = _strip_trailing_nulls(header[0][1]) if header else []
    if not names or not all(names) or len(set(names)) != len(names):
        return None

    kept = _kept_names(names, columns)
    # None stands for a dropped column.
    cols: list[list[Cell] | None] = [[] if name in kept else None for name in names]
    start, end = header_end + 1, header_end
    while 0 <= end < stop:
        end = text.find("\n", start + _BLOCK_CHARS, stop)
        if end < 0:
            end = stop
        if not _split_block(text[start:end], cols):
            return None
        start = end + 1
    return Table(
        tuple(
            Column._unchecked(name, CType.TEXT, tuple(cells))
            for name, cells in zip(names, cols)
            if cells is not None
        )
    )


def _split_block(block: str, cols: list[list[Cell] | None]) -> bool:
    """Append the cells of the lines in ``block`` to ``cols``.

    Every line must split into ``len(cols)`` pieces, or into one more when
    each line's last piece is bare empty; else False, ``cols`` part-filled.
    A column whose entry is None is dropped. It is checked, its cells going
    to a throwaway list, only if its piece on the block's first line holds a
    quote, or if the block holds more quotes than the checked columns: else
    it holds none, and each of its pieces is a bare field.
    """
    lines = block.count("\n") + 1
    # A newline becomes a piece of its own, found every stride pieces.
    pieces = block.replace("\n", ",\n,").split(",")
    stride, ragged = divmod(len(pieces) + 1, lines)
    if ragged or pieces[stride - 1 :: stride].count("\n") != lines - 1:
        return False
    width = len(cols)
    if stride == width + 2:
        if any(pieces[width::stride]):
            return False
    elif stride != width + 1:
        return False
    quotes, unchecked = 0, []
    for i, cells in enumerate(cols):
        if cells is None and '"' not in pieces[i]:
            unchecked.append(i)
            continue
        found = _unquote_column(pieces[i::stride], [] if cells is None else cells)
        if found is None:
            return False
        quotes += found
    return quotes == block.count('"') or all(
        _unquote_column(pieces[i::stride], []) is not None for i in unchecked
    )


def _unquote_column(raw: list[str], out: list[Cell]) -> int | None:
    """Append the cells of one column's comma-split pieces to ``out``.

    A bare empty piece is null and ``""`` is the empty string. The count of
    quotes in the pieces; None, with ``out`` left part-filled, when a piece
    is not a whole field.
    """
    joined = "\n".join(raw)
    if '"' not in joined:
        out.extend(raw if "" not in raw else [piece or None for piece in raw])
        return 0
    n = len(raw)
    all_quoted = joined.count('\n"') + (joined[0] == '"') == n
    quotes = joined.count('"')
    if (
        all_quoted
        and quotes == 2 * n
        and joined.count('"\n') + (joined[-1] == '"') == n
        and not _lone_quote(joined)
    ):
        # Every piece opens and closes with a quote, none is a lone quote doing
        # both, and two quotes each leave none inside: whole fields, no escapes.
        out.extend(joined[1:-1].split('"\n"'))
        return quotes
    if re.search(_BAD_QUOTING, joined, re.M):
        return None
    if all_quoted:
        # Every piece is quoted: strip the quotes around all of them at once.
        contents = joined[1:-1].split('"\n"')
        if quotes > 2 * n:
            contents = [c.replace('""', '"') for c in contents]
        out.extend(contents)
    else:
        out.extend(
            [
                piece[1:-1].replace('""', '"') if piece[:1] == '"' else piece or None
                for piece in raw
            ]
        )
    return quotes


def _lone_quote(joined: str) -> bool:
    """Whether a piece of a newline-joined column is a lone ``"``."""
    return (
        joined == '"'
        or joined.startswith('"\n')
        or joined.endswith('\n"')
        or '\n"\n' in joined
    )


def _parse_records(text: str, columns: frozenset[str] | None = None) -> Table:
    """The field-tokenizer path of :func:`parse_csv`, for any text.

    Every column is read; the columns ``columns`` does not keep are dropped
    at the end.
    """
    records = _split_records(text)
    if not records:
        raise EmptyInput("no header row")

    header_line, raw_header = records[0]
    names = _strip_trailing_nulls(raw_header)
    if not all(names):
        raise MalformedCsv("empty header name", header_line)
    if not names:
        raise EmptyInput("header row has no names")
    if len(set(names)) != len(names):
        raise MalformedCsv("duplicate header names", header_line)

    width = len(names)
    cols: list[list[Cell]] = [[] for _ in range(width)]
    for line, fields in records[1:]:
        if any(f is not None for f in fields[width:]):
            raise MalformedCsv(f"row has {len(fields)} fields, header has {width}", line)
        fields += [None] * (width - len(fields))
        for cells, f in zip(cols, fields):
            cells.append(f)
    kept = _kept_names(names, columns)  # type: ignore[arg-type]
    return Table(
        tuple(
            Column._unchecked(name, CType.TEXT, tuple(cells))  # type: ignore[arg-type]
            for name, cells in zip(names, cols)
            if name in kept
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


# Rows are formatted and joined per block of this many, so that only one
# block's formatted cells are alive at a time.
_WRITE_BLOCK_ROWS = 4096

# Finds a character that makes a text field need quotes; compiles on first use.
_NEEDS_QUOTES = r'[,"\r\n]'


def write_csv(t: Table) -> bytes:
    """Serialize a table: header then rows, LF line endings, UTF-8.

    Rows go out per block of :data:`_WRITE_BLOCK_ROWS`: each column's slice
    of the block is formatted whole by its kind (:func:`_format_slice`), and
    the block's lines are joined with ``zip``. Times and timestamps are
    built by :func:`format_time` from :data:`_TWO_DIGITS`, not by
    ``datetime.__str__``, and each distinct date of a slice is formatted
    once. The bytes equal those of
    :func:`_write_field` applied cell by cell, row by row, which
    ``tests/slowpaths.py`` keeps as the oracle ``row_wise_write_csv``.
    """
    chunks = [",".join(map(_write_field, t.column_names)).encode("utf-8")]
    for start in range(0, t.row_count, _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        fields = [_format_slice(c.ctype, c.cells[start:stop]) for c in t.columns]
        chunks.append("\n".join(map(",".join, zip(*fields))).encode("utf-8"))
    chunks.append(b"")
    return b"\n".join(chunks)


def _format_slice(ctype: CType, cells: tuple[Cell, ...]) -> Iterable[str]:
    """The written fields of a slice of a ``ctype`` column, as :func:`_write_field` gives them.

    A text slice with no null, no empty string and nothing to quote is
    returned as it is. Any other kind's non-null cells go to its entry in
    :data:`_FORMATTERS`: ``str``, ``repr`` or a lookup for ints, reals and
    bools; a memo of each distinct date; and :func:`format_time` for times
    and timestamps, after one ``"YYYY-MM-DD "`` per distinct day.
    """
    if ctype is CType.TEXT:
        plain = None not in cells and "" not in cells
        if plain and not re.search(_NEEDS_QUOTES, "".join(cells)):  # type: ignore[arg-type]
            return cells  # type: ignore[return-value]
        return map(_write_field, cells)
    fmt = _FORMATTERS[ctype]
    if None not in cells:
        return fmt(cells)
    step = iter(fmt([v for v in cells if v is not None])).__next__
    return ["" if v is None else step() for v in cells]


def _format_timestamps(values: Sequence[datetime]) -> Iterable[str]:
    """:func:`format_cell`'s text, each distinct day formatted once."""
    days = {d: f"{d.isoformat()} " for d in {v.date() for v in values}}
    return [days[v.date()] + format_time(v) for v in values]


def _format_dates(values: Sequence[date]) -> Iterable[str]:
    """``date.isoformat`` of each value, each distinct date formatted once."""
    return map({d: d.isoformat() for d in set(values)}.__getitem__, values)


#: Per non-text kind, the text forms of a slice of non-null cells, each
#: equal to :func:`format_cell`'s; none of them needs quotes.
_FORMATTERS: dict[CType, Callable[[Sequence], Iterable[str]]] = {
    CType.INT: partial(map, str),
    CType.REAL: partial(map, repr),
    CType.BOOL: partial(map, {True: "true", False: "false"}.__getitem__),
    CType.DATE: _format_dates,
    CType.TIMESTAMP: _format_timestamps,
    CType.TIME: partial(map, format_time),
}


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def infer_column_types(t: Table) -> Table:
    """Promote text columns to the narrowest kind matching every non-null cell.

    Kinds are tried in order int, real, timestamp, date, time, bool; a column
    with any non-conforming cell stays text, as does an all-null column.
    Already-typed columns pass through, so the operation is idempotent and
    usable mid-pipeline.

    A column is checked whole, its non-null cells joined by newlines, and a
    kind its first cell fits is proved in one pass over the joined text: an
    int or real column by deleting its characters (``str.translate``; inside
    that charset ``int`` and ``float`` accept exactly the kind's ASCII
    form), any kind by one anchored match of its form repeated line after
    line, which also finds the first line outside it. A proved column is
    converted in bulk; an int column with repeats converts each distinct
    text once. The per-cell parsers decide what that cannot: a cell holding
    a newline, a line outside the ASCII form that they may still accept
    (non-ASCII digits, one-digit hours), and a bulk conversion that fails
    (``""`` or ``+`` in the int charset, int64 or float overflow, 2018-02-30).
    """
    return Table(tuple(map(_infer_column, t.columns)))


def _infer_column(col: Column) -> Column:
    if col.ctype is not CType.TEXT or not col.cells:
        return col
    values: Sequence[str]
    try:
        values, joined = col.cells, "\n".join(col.cells)  # type: ignore[arg-type]
    except TypeError:  # a null among the cells
        values = [v for v in col.cells if v is not None]  # type: ignore[misc]
        if not values:
            return col
        joined = "\n".join(values)
    found = _infer_values(values, joined)
    if found is None:
        return col
    ctype, parsed = found
    return Column._unchecked(col.name, ctype, _with_nulls(col.cells, values, parsed))


def _with_nulls(cells: tuple[Cell, ...], values: Sequence[str], parsed: list[Cell]) -> tuple:
    """``cells`` with its non-null ``values`` replaced by ``parsed``, in order."""
    if values is cells:
        return tuple(parsed)
    step = iter(parsed).__next__
    return tuple([None if v is None else step() for v in cells])


def proven_kinds(t: Table) -> list[tuple[str, CType | None, tuple, tuple]]:
    """Per text column of ``t``: its name, the kind proven on its cells, those cells,
    and those cells typed by that kind as :func:`infer_column_types` types them.

    The kind is the first in :data:`_KINDS` order that takes every non-null
    cell, TEXT where none does, and None where every cell is null, since
    such a column fits any kind.
    """
    out = []
    for col in t.columns:
        typed = _infer_column(col)
        nulls = typed.ctype is CType.TEXT and col.cells.count(None) == len(col.cells)
        out.append((col.name, None if nulls else typed.ctype, col.cells, typed.cells))
    return out


#: The kinds whose cells :mod:`marshal` writes; a null-only column's too.
_MARSHALLED = frozenset({None, CType.TEXT, CType.INT, CType.REAL, CType.BOOL})


def pack_piece(proven: list) -> list:
    """The :func:`proven_kinds` of a piece as :mod:`marshal` writes it: per column, its
    name, its kind's value and its cells, typed where they marshal and text otherwise."""
    return [(name, kind and kind.value, typed if kind in _MARSHALLED else text)
            for name, kind, text, typed in proven]


def unpack_piece(packed: list) -> list:
    """The piece :func:`pack_piece` packed, its text cells converted by their kind."""
    kinds = [(name, value and CType(value), cells) for name, value, cells in packed]
    return [(name, kind, cells if kind in _MARSHALLED else _typed_as(kind, cells))
            for name, kind, cells in kinds]


def join_pieces(pieces: Sequence[list]) -> Table | None:
    """The ``pieces`` of an input joined in order, typed as inferring their joined text
    types them; None where two prove different kinds for a column. Each piece holds
    per column its name, the kind proven on it and its cells typed by that kind:
    where one kind is proven, each earlier kind fails on some piece."""
    columns = []
    for parts in zip(*pieces):
        kinds = {kind for _, kind, _ in parts} - {None}
        if len(kinds) > 1:
            return None
        cells = parts[0][2] if len(parts) == 1 else tuple(chain.from_iterable(c for *_, c in parts))
        columns.append(Column._unchecked(parts[0][0], kinds.pop() if kinds else CType.TEXT, cells))
    return Table(tuple(columns))


def _typed_as(kind: CType, cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Text ``cells`` whose non-null cells all parse as ``kind``, converted to it
    in bulk, the per-cell parser having the last word as in :func:`_infer_values`."""
    values = [v for v in cells if v is not None] if None in cells else cells
    parser, convert = next((row[1], row[3]) for row in _KINDS if row[0] is kind)
    parsed = _bulk(convert, values)  # type: ignore[arg-type]
    if parsed is None:
        parsed = _parse_each(parser, values)  # type: ignore[arg-type]
    return _with_nulls(cells, values, parsed)  # type: ignore[arg-type]


def _infer_values(values: Sequence[str], joined: str) -> tuple[CType, list[Cell]] | None:
    """The first kind in :data:`_KINDS` that takes every value, and the values parsed.

    ``joined`` is the values joined by newlines.
    """
    one_per_line = joined.count("\n") == len(values) - 1
    for ctype, parser, form, convert, charset in _KINDS:
        if parser(values[0]) is None:  # rules out most kinds at once
            continue
        if one_per_line:
            converted = charset is not None and not joined.translate(charset)
            if converted:
                # Only the form's characters: the bulk conversion decides,
                # and what it rejects goes on to the match and the parser.
                parsed = _bulk(convert, values)
                if parsed is not None:
                    return ctype, parsed
            bad = _first_bad_line(form, joined)
            if bad < 0:
                # Converting the same values again would refuse them again.
                parsed = None if converted else _bulk(convert, values)
                if parsed is not None:
                    return ctype, parsed
            elif parser(_line_at(joined, bad)) is None:
                continue
        parsed = _parse_each(parser, values)
        if parsed is not None:
            return ctype, parsed
    return None


def _first_bad_line(form: str, joined: str) -> int:
    """Where the first line of ``joined`` that is not ``form`` starts, or -1.

    One anchored match takes the lines in the form, each with its newline,
    and ends where the first other line starts, unless that is a last line
    in the form. Its repeat is possessive, so it keeps no state per line (a
    greedy one holds some 700 bytes a line). The patterns compile on first
    use; ``re`` caches them.
    """
    end = re.match(rf"(?:(?:{form})\n)*+", joined).end()  # type: ignore[union-attr]
    return -1 if re.compile(form).fullmatch(joined, end) else end


def _line_at(joined: str, start: int) -> str:
    end = joined.find("\n", start)
    return joined[start:] if end < 0 else joined[start:end]


def _parse_each(parser: Callable[[str], Cell], values: Sequence[str]) -> list[Cell] | None:
    """Per cell: the parsed values, or None at the first value ``parser`` rejects."""
    parsed = []
    for v in values:
        p = parser(v)
        if p is None:
            return None
        parsed.append(p)
    return parsed


def _bulk(
    convert: Callable[[Sequence[str]], list[Cell] | None], values: Sequence[str]
) -> list[Cell] | None:
    """``convert(values)``, or None where it finds a value it rejects or out of range."""
    try:
        return convert(values)
    except ValueError:  # outside the form, or past int()'s digit limit
        return None


def _to_ints(values: Sequence[str]) -> list[Cell] | None:
    distinct = set(values)
    if 2 * len(distinct) <= len(values):
        # Repeats: convert and range-check each distinct text once.
        by_text = dict(zip(distinct, map(int, distinct)))
        if not _INT64_MIN <= min(by_text.values()) <= max(by_text.values()) <= _INT64_MAX:
            return None
        return list(map(by_text.__getitem__, values))
    ints = list(map(int, values))
    if min(ints) < _INT64_MIN or max(ints) > _INT64_MAX:
        return None
    return ints  # type: ignore[return-value]


def _to_reals(values: Sequence[str]) -> list[Cell] | None:
    reals = list(map(float, values))
    # A text past the float range overflows to an infinity, which would be
    # written as inf and read back as text. A finite sum proves there is none;
    # the per-cell parser decides a column of finite reals that sums past it.
    return reals if math.isfinite(sum(reals)) else None  # type: ignore[return-value]


def _to_bools(values: Sequence[str]) -> list[Cell] | None:
    return list(map("true".__eq__, values))


def _from_iso(
    fromisoformat: Callable[[str], Cell]
) -> Callable[[Sequence[str]], list[Cell] | None]:
    """Bulk ``fromisoformat``, which reads a fraction of one to six digits."""
    return lambda values: list(map(fromisoformat, values))


_YMD = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_HMS = r"[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{1,2})?"

#: Per kind, in inference order: the per-cell parser, which has the last
#: word; the kind's ASCII form of one line, a regex; the bulk conversion of
#: values in that form (None where it finds one out of range, ValueError
#: where one is outside the form); and for int and real, a ``str.translate``
#: table deleting the form's characters and newline, so that a column it
#: leaves nothing of converts in bulk exactly when every line is in the form.
_KINDS = (
    (
        CType.INT,
        parse_int_text,
        r"[+-]?[0-9]+",
        _to_ints,
        str.maketrans("", "", "0123456789+-\n"),
    ),
    (
        CType.REAL,
        parse_real_text,
        r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?",
        _to_reals,
        str.maketrans("", "", "0123456789+-.eE\n"),
    ),
    (
        CType.TIMESTAMP,
        parse_timestamp_text,
        f"{_YMD} {_HMS}",
        _from_iso(datetime.fromisoformat),
        None,
    ),
    (CType.DATE, parse_date_text, _YMD, _from_iso(date.fromisoformat), None),
    (
        CType.TIME,
        parse_time_text,
        r"[0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{1,2})?)?",
        _from_iso(time.fromisoformat),
        None,
    ),
    (CType.BOOL, parse_bool_text, "true|false", _to_bools, None),
)
