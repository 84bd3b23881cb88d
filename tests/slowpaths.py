"""Slow reference implementations kept as differential oracles.

Each function here is the straightforward form of a fast path in the
package, kept verbatim so tests can require exactly equal results. Unlike
:mod:`oracles`, these call package helpers (``haversine_m`` and the
per-cell ``parse_*_text`` parsers in particular) so that results are
bit-identical, not merely close.

- :func:`nested_loop_time_space_join`: ``spacetime.time_space_join`` as a
  scan of every weather row per traffic row.
- :func:`hand_rolled_take`: ``Table.take`` as a per-column copy, every
  cell checked again.
- :func:`char_split_parse_csv`: ``table.parse_csv`` as the char-by-char
  record splitter followed by a row-by-row fill of the columns.
- :func:`per_cell_infer_column_types`: ``table.infer_column_types`` as
  every parser run on every cell, kind by kind.
- :func:`row_wise_write_csv`: ``table.write_csv`` as every cell formatted
  on its own by ``format_cell``, row by row.
- :func:`per_cell_column_check`: ``Column``'s construction check as
  ``cell_matches`` run on every cell in order.
- :func:`per_cell_clean_site_id` and :func:`per_cell_filter_weekdays`:
  the ``traffic`` ops as one Python step per cell.
- :func:`row_wise_filter_rows`, :func:`row_wise_require` and
  :func:`row_wise_mutate_column`: the ``relops`` operators as a dict built
  for every row and an AST walk per row. The columns an expression reads
  are found, checked and evaluated by three separate walks, as
  ``wrangle.expr`` did before it compiled expressions; the walks take
  operand trees on both sides of a comparison, and restate the compiler's
  kind rules and error texts rather than call it.
- :func:`char_loop_tokenize`: ``expr._tokenize`` as a loop that reads the
  text a character (or a delimited literal) at a time.
- :func:`wxrep_parse_weather_json` and :func:`wxrep_flatten_weather`:
  ``weather.parse_weather_json`` and ``weather.flatten_weather`` with every
  rep parsed into a frozen ``WxRep`` record, its fields named one by one,
  and unknown rep keys counted by summing ``(value, count)`` pairs up the
  location and period walk.
- :func:`depth_first_topo_schedule`: ``workflow.topo_schedule`` as a
  depth-first search that gives each node its longest-path depth.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, time
from itertools import compress
from typing import Iterator, Mapping

from wrangle import spacetime, traffic
from wrangle.errors import (
    CycleDetected,
    EmptyInput,
    MalformedCsv,
    MalformedJson,
    MissingField,
    ParseError,
    RangeError,
    RequirementFailed,
    SchemaMismatch,
    TypeMismatch,
    UnknownColumn,
)
from wrangle.expr import (
    And,
    BinOp,
    ColRef,
    Compare,
    Lit,
    LitValue,
    MutateExpr,
    Neg,
    Not,
    Operand,
    Or,
    PredicateExpr,
    _KEYWORDS,
    _Token,
    format_expr,
)
from wrangle.spacetime import SpaceTimeParams
from wrangle.table import (
    Cell,
    Column,
    CType,
    NUMERIC_KINDS,
    Table,
    cell_matches,
    format_cell,
    kind_of_value,
    kinds_comparable,
    parse_bool_text,
    parse_date_text,
    parse_int_text,
    parse_real_text,
    parse_time_text,
    parse_timestamp_text,
)
from wrangle.weather import (
    WeatherDoc,
    WxLocation,
    WxPeriod,
    _as_list,
    _opt_float,
    _opt_int,
    _opt_str,
    _req,
)
from wrangle.workflow import WorkflowSpec


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


# Raw fields distinguish bare-empty (null) from quoted-empty (empty text).
_NULL_FIELD = object()


def _split_records(text: str) -> list[tuple[int, list[object]]]:
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
    line = 1
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


def char_split_parse_csv(data: bytes) -> Table:
    """Parse CSV bytes into a table of text columns (no type inference).

    A leading UTF-8 byte order mark is dropped. The first row is the
    header. Data rows shorter than the header are padded with nulls; rows
    longer only by trailing empty fields are truncated; any other
    raggedness raises :class:`MalformedCsv`.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len(re.split(rb"\r\n|\r|\n", exc.object[: exc.start]))
        raise MalformedCsv(f"not valid UTF-8: {exc}", line) from None
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


_PARSERS = (
    (CType.INT, parse_int_text),
    (CType.REAL, parse_real_text),
    (CType.TIMESTAMP, parse_timestamp_text),
    (CType.DATE, parse_date_text),
    (CType.TIME, parse_time_text),
    (CType.BOOL, parse_bool_text),
)


def per_cell_infer_column_types(t: Table) -> Table:
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


def _write_field(value: Cell) -> str:
    if value is None:
        return ""
    text = format_cell(value)
    if isinstance(value, str) and text == "":
        return '""'
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def row_wise_write_csv(t: Table) -> bytes:
    """Serialize a table: header then rows, LF line endings, UTF-8."""
    lines = [",".join(_write_field(name) for name in t.column_names)]
    for i in range(t.row_count):
        lines.append(",".join(_write_field(col.cells[i]) for col in t.columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def per_cell_column_check(name: str, ctype: CType, cells: tuple[Cell, ...]) -> None:
    """``Column``'s construction check as ``cell_matches`` on every cell in order."""
    for i, v in enumerate(cells):
        if not cell_matches(v, ctype):
            raise TypeMismatch(f"column '{name}' is {ctype.value} but cell {i} is {v!r}")


def per_cell_clean_site_id(t: Table, col: str) -> Table:
    """``traffic.clean_site_id`` as one strip per cell."""
    cells = tuple(
        None if v is None else (v.lstrip("'0") or "0")  # type: ignore[union-attr]
        for v in t.column(col).cells
    )
    return Table(tuple(Column(col, CType.TEXT, cells) if c.name == col else c for c in t.columns))


def per_cell_filter_weekdays(t: Table, date_col: str, days: set[str]) -> Table:
    """``traffic.filter_weekdays`` as a weekday name looked up per cell."""
    keep = []
    for i, v in enumerate(t.column(date_col).cells):
        if v is None:
            continue
        d = v.date() if isinstance(v, datetime) else v
        if traffic.weekday_name(d) in days:
            keep.append(i)
    return hand_rolled_take(t, keep)


def _parts(e: PredicateExpr | Operand) -> tuple:
    """The subexpressions of ``e``, in tree order."""
    if isinstance(e, (Not, Neg)):
        return (e.operand,)
    if isinstance(e, (Compare, And, Or, BinOp)):
        return (e.left, e.right)
    return ()


def _columns(e: PredicateExpr | Operand) -> set[str]:
    if isinstance(e, ColRef):
        return {e.name}
    return set().union(*map(_columns, _parts(e)))


def _name(e: Operand) -> str:
    """How an error message names an operand."""
    if isinstance(e, ColRef):
        return f"column '{e.name}'"
    if isinstance(e, Lit):
        return f"literal {e.value!r}"
    if isinstance(e, Neg) and isinstance(e.operand, Lit):
        return f"literal {-e.operand.value!r}"
    return f"expression {format_expr(e)}"


def _check_operand(e: Operand, kinds: Mapping[str, CType]) -> CType:
    """The kind of ``e``; raises UnknownColumn/TypeMismatch at its first bad part."""
    if isinstance(e, Lit):
        return kind_of_value(e.value)
    if isinstance(e, ColRef):
        if e.name not in kinds:
            raise UnknownColumn(f"no column '{e.name}'")
        return kinds[e.name]
    if isinstance(e, Neg):
        return _check_number(e.operand, kinds)
    left, right = _check_number(e.left, kinds), _check_number(e.right, kinds)
    return CType.INT if left == right == CType.INT and e.op != "/" else CType.REAL


def _check_number(e: Operand, kinds: Mapping[str, CType]) -> CType:
    kind = _check_operand(e, kinds)
    if kind not in NUMERIC_KINDS:
        raise TypeMismatch(f"{_name(e)} is {kind.value}, arithmetic needs int or real")
    return kind


def _check_predicate(e: PredicateExpr, kinds: Mapping[str, CType]) -> None:
    """Raise UnknownColumn/TypeMismatch unless e can evaluate against kinds."""
    if isinstance(e, Compare):
        left_kind = _check_operand(e.left, kinds)
        right_kind = _check_operand(e.right, kinds)
        if not kinds_comparable(left_kind, right_kind):
            raise TypeMismatch(
                f"{_name(e.left)} is {left_kind.value}, cannot compare with "
                f"{right_kind.value} {_name(e.right)}"
            )
        return
    for part in _parts(e):
        _check_predicate(part, kinds)


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare(op: str, a: Cell, b: Cell) -> bool:
    """A comparison with a null is false."""
    if a is None or b is None:
        return False
    return _CMP[op](a, b)


def _eval_predicate(e: PredicateExpr, row: Mapping[str, Cell]) -> bool:
    """Evaluate against one row."""
    if isinstance(e, Compare):
        return _compare(e.op, _eval_operand(e.left, row), _eval_operand(e.right, row))
    if isinstance(e, Not):
        return not _eval_predicate(e.operand, row)
    if isinstance(e, And):
        return _eval_predicate(e.left, row) and _eval_predicate(e.right, row)
    if isinstance(e, Or):
        return _eval_predicate(e.left, row) or _eval_predicate(e.right, row)
    raise TypeError(f"not a predicate node: {e!r}")


def _eval_operand(e: Operand, row: Mapping[str, Cell]) -> Cell:
    """Row-wise arithmetic; null operands and division by zero yield null."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, ColRef):
        return row[e.name]
    if isinstance(e, Neg):
        v = _eval_operand(e.operand, row)
        return None if v is None else -v
    if isinstance(e, BinOp):
        left = _eval_operand(e.left, row)
        right = _eval_operand(e.right, row)
        if left is None or right is None:
            return None
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            return None
        return left / right
    raise TypeError(f"not an operand node: {e!r}")


def _kinds(t: Table) -> dict[str, CType]:
    return {c.name: c.ctype for c in t.columns}


def _rows(t: Table, e: PredicateExpr | Operand) -> Iterator[dict[str, Cell]]:
    """Each row as a dict of the columns ``e`` reads."""
    cols = {name: t.column(name).cells for name in _columns(e)}
    return ({name: cells[i] for name, cells in cols.items()} for i in range(t.row_count))


def _truths(t: Table, p: PredicateExpr) -> Iterator[bool]:
    """``p`` of each row in order; the columns are checked before any row."""
    _check_predicate(p, _kinds(t))
    return (_eval_predicate(p, row) for row in _rows(t, p))


def row_wise_filter_rows(t: Table, p: PredicateExpr) -> Table:
    """``relops.filter_rows`` as ``p`` walked once per row."""
    return t.take(list(compress(range(t.row_count), _truths(t, p))))


def row_wise_require(t: Table, p: PredicateExpr) -> Table:
    """``relops.require`` as ``p`` walked once per row, up to the first false one."""
    for i, ok in enumerate(_truths(t, p)):
        if not ok:
            raise RequirementFailed(f"row {i} does not meet {format_expr(p)}")
    return t


def row_wise_mutate_column(t: Table, name: str, e: MutateExpr) -> Table:
    """``relops.mutate_column`` as ``e`` walked once per row."""
    _check_number(e, _kinds(t))
    cells = []
    for row in _rows(t, e):
        v = _eval_operand(e, row)
        cells.append(None if v is None else float(v))
    new_col = Column._unchecked(name, CType.REAL, tuple(cells))
    if t.has_column(name):
        return Table(tuple(new_col if c.name == name else c for c in t.columns))
    return Table(t.columns + (new_col,))


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_PUNCT = ("==", "!=", "<=", ">=", "<", ">", "=", "(", ")", ",", "+", "-", "*", "/")


def char_loop_tokenize(text: str) -> list[_Token]:
    """``expr._tokenize`` as a loop over the text, one character or literal a step."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "`":
            end = text.find("`", i + 1)
            if end < 0:
                raise ParseError("unterminated backtick identifier", i)
            name = text[i + 1 : end]
            if not name:
                raise ParseError("empty backtick identifier", i)
            tokens.append(_Token("ident", name, i))
            i = end + 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise ParseError("unterminated string literal", i)
            tokens.append(_Token("string", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch == "#":
            end = text.find("#", i + 1)
            if end < 0:
                raise ParseError("unterminated #...# literal", i)
            body = text[i + 1 : end]
            value: LitValue | None = parse_date_text(body)
            if value is None:
                value = parse_time_text(body)
            if value is None:
                raise ParseError(
                    f"bad #...# literal '{body}'", i, {"#HH:MM[:SS]#", "#YYYY-MM-DD#"}
                )
            tokens.append(_Token("hash", value, i))
            i = end + 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch == "."):
            body = m.group(0)
            num: int | float = float(body) if set(body) & set(".eE") else int(body)
            if num == math.inf:  # would format as 'inf', which does not parse
                raise ParseError(f"number literal {body} is not finite", i)
            tokens.append(_Token("number", num, i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append(_Token(word, word, i))
            else:
                tokens.append(_Token("ident", word, i))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token(punct, punct, i))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


@dataclass(frozen=True)
class WxRep:
    wind_dir: str | None = None          # D
    gust: float | None = None            # G
    humidity: float | None = None        # H
    pressure: float | None = None        # P
    wind_speed: float | None = None      # S
    temperature: float | None = None     # T
    visibility: float | None = None      # V
    weather_code: int | None = None      # W
    pressure_tendency: str | None = None # Pt
    dew_point: float | None = None       # Dp
    minutes_after_midnight: int = 0      # $

    def __post_init__(self) -> None:
        if not 0 <= self.minutes_after_midnight < 1440:
            raise RangeError(
                f"minutes after midnight {self.minutes_after_midnight} not in [0, 1440)"
            )

    @property
    def time_of_day(self) -> time:
        return time(self.minutes_after_midnight // 60, self.minutes_after_midnight % 60)


_WX_REP_KEYS = {"D", "G", "H", "P", "S", "T", "V", "W", "Pt", "Dp", "$"}


def _wx_parse_rep(obj: object) -> tuple[WxRep, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Rep entry is not an object: {obj!r}")
    minutes = _opt_int(obj, "$")
    if minutes is None:
        raise MissingField("no '$' in Rep")
    rep = WxRep(
        wind_dir=_opt_str(obj, "D"),
        gust=_opt_float(obj, "G"),
        humidity=_opt_float(obj, "H"),
        pressure=_opt_float(obj, "P"),
        wind_speed=_opt_float(obj, "S"),
        temperature=_opt_float(obj, "T"),
        visibility=_opt_float(obj, "V"),
        weather_code=_opt_int(obj, "W"),
        pressure_tendency=_opt_str(obj, "Pt"),
        dew_point=_opt_float(obj, "Dp"),
        minutes_after_midnight=minutes,
    )
    unknown = sum(1 for k in obj if k not in _WX_REP_KEYS)
    return rep, unknown


def _wx_parse_period(obj: object) -> tuple[WxPeriod, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Period entry is not an object: {obj!r}")
    raw = str(_req(obj, "value", "Period"))
    try:
        day = date.fromisoformat(raw.removesuffix("Z"))
    except ValueError:
        raise MalformedJson(f"bad Period date {raw!r}") from None
    reps = []
    unknown = 0
    for entry in _as_list(_req(obj, "Rep", "Period")):
        rep, n = _wx_parse_rep(entry)
        reps.append(rep)
        unknown += n
    return WxPeriod(day, tuple(reps)), unknown


def _wx_parse_location(obj: object) -> tuple[WxLocation, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Location entry is not an object: {obj!r}")
    loc_id = obj.get("i", obj.get("id"))
    if loc_id is None:
        raise MissingField("no 'i' in Location")
    lat = _opt_float(obj, "lat")
    lon = _opt_float(obj, "lon")
    if lat is None or lon is None:
        raise MissingField("Location lacks lat/lon")
    periods = []
    unknown = 0
    for entry in _as_list(obj.get("Period", [])):
        period, n = _wx_parse_period(entry)
        periods.append(period)
        unknown += n
    return (
        WxLocation(
            id=str(loc_id),
            lat=lat,
            lon=lon,
            name=str(obj.get("name", "")),
            country=str(obj.get("country", "")),
            elevation_m=_opt_float(obj, "elevation"),
            periods=tuple(periods),
        ),
        unknown,
    )


def wxrep_parse_weather_json(data: bytes) -> WeatherDoc:
    """Parse observation JSON into a document whose reps are ``WxRep`` records."""
    try:
        root = json.loads(data.decode("utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(root, dict):
        raise MalformedJson("document root is not an object")
    if "SiteRep" in root:
        root = root["SiteRep"]
        if not isinstance(root, dict):
            raise MalformedJson("'SiteRep' is not an object")
    dv = _req(root, "DV", "document")
    if not isinstance(dv, dict):
        raise MalformedJson("'DV' is not an object")

    raw_date = str(_req(dv, "dataDate", "DV"))
    try:
        datetime.strptime(raw_date, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        raise MalformedJson(f"bad dataDate {raw_date!r}") from None

    locations = []
    unknown = 0
    for entry in _as_list(_req(dv, "Location", "DV")):
        loc, n = _wx_parse_location(entry)
        locations.append(loc)
        unknown += n
    return WeatherDoc(locations=tuple(locations), unknown_rep_fields=unknown)


_WX_FLAT_COLUMNS: tuple[tuple[str, CType], ...] = (
    ("SiteID", CType.TEXT),
    ("SiteName", CType.TEXT),
    ("Lat", CType.REAL),
    ("Lon", CType.REAL),
    ("Elevation", CType.REAL),
    ("Country", CType.TEXT),
    ("ObsDate", CType.DATE),
    ("ObsTime", CType.TIME),
    ("D", CType.TEXT),
    ("G", CType.REAL),
    ("H", CType.REAL),
    ("P", CType.REAL),
    ("S", CType.REAL),
    ("T", CType.REAL),
    ("V", CType.REAL),
    ("W", CType.INT),
    ("Pt", CType.TEXT),
    ("Dp", CType.REAL),
)


def wxrep_flatten_weather(doc: WeatherDoc) -> Table:
    """One row per ``WxRep``, in document order, with the fixed 18-column layout."""
    rows = []
    for loc in doc.locations:
        for period in loc.periods:
            for rep in period.reps:
                rows.append(
                    (
                        loc.id,
                        loc.name,
                        loc.lat,
                        loc.lon,
                        loc.elevation_m,
                        loc.country,
                        period.date,
                        rep.time_of_day,
                        rep.wind_dir,
                        rep.gust,
                        rep.humidity,
                        rep.pressure,
                        rep.wind_speed,
                        rep.temperature,
                        rep.visibility,
                        rep.weather_code,
                        rep.pressure_tendency,
                        rep.dew_point,
                    )
                )
    return Table(
        tuple(
            Column(name, ctype, tuple(row[i] for row in rows))
            for i, (name, ctype) in enumerate(_WX_FLAT_COLUMNS)
        )
    )


def depth_first_topo_schedule(w: WorkflowSpec) -> list[list[str]]:
    """Stages of mutually independent node ids, by longest-path depth."""
    depth: dict[str, int] = {}
    visiting: set[str] = set()

    def visit(node_id: str) -> int:
        if node_id in depth:
            return depth[node_id]
        if node_id in visiting:
            raise CycleDetected(f"cycle through node '{node_id}'")
        visiting.add(node_id)
        node = w.node(node_id)
        d = 0
        for ref in node.inputs.values():
            if ref.node_id is not None:
                d = max(d, visit(ref.node_id) + 1)
        visiting.discard(node_id)
        depth[node_id] = d
        return d

    for n in w.nodes:
        visit(n.id)
    stages: list[list[str]] = [[] for _ in range(max(depth.values()) + 1)] if depth else []
    for n in w.nodes:  # declaration order within each stage
        stages[depth[n.id]].append(n.id)
    return stages
