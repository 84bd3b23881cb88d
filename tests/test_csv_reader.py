"""The column-at-a-time CSV reader against the char-by-char and per-cell
paths it replaced (kept in :mod:`slowpaths`).

Both readers must give equal tables, cell types included, or raise the same
exception class with the same message and line number.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from conftest import table_from_rows
from wrangle import table
from wrangle.errors import WrangleError
from wrangle.gen import GenConfig, generate
from wrangle.table import Column, CType, Table, infer_column_types, parse_csv, write_csv

BOM = b"\xef\xbb\xbf"


def typed(t):
    """Names, kinds and every cell with its Python type."""
    return [(c.name, c.ctype, [(type(v), v) for v in c.cells]) for c in t.columns]


def outcome(fn, *args):
    try:
        return "ok", typed(fn(*args))
    except WrangleError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def read(parse, infer, data):
    """The parsed and the inferred table, or the error the parse raised."""
    try:
        parsed = parse(data)
    except WrangleError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return typed(parsed), typed(infer(parsed))


def assert_same_reading(data: bytes) -> None:
    assert read(parse_csv, infer_column_types, data) == read(
        slowpaths.char_split_parse_csv, slowpaths.per_cell_infer_column_types, data
    )


# Cell texts by the kind they look like, with the near misses of each kind.
_LOOKS = {
    "int": ["0", "7", "-7", "+3", "007", "9223372036854775807", "-9223372036854775808",
            "9223372036854775808", "-9223372036854775809", "١٢", "٣"],
    "real": ["1.5", ".5", "5.", "-0.25", "1e5", "-2E-3", "1e999", "nan", "inf", "1_0", " 1"],
    "timestamp": ["2018-02-01 00:03:35.23", "2018-02-01 00:00:01.5", "2018-02-01 23:59:59",
                  "2018-02-01 7:05:00", "2018-02-30 00:00:00", "2018-02-01 24:00:00",
                  "2018-02-01T00:00:00", "2018-02-01 00:00:00.123", "٢٠١٨-02-01 00:00:00"],
    "date": ["2018-02-01", "2018-02-28", "2018-02-30", "0000-01-01", "2018-2-01", "20180201"],
    "time": ["17:00", "7:05", "17:00:00", "23:59:59.9", "00:00:01.18", "24:00", "17:60",
             "17:00:00.123", "٧:٠٥"],
    "bool": ["true", "false", "True", "TRUE", "1"],
    "text": ["", "a", "x y", "'000000001083", "NB_NS", '"', 'say "hi"', "a,b", "l1\nl2",
             "\r", "é", "\ufeff"],
}
_ANY_TEXT = st.sampled_from([v for vs in _LOOKS.values() for v in vs]) | st.text(
    alphabet='ab1.-:,"\n\r ', max_size=5
)


@st.composite
def column_cells(draw, n: int, repeats: bool = False):
    """``n`` cells that mostly look like one kind, with nulls and strays.

    With ``repeats``, the kind's cells come from at most three of its texts,
    so that each recurs (as lane numbers and flags do in a traffic export).
    """
    looks = _LOOKS[draw(st.sampled_from(sorted(_LOOKS)))]
    if repeats:
        looks = draw(st.lists(st.sampled_from(looks), min_size=1, max_size=3, unique=True))
    pool = st.sampled_from(looks)
    stray = draw(st.floats(0, 0.3))
    return [
        draw(st.none() | (_ANY_TEXT if draw(st.floats(0, 1)) < stray else pool))
        for _ in range(n)
    ]


@st.composite
def csv_field(draw, cell, messy: bool):
    if cell is None:
        return ""
    how = draw(st.sampled_from(["plain", "plain", "quoted"] + ["raw"] * messy))
    if how == "quoted" or (how == "plain" and any(ch in cell for ch in ',"\r\n')):
        return '"' + cell.replace('"', '""') + '"'
    if how == "plain" and cell == "":
        return '""'
    return cell  # "raw": may well break the dialect, as real exports do


@st.composite
def csv_bytes(draw):
    """CSV in the dialect, or (when messy) with the faults real exports have."""
    messy = draw(st.booleans())
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 8))
    columns = [draw(column_cells(n_rows)) for _ in range(width)]
    header = ",".join(
        draw(st.sampled_from([f"c{i}", f'"c{i}"', f'"c,{i}"', f"c{i % 2}", ""]))
        if messy and draw(st.floats(0, 1)) < 0.1 else f"c{i}"
        for i in range(width)
    )
    lines = [header]
    tail = draw(st.sampled_from(["", "", ",", ",,"] if messy else ["", ","]))
    for r in range(n_rows):
        fields = [draw(csv_field(col[r], messy)) for col in columns]
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1, 2])) if messy else 0
        fields = fields[: width + ragged] if ragged < 0 else fields + ["x"] * ragged
        lines.append(",".join(fields) + tail)
    eol = draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * messy))
    text = eol.join(lines) + draw(st.sampled_from([eol, eol, "", eol + eol]))
    return (BOM if draw(st.booleans()) else b"") + text.encode("utf-8")


TRAFFIC = (
    b'"Site ID","Date","Lane","Lane Name","Speed","FlagText","NumAxles"\n'
    b"'000000001083,2018-02-01 00:03:35.23,1,\"NB_NS\",33.373,\"\",2,\n"
    b"'000000001083,2018-02-01 00:07:41.8,2,\"SB \"\"MID\"\"\",35.411,\"\",,\n"
    b"'000000001083,2018-02-01 00:08:44,5,\"NB NS\",,\"\",3,\n"
)


class TestParseDifferential:
    @settings(max_examples=400, deadline=None)
    @given(csv_bytes(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, table._BLOCK_CHARS]))
    @example(b"a,b\r1,2\r", table._BLOCK_CHARS)  # CR
    @example(b"a,b\r\n1,2\r\n", table._BLOCK_CHARS)  # CRLF
    @example(b"a,b\r\n1,2\r3,4\n", table._BLOCK_CHARS)  # mixed line ends
    @example(b'a,b\n"",x\n', table._BLOCK_CHARS)  # quoted empty
    @example(b'a,b\n"""",x\n', table._BLOCK_CHARS)  # escaped quote only
    @example(b'a,b\n"1,2",x\n', table._BLOCK_CHARS)  # quoted comma
    @example(b'a,b\n"1\n2",x\n', table._BLOCK_CHARS)  # newline inside quotes
    @example(b'a,b\n"1\r\n2",x\r\n', table._BLOCK_CHARS)  # CRLF inside quotes
    @example(b"a,b,c\n1,,\n,,\n", table._BLOCK_CHARS)  # trailing empties
    @example(b"a,b\n1,2,\n3,4,\n", table._BLOCK_CHARS)  # uniform trailing comma
    @example(b"a,b,\n1,2,\n3,4\n", table._BLOCK_CHARS)  # trailing comma on some rows
    @example(b"a,b,c\n1\n2,3\n", table._BLOCK_CHARS)  # short rows
    @example(b"a,b\n1,2,,,\n", table._BLOCK_CHARS)  # long row, empty tail
    @example(b"a,b\n1,2,3\n", table._BLOCK_CHARS)  # long row with data
    @example(b'a,b\nx"y,2\n', table._BLOCK_CHARS)  # mid-field quote
    @example(b'a,b\n"x"y,2\n', table._BLOCK_CHARS)  # content after closing quote
    @example(b'a,b\n"x,2\n', table._BLOCK_CHARS)  # unclosed quote
    @example(b'a\n"\n', table._BLOCK_CHARS)  # a lone quote
    @example(b'a,b\n"x""",1\n', table._BLOCK_CHARS)  # escape at the end of a field
    @example(BOM + b"a,b\n1,2\n", table._BLOCK_CHARS)  # BOM
    @example(BOM + b"a,b\n1,2\n1,2,3\n", table._BLOCK_CHARS)  # BOM, then an error
    @example(b"a,b\n", table._BLOCK_CHARS)  # header only
    @example(b"a,b", table._BLOCK_CHARS)  # header only, no newline
    @example(b"", table._BLOCK_CHARS)  # empty input
    @example(b"\n", table._BLOCK_CHARS)  # empty header
    @example(b"a,,b\n", table._BLOCK_CHARS)  # empty header name
    @example(b'"a","a"\n', table._BLOCK_CHARS)  # duplicate header
    @example(b'"a\nb",c\n1,2\n', table._BLOCK_CHARS)  # newline in a header name
    @example(b"a\n\n\n", table._BLOCK_CHARS)  # blank lines are null rows
    @example(b"a,b\n\n1,2\n", table._BLOCK_CHARS)  # a blank line among wider rows
    @example(b"a\n1\n2\n3\n4\n", 1)  # one line per block
    @example(b"a\n1\n2\n3\n4\n", 2)
    @example(b"a,b\n1,2\n3,4,\n", 3)  # trailing comma in the second block only
    @example(b"a\n\xff\n", table._BLOCK_CHARS)  # not UTF-8
    @example(b'a\n"\n"x"\n"y"\n', table._BLOCK_CHARS)  # all quoted, a lone quote first
    @example(b'a\n"x"\n"\n"y"\n', table._BLOCK_CHARS)  # in the middle
    @example(b'a\n"x"\n"y"\n"\n', table._BLOCK_CHARS)  # last
    @example(b'a\n"a""\n"\n', table._BLOCK_CHARS)  # three quotes beside a lone one
    @example(b'a\n"\n"a""\n', table._BLOCK_CHARS)
    @example(b'a\n"x"\n""""\n', table._BLOCK_CHARS)  # an escaped quote only
    @example(b'a\n"x"\n"a"b"\n', table._BLOCK_CHARS)  # a quote inside
    @example(b'a,b\n"x",1\n"",2\n"y",3\n', table._BLOCK_CHARS)  # all quoted, one empty
    @example(TRAFFIC, table._BLOCK_CHARS)
    @example(TRAFFIC, 40)
    def test_equals_char_splitter(self, data, block_chars):
        with mock.patch.object(table, "_BLOCK_CHARS", block_chars):
            assert_same_reading(data)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='a1,"\n\r', max_size=30))
    def test_equals_char_splitter_on_any_text(self, text):
        assert_same_reading(text.encode("utf-8"))

    def test_every_short_text(self):
        """Every text of up to six characters over ``a , " CR LF``, through
        parse_csv and through its field-tokenizer path alone."""
        for n in range(7):
            for chars in itertools.product('a,"\r\n', repeat=n):
                text = "".join(chars)
                expected = outcome(slowpaths.char_split_parse_csv, text.encode())
                assert outcome(parse_csv, text.encode()) == expected, text
                assert outcome(table._parse_records, text) == expected, text

    def test_every_block_boundary(self):
        data = TRAFFIC + TRAFFIC.split(b"\n", 1)[1]
        expected = slowpaths.char_split_parse_csv(data)
        for block_chars in range(1, len(data) + 2):
            with mock.patch.object(table, "_BLOCK_CHARS", block_chars):
                assert typed(parse_csv(data)) == typed(expected), block_chars


def projected(data: bytes, columns: frozenset[str]):
    """The full read of ``data`` narrowed to ``columns`` in header order, as
    parse_csv's ``columns`` promises: all columns when the header lacks a name."""
    t = parse_csv(data)
    if not columns <= set(t.column_names):
        return t
    return table.Table(tuple(c for c in t.columns if c.name in columns))


# Header names csv_bytes writes, a quoted one's content, and one it never writes.
_READ_NAMES = st.frozensets(st.sampled_from(["c0", "c1", "c2", "c3", "c,1", "zz"]))


class TestReadSomeColumns:
    """A read of some columns equals the full read narrowed to them, typed
    tables and errors alike."""

    @settings(max_examples=400, deadline=None)
    @given(csv_bytes(), _READ_NAMES, st.sampled_from([1, 2, 3, 13, table._BLOCK_CHARS]))
    @example(b'c0,c1\nx"y,2\n', frozenset({"c1"}), table._BLOCK_CHARS)  # stray quote, dropped
    @example(b'c0,c1\n"1,2",x\n', frozenset({"c1"}), table._BLOCK_CHARS)  # quoted comma, dropped
    @example(b"c0,c1,c2\n1\n2,3\n", frozenset({"c2"}), table._BLOCK_CHARS)  # short rows
    @example(b"c0,c1\n1,2,3\n", frozenset({"c0"}), table._BLOCK_CHARS)  # a long row
    @example(b"c0,c1\r\n1,2\r\n", frozenset({"c1"}), table._BLOCK_CHARS)  # CRLF
    @example(BOM + b"c0,c1\n1,2\n", frozenset({"c0"}), table._BLOCK_CHARS)  # BOM
    @example(b"c0,c1\n1,2\n", frozenset({"c0", "zz"}), table._BLOCK_CHARS)  # missing name
    @example(b"c0,c1\n1,2\n", frozenset(), table._BLOCK_CHARS)  # no columns
    @example(b"c0,c1\n", frozenset({"c1"}), table._BLOCK_CHARS)  # header only
    @example(TRAFFIC, frozenset({"Site ID", "Speed"}), 40)
    def test_equals_the_full_read_narrowed(self, data, columns, block_chars):
        with mock.patch.object(table, "_BLOCK_CHARS", block_chars):
            assert read(partial(parse_csv, columns=columns), infer_column_types, data) == read(
                partial(projected, columns=columns), infer_column_types, data
            )

    @pytest.mark.parametrize("block_chars", [250, table._BLOCK_CHARS])
    def test_a_quote_in_a_dropped_column_reads_as_the_full_read(self, tmp_path, block_chars):
        # A dropped column is proved piece by piece only when its first piece
        # in a block holds a quote or the block's quote count says one may
        # hide elsewhere. Blocks of 250 characters hold two or three rows, so
        # rows 1 to 4 put a quote on a block's first line and on later ones.
        paths = generate(GenConfig(seed=3, sites=2, rows_per_site=30), tmp_path)
        data = paths[0].read_bytes()
        kept = frozenset({"Speed", "Site ID"})
        names = parse_csv(data).column_names
        lines = data.split(b"\n")
        with mock.patch.object(table, "_BLOCK_CHARS", block_chars):
            assert parse_csv(data, kept).column_names == ("Site ID", "Speed")
            for at, name in enumerate(names):
                if name in kept:
                    continue
                for row, field in itertools.product(range(1, 5), (b'x"y', b'"q"')):
                    fields = lines[row].split(b",")
                    fields[at] = field
                    edited = b"\n".join([*lines[:row], b",".join(fields), *lines[row + 1 :]])
                    narrowed = read(partial(parse_csv, columns=kept), infer_column_types, edited)
                    assert narrowed == read(
                        partial(projected, columns=kept), infer_column_types, edited
                    ), (name, row, field)
                    parsed = isinstance(narrowed[0], list)
                    assert parsed == (field == b'"q"'), (name, row, field)


class TestColumnPathTaken:
    """The column path covers the traffic exports; the rest falls back."""

    def test_traffic_shaped_text(self):
        assert table._parse_columns(TRAFFIC.decode()) is not None
        assert table._parse_columns(TRAFFIC.decode().replace("\n", "\r\n")) is not None

    def test_generated_export(self, tmp_path):
        paths = generate(GenConfig(seed=3, sites=2, rows_per_site=300), tmp_path)
        for path in paths:
            if path.suffix == ".csv":
                assert table._parse_columns(path.read_text("utf-8-sig")) is not None

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r1,2\r",
            'a,b\n"1\n2",x\n',
            'a,b\n"1,2",x\n',
            'a,b\nx"y,2\n',
            "a,b,c\n1\n",
            "a,b\n1,2,,\n",
            "a,b\n1,2\n3,4,\n",
            "a,a\n",
            "",
        ],
    )
    def test_declined(self, text):
        assert table._parse_columns(text) is None


class TestInferPathTaken:
    """A generated export's int and real columns are proved by their charset."""

    def test_generated_export(self, tmp_path):
        paths = generate(GenConfig(seed=3, sites=2, rows_per_site=300), tmp_path)
        parsed = parse_csv(paths[0].read_bytes())
        calls = {}
        for col in parsed.columns:
            with mock.patch.object(
                table, "_parse_each", wraps=table._parse_each
            ) as each, mock.patch.object(
                table, "_first_bad_line", wraps=table._first_bad_line
            ) as lines, mock.patch.object(table.re, "search", wraps=table.re.search) as search:
                kind = table._infer_column(col).ctype
            calls[col.name] = (kind, each.call_count, lines.call_count, search.call_count)
        numeric = {k: v for k, v in calls.items() if v[0] in (CType.INT, CType.REAL)}
        assert len(numeric) == 12
        assert all(v[1:] == (0, 0, 0) for v in numeric.values()), numeric
        # The timestamp column is proved by one look over its lines.
        assert calls["Date"][:3] == (CType.TIMESTAMP, 0, 1)


def _infer_outcome(fn, cells):
    return outcome(fn, table_from_rows(["x"], [CType.TEXT], [[c] for c in cells]))


_INT_CHARSET_EDGES = ["+", "-", "", "+-1", "1-2", "--1", "1_000", " 1"]
_REAL_CHARSET_EDGES = [".", "e5", "1e", "1.2.3", "inf", "nan", "1_0.5", "+.5", "5.", "-.5E+3"]


def _examples(columns):
    """Hypothesis ``@example``s, one per column of cells."""

    def decorate(test):
        for cells in reversed(columns):
            test = example(cells)(test)
        return test

    return decorate


class TestInferDifferential:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(0, 12).flatmap(column_cells)
        | st.integers(0, 40).flatmap(lambda n: column_cells(n, repeats=True))
    )
    # Each edge of the int and the real charset after a cell of the kind,
    # so that it meets the bulk conversion, not the first-cell check.
    @_examples([["1", edge] for edge in _INT_CHARSET_EDGES])
    @example(["0", "-0", "+0"])
    @_examples([["1.5", edge] for edge in _REAL_CHARSET_EDGES])
    @example(["9223372036854775808"] * 50)  # repeats past int64: real
    @example(["-9223372036854775809", "1"] * 25)
    @example(["1", None, "2", None] * 10)  # repeats with nulls
    @example([None, "7", "7", "x", None] * 10)
    @example([None, "+0", "-0", "0"] * 10)
    @example(["1.5", None, "1e5"] * 10)
    @example(["2018-02-01", None] * 10)
    @example(["true", "1", None] * 10)
    @example(["9223372036854775807", "-9223372036854775808"])  # int64 edges
    @example(["9223372036854775808", "1"])  # overflow: real
    @example(["-9223372036854775809"])
    @example(["1" * 4301, "2"])  # past int()'s digit limit and the float range: text
    @example(["1e999", "2"])  # overflows to inf: text
    @example(["2", "-1e999"])
    @example(["1e308", "1e308", "-1e308"])  # finite, but the sum overflows: real, per cell
    @example(["0" * 4301 + "7", "-" + "0" * 4301 + "9223372036854775808"])  # padded: int
    @example(["2018-02-30"])  # no such day: text
    @example(["2018-02-28", "2018-02-30"])
    @example(["2018-02-01 00:00:00", "2018-02-30 00:00:00"])
    @example(["7:05", "17:00"])  # one-digit hour
    @example(["17:00", "7:05:00.5"])
    @example(["2018-02-01 7:05:00", "2018-02-01 17:05:00.23"])
    @example(["24:00"])
    @example([".5", "1e5", "5."])
    @example(["1e5"])
    @example(["True", "true"])
    @example(["true", "false", None])
    @example(["٣", "12"])  # Arabic-Indic digits: int
    @example(["12", "٣.٥"])  # and real
    @example(["1", "l1\nl2"])  # a cell holding a newline
    @example(["1\n2"])
    @example(["1", "2\n"])  # int() and float() would take the newline as space
    @example(["1.5", "\n2.5"])
    @example(["1", ""])  # empty text is not a number
    @example([None, None])  # all null
    @example([None])
    @example([])
    @example(["00:00:01.18", "00:00:01.5", "00:00:01"])
    @example(["2018-02-01 00:00:01.18", "2018-02-01 00:00:01.1"])
    def test_equals_per_cell(self, cells):
        assert _infer_outcome(infer_column_types, cells) == _infer_outcome(
            slowpaths.per_cell_infer_column_types, cells
        )

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.integers(0, 12).flatmap(column_cells) | st.lists(
            st.integers(1, 4).flatmap(column_cells), max_size=4
        ).map(lambda runs: [cell for run in runs for cell in run]),
        cuts=st.lists(st.integers(1, 15), max_size=4),
        typed_at=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    @example(cells=["1", "2", "1.5", "2.5"], cuts=[2], typed_at=[True])  # int, then real
    @example(cells=["1", "2", "x"], cuts=[2], typed_at=[False])  # int, then text
    @example(cells=[None, None, "1"], cuts=[2], typed_at=[True, False])  # nulls only, then int
    @example(cells=["2018-02-01", None, "2018-02-30"], cuts=[2], typed_at=[False])
    @example(cells=["1e308", "1e308", "-1e308"], cuts=[1], typed_at=[False])
    @example(cells=["7:05", "17:00"], cuts=[1], typed_at=[False])
    def test_pieces_joined_by_their_proven_kinds_equal_the_whole(self, cells, cuts, typed_at):
        bounds = sorted({0, len(cells), *(c for c in cuts if c < len(cells))})
        pieces = []
        for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            text = Column._unchecked("x", CType.TEXT, tuple(cells[start:stop]))
            ((kind, col),) = table.proven_kinds(Table((text,)))
            typed_cells = col.cells if typed_at[i % len(typed_at)] else None
            pieces.append(("x", kind, text.cells, typed_cells))
        if not pieces:  # no rows: nothing to join
            pieces.append(("x", None, (), None))
        joined = Table((table.join_proven(pieces),))
        assert typed(joined) == _infer_outcome(infer_column_types, cells)[1]

    @pytest.mark.parametrize(
        "data",
        [b"x\n1e999\n2\n", b"x\n2\n-1E+999\n", b"x\n1\n" + b"9" * 400 + b".5\n"],
        ids=["1e999", "-1E+999", "400 digits"],
    )
    def test_a_column_that_overflows_the_float_range_stays_text(self, data):
        # As a real it would be written as inf, which reads back as text.
        t = infer_column_types(parse_csv(data))
        assert t.column("x").ctype is CType.TEXT
        assert infer_column_types(parse_csv(write_csv(t))) == t
        assert write_csv(t) == data

    def test_a_million_lines_in_one_match(self):
        form = f"{table._YMD} {table._HMS}"  # a timestamp
        lines = ["2018-02-01 00:03:35.23"] * 1_000_000
        assert table._first_bad_line(form, "\n".join(lines)) == -1
        lines[-1] = "2018-02-01 7:05:00"
        joined = "\n".join(lines)
        assert table._first_bad_line(form, joined) == len(joined) - 18
        lines[1] = "x"
        assert table._first_bad_line(form, "\n".join(lines)) == 23

    def test_one_match_keeps_no_state_per_line(self):
        form = f"{table._YMD} {table._HMS}"
        joined = "\n".join(["2018-02-01 00:03:35.23"] * 100_000)
        table._first_bad_line(form, joined)  # compiles the patterns
        tracemalloc.start()
        try:
            assert table._first_bad_line(form, joined) == -1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a greedy repeat holds some 70 MB here

    def test_typed_columns_pass_through(self):
        t = table_from_rows(["n", "s"], [CType.INT, CType.TEXT], [[1, "2"], [None, "3"]])
        got = infer_column_types(t)
        assert got.columns[0] is t.columns[0]
        assert typed(got) == typed(slowpaths.per_cell_infer_column_types(t))

    def test_result_columns_pass_the_checking_constructor(self):
        data = TRAFFIC + b"'000000001083,2018-02-01 00:09:00,3,\"\",1e5,,4,\n"
        for col in infer_column_types(parse_csv(data)).columns:
            assert table.Column(col.name, col.ctype, col.cells) == col


class TestMemory:
    def test_peak_no_higher_than_the_slow_paths(self, tmp_path):
        # tracemalloc counts are deterministic, so this needs no timing.
        paths = generate(GenConfig(seed=7, sites=2, rows_per_site=20_000), tmp_path)
        data = paths[0].read_bytes()

        def peak(parse, infer):
            gc.collect()
            tracemalloc.start()
            try:
                infer(parse(data))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fast = peak(parse_csv, infer_column_types)
        slow = peak(slowpaths.char_split_parse_csv, slowpaths.per_cell_infer_column_types)
        assert fast <= slow
