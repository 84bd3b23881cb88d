"""CSV dialect and type inference.

The reference for random round trips is Python's csv module, a code path
fully independent of the hand-rolled parser.
"""

from __future__ import annotations

import csv
import enum
import io
import random
from datetime import date, datetime, time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from conftest import assert_tables_equal, random_typed_table, table_from_rows
from opharness import row, rows_of
from wrangle import table
from wrangle.errors import EmptyInput, MalformedCsv, TypeMismatch
from wrangle.table import (
    Column,
    CType,
    Table,
    cell_matches,
    infer_column_types,
    kind_of_value,
    parse_csv,
    write_csv,
)


def text_table(names, rows):
    return table_from_rows(names, [CType.TEXT] * len(names), rows)


class TestParseCsv:
    def test_traffic_shaped_row(self):
        data = b'"Site ID","Date"\n\'000000001083,2018-02-01 00:00:01.18\n'
        t = parse_csv(data)
        assert t.column_names == ("Site ID", "Date")
        assert t.row_count == 1
        assert t.column("Site ID").cells == ("'000000001083",)
        assert t.column("Date").cells == ("2018-02-01 00:00:01.18",)

    def test_header_only(self):
        t = parse_csv(b"A,B\n")
        assert t.column_names == ("A", "B")
        assert t.row_count == 0

    def test_quoting_and_trailing_empty(self):
        # Frozen expectation, checked by hand against the dialect rules:
        # a | b,"c" | null
        t = parse_csv(b'x,y,z\na,"b,""c""",\n')
        assert row(t, 0) == ("a", 'b,"c"', None)

    def test_quoted_empty_is_text_bare_empty_is_null(self):
        t = parse_csv(b'x,y\n"",\n')
        assert row(t, 0) == ("", None)

    def test_short_rows_padded(self):
        t = parse_csv(b"a,b,c\n1\n")
        assert row(t, 0) == ("1", None, None)

    def test_long_row_with_trailing_empties_truncated(self):
        t = parse_csv(b"a,b\n1,2,,,\n")
        assert row(t, 0) == ("1", "2")

    def test_long_row_with_data_rejected(self):
        with pytest.raises(MalformedCsv) as err:
            parse_csv(b"a,b\n1,2,3\n")
        assert "line 2" in str(err.value)

    def test_unclosed_quote_rejected(self):
        with pytest.raises(MalformedCsv):
            parse_csv(b'a\n"oops\n')

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_csv(b"")

    def test_duplicate_header(self):
        with pytest.raises(MalformedCsv):
            parse_csv(b"a,a\n")

    def test_crlf_tolerated(self):
        t = parse_csv(b"a,b\r\n1,2\r\n")
        assert row(t, 0) == ("1", "2")

    def test_newline_inside_quotes(self):
        t = parse_csv(b'a\n"line1\nline2"\n')
        assert row(t, 0) == ("line1\nline2",)

    def test_header_trailing_comma_tolerated(self):
        t = parse_csv(b"a,b,\n1,2,\n")
        assert t.column_names == ("a", "b")

    def test_leading_bom_dropped(self):
        data = b'"Site ID","Date"\r\n\'000000001083,2018-02-01 00:00:01.18,\r\n'
        t = parse_csv(b"\xef\xbb\xbf" + data)
        assert t.column_names == ("Site ID", "Date")
        assert t == parse_csv(data)

    def test_bom_keeps_error_line_numbers(self):
        for data in (b"a,b\n1,2\n1,2,3\n", b'a\n1\n"oops\n', b"a,a\n"):
            with pytest.raises(MalformedCsv) as plain:
                parse_csv(data)
            with pytest.raises(MalformedCsv) as bom:
                parse_csv(b"\xef\xbb\xbf" + data)
            assert str(bom.value) == str(plain.value)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_not_utf8_names_the_line_of_the_first_bad_byte(self, bom, end):
        # A cp1252 pound sign, as a spreadsheet save writes it, on the third line.
        data = bom + end.join([b"a,b", b"1,2", b"3,\xa34", b"\xff,5", b""])
        with pytest.raises(MalformedCsv, match=r"^line 3: not valid UTF-8: .* byte 0xa3 ") as err:
            parse_csv(data)
        assert err.value.line == 3


class TestWriteCsv:
    def test_empty_table(self):
        t = text_table(["A", "B"], [])
        assert write_csv(t) == b"A,B\n"

    def test_quote_forcing(self):
        t = text_table(["x"], [['he said "hi"']])
        assert write_csv(t) == b'x\n"he said ""hi"""\n'

    def test_null_prints_empty(self):
        t = text_table(["x", "y"], [[None, "a"]])
        assert write_csv(t) == b"x,y\n,a\n"

    def test_timestamp_fraction_reprints_exactly(self):
        raw = b"Date\n2018-02-01 00:00:01.18\n"
        t = infer_column_types(parse_csv(raw))
        assert t.column("Date").ctype is CType.TIMESTAMP
        assert write_csv(t) == raw


class TestRoundTrip:
    def test_random_tables_against_csv_module(self):
        # The independent reference: write with our codec, read with stdlib csv.
        rng = random.Random("roundtrip:csvmodule")
        for _ in range(30):
            t = random_typed_table(rng, max_cols=8, max_rows=40)
            text = write_csv(t).decode("utf-8")
            parsed = list(csv.reader(io.StringIO(text)))
            assert parsed[0] == list(t.column_names)
            body = parsed[1:]
            assert len(body) == t.row_count
            for fields, expected in zip(body, rows_of(t)):
                for got, cell in zip(fields, expected):
                    if cell is None:
                        assert got == ""

    def test_parse_write_identity_100_tables(self):
        rng = random.Random("roundtrip:identity")
        for _ in range(100):
            t = random_typed_table(rng)
            assert_tables_equal(infer_column_types(parse_csv(write_csv(t))), t)


class TestInference:
    def infer_one(self, cells):
        t = text_table(["x"], [[c] for c in cells])
        return infer_column_types(t).column("x")

    def test_int(self):
        col = self.infer_one(["1083", "1084"])
        assert col.ctype is CType.INT
        assert col.cells == (1083, 1084)

    def test_timestamp(self):
        col = self.infer_one(["2018-02-01 00:00:01.18"])
        assert col.ctype is CType.TIMESTAMP
        assert col.cells == (datetime(2018, 2, 1, 0, 0, 1, 180000),)

    def test_real_with_null_gap(self):
        col = self.infer_one(["4.200", None, "31.691"])
        assert col.ctype is CType.REAL
        assert col.cells == (4.2, None, 31.691)

    def test_date_and_time(self):
        assert self.infer_one(["2018-02-01"]).ctype is CType.DATE
        assert self.infer_one(["17:00:00"]).cells == (time(17, 0),)

    def test_bool_literals_only(self):
        assert self.infer_one(["true", "false"]).ctype is CType.BOOL
        assert self.infer_one(["0", "1"]).ctype is CType.INT

    def test_mixed_stays_text(self):
        assert self.infer_one(["12", "noon"]).ctype is CType.TEXT

    def test_all_null_stays_text(self):
        assert self.infer_one([None, None]).ctype is CType.TEXT

    def test_apostrophe_prefix_stays_text(self):
        col = self.infer_one(["'000000001083"])
        assert col.ctype is CType.TEXT
        assert col.cells == ("'000000001083",)

    def test_beyond_int64_becomes_real(self):
        col = self.infer_one([str(2**63)])
        assert col.ctype is CType.REAL

    def test_a_refused_bulk_conversion_runs_once(self):
        # Inside the int charset, but past int64: the bulk conversion refuses
        # the column once, the per-cell parser agrees, and real takes it.
        cells = ["1", "9223372036854775808"] + ["1"] * 1000
        with mock.patch.object(table, "_bulk", wraps=table._bulk) as bulk:
            col = self.infer_one(cells)
        assert [c.args[0] for c in bulk.call_args_list] == [table._to_ints, table._to_reals]
        assert col.ctype is CType.REAL
        assert col.cells == tuple(map(float, cells))

    def test_idempotent(self):
        rng = random.Random("infer:idempotent")
        for _ in range(25):
            t = random_typed_table(rng, max_cols=6, max_rows=30)
            once = infer_column_types(parse_csv(write_csv(t)))
            assert_tables_equal(infer_column_types(once), once)


class TestTableModel:
    def test_rectangularity_enforced(self):
        from wrangle.errors import SchemaMismatch

        with pytest.raises(SchemaMismatch):
            Table(
                (
                    Column("a", CType.INT, (1, 2)),
                    Column("b", CType.INT, (1,)),
                )
            )

    def test_duplicate_names_rejected(self):
        from wrangle.errors import SchemaMismatch

        with pytest.raises(SchemaMismatch):
            Table((Column("a", CType.INT, ()), Column("a", CType.INT, ())))

    def test_cells_must_match_declared_type(self):
        from wrangle.errors import TypeMismatch

        with pytest.raises(TypeMismatch):
            Column("a", CType.INT, (1, "two"))

    def test_tables_are_immutable(self):
        t = text_table(["a"], [["x"]])
        with pytest.raises(AttributeError):
            t.columns = ()  # type: ignore[misc]

    def test_date_vs_timestamp_cells(self):
        # datetime is a date subclass; the kinds must not blur.
        from wrangle.errors import TypeMismatch

        with pytest.raises(TypeMismatch):
            Column("d", CType.DATE, (datetime(2020, 1, 1, 5),))
        Column("d", CType.DATE, (date(2020, 1, 1),))


_CELLS = {
    CType.TEXT: st.text(max_size=5),
    CType.INT: st.integers(-(2**63), 2**63 - 1),
    CType.REAL: st.floats(allow_nan=False),
    CType.DATE: st.dates(),
    CType.TIME: st.times(),
    CType.TIMESTAMP: st.datetimes(),
    CType.BOOL: st.booleans(),
}


@st.composite
def _take_cases(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(list(CType)), max_size=len(CType) + 1))
    columns = tuple(
        Column(
            f"c{i}",
            kind,
            tuple(draw(st.lists(st.none() | _CELLS[kind], min_size=n_rows, max_size=n_rows))),
        )
        for i, kind in enumerate(kinds)
    )
    if not n_rows:
        return Table(columns), []
    # Lists of indices are free to repeat and to run out of order.
    return Table(columns), draw(st.lists(st.integers(0, n_rows - 1), max_size=20))


_AB = table_from_rows(["a", "b"], [CType.INT, CType.TEXT], [(1, "x"), (None, None), (3, "")])


class TestTake:
    @settings(max_examples=300, deadline=None)
    @given(_take_cases())
    @example((Table(()), []))
    @example((_AB, []))
    @example((_AB, [2, 0, 2, 1, 0]))
    def test_matches_hand_rolled_copy(self, case):
        t, indices = case
        assert t.take(indices) == slowpaths.hand_rolled_take(t, indices)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)), max_size=8),
        data=st.data(),
    )
    @example(cells=[], data=None)
    def test_each_column_is_what_getitem_gives_index_by_index(self, cells, data):
        # Empty, single, repeated and unordered lists of indices, each in range.
        cells = tuple(cells)
        t = Table((Column._unchecked("c", CType.TEXT, cells),))
        lists = [[], *([[0], [len(cells) - 1] * 3, list(range(len(cells)))[::-1]] if cells else [])]
        if data is not None and cells:
            lists.append(data.draw(st.lists(st.integers(-len(cells), len(cells) - 1))))
        for indices in lists:
            assert t.take(indices).columns[0].cells == tuple(map(cells.__getitem__, indices))

    @pytest.mark.parametrize("indices", [[3], [0, 3], [3, 0, 1], [-4]])
    def test_an_index_out_of_range_raises_index_error(self, indices):
        with pytest.raises(IndexError):
            _AB.take(indices)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    pass


class _Day(date):
    pass


class _Instant(datetime):
    pass


# Cells of every Python type a column may meet: each kind's own, subclasses
# that ``isinstance`` accepts, and the cross-kind traps (a bool is an int, a
# datetime is a date).
_ANY_CELL = st.one_of(
    st.none(),
    *_CELLS.values(),
    st.sampled_from(list(_Level)),
    st.text(max_size=3).map(_Name),
    st.dates().map(lambda d: _Day.fromordinal(d.toordinal())),
    st.datetimes().map(lambda d: _Instant.combine(d.date(), d.time())),
)


@st.composite
def _check_cases(draw):
    kind = draw(st.sampled_from(list(CType)))
    own = st.none() | _CELLS[kind]
    # Half the columns hold only the kind's own cells; the rest mix in others.
    cell = own | _ANY_CELL if draw(st.booleans()) else own
    return kind, tuple(draw(st.lists(cell, max_size=8)))


def _check_outcome(check, kind, cells):
    """None if ``check`` accepts the cells, else its TypeMismatch message."""
    try:
        check("c", kind, cells)
    except TypeMismatch as exc:
        return str(exc)
    return None


# One exact-typed, null-free column of 50k cells per kind.
_EXACT_CELLS = {
    CType.TEXT: "x",
    CType.INT: 7,
    CType.REAL: 7.5,
    CType.DATE: date(2018, 2, 2),
    CType.TIME: time(12, 30),
    CType.TIMESTAMP: datetime(2018, 2, 2, 12, 30),
    CType.BOOL: True,
}


class TestPyTypes:
    """``_PY_TYPES``, each kind's Python type, is read in order by ``isinstance``."""

    def test_names_each_kind_once(self):
        kinds = [kind for kind, _ in table._PY_TYPES]
        assert sorted(kinds, key=list(CType).index) == list(CType)

    def test_no_type_is_a_subclass_of_an_earlier_one(self):
        types = [py_type for _, py_type in table._PY_TYPES]
        for i, py_type in enumerate(types):
            assert not any(issubclass(py_type, earlier) for earlier in types[:i]), py_type

    @pytest.mark.parametrize("kind", list(CType), ids=lambda k: k.value)
    def test_a_kinds_own_cell_is_of_that_kind(self, kind):
        assert kind_of_value(_EXACT_CELLS[kind]) is kind

    @pytest.mark.parametrize(
        "cell, kind",
        [(_Level.LOW, CType.INT), (_Name("x"), CType.TEXT), (_Day(2020, 1, 1), CType.DATE),
         (_Instant(2020, 1, 1), CType.TIMESTAMP)],
        ids=lambda v: type(v).__name__,
    )
    def test_a_subclass_cell_is_of_its_bases_kind(self, cell, kind):
        assert kind_of_value(cell) is kind


class TestColumnCheck:
    """The type-set check against the per-cell loop it short-cuts."""

    @settings(max_examples=500, deadline=None)
    @given(_check_cases())
    @example((CType.INT, ()))
    @example((CType.DATE, ()))
    @example((CType.INT, (None, 1, True, 2)))
    @example((CType.INT, (_Level.LOW, 2, None)))
    @example((CType.BOOL, (True, _Level.HIGH)))
    @example((CType.DATE, (date(2020, 1, 1), datetime(2020, 1, 1, 5))))
    @example((CType.DATE, (_Day(2020, 1, 1), None)))
    @example((CType.DATE, (_Instant(2020, 1, 1), date(2020, 1, 1))))
    @example((CType.TIMESTAMP, (_Instant(2020, 1, 1), datetime(2020, 1, 1), _Day(2020, 1, 1))))
    @example((CType.TEXT, (_Name("x"), "y", None, 1)))
    @example((CType.REAL, (1.0, 1)))
    def test_matches_per_cell_check(self, case):
        kind, cells = case
        want = _check_outcome(slowpaths.per_cell_column_check, kind, cells)
        assert _check_outcome(Column, kind, cells) == want

    @pytest.mark.parametrize("kind", list(CType), ids=lambda k: k.value)
    def test_exact_typed_column_skips_the_per_cell_loop(self, kind):
        cells = (_EXACT_CELLS[kind],) * 50_000
        with mock.patch("wrangle.table.cell_matches", wraps=cell_matches) as spy:
            Column("c", kind, cells)
            Column("c", kind, cells[:-1] + (None,))
        assert spy.call_count == 0

    def test_a_subclass_takes_the_per_cell_loop(self):
        with mock.patch("wrangle.table.cell_matches", wraps=cell_matches) as spy:
            Column("c", CType.INT, (1, _Level.LOW, 3))
        assert spy.call_count == 3
