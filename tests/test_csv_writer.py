"""The block writer against the row-wise writer it replaced (kept in
:mod:`slowpaths`): both must give the same bytes for every table, and each
kind's slice formatter the same fields as the per-cell writer."""

from __future__ import annotations

import gc
import math
import tracemalloc
from datetime import date, datetime, time, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from wrangle import table
from wrangle.errors import TypeMismatch
from wrangle.gen import GenConfig, generate
from wrangle.table import Column, CType, Table, infer_column_types, parse_csv, write_csv

_INT64 = (-(2**63), 2**63 - 1)
_ZONES = st.sampled_from(
    [timezone.utc, timezone(timedelta(hours=-5, minutes=-30)), timezone(timedelta(seconds=1))]
)
# Whole hundredths, and the microseconds that the two printed digits truncate.
_MICROS = st.sampled_from([0, 0, 5, 10_000, 180_000, 999_999]) | st.integers(0, 999_999)


def _with_micros(values):
    return st.builds(lambda v, us: v.replace(microsecond=us), values, _MICROS)


_AWARE = {
    CType.TIME: _with_micros(st.times(timezones=_ZONES)),
    CType.TIMESTAMP: _with_micros(st.datetimes(timezones=_ZONES)),
}


_CELLS = {
    CType.TEXT: st.sampled_from(["", "a", "a,b", 'say "hi"', "l1\nl2", "\r", "x\r\ny", "é", "None"])
    | st.text(max_size=5),
    CType.INT: st.sampled_from([0, -1, *_INT64]) | st.integers(*_INT64),
    CType.REAL: st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300])
    | st.floats(),
    CType.BOOL: st.booleans(),
    CType.DATE: st.dates(),
    CType.TIME: _with_micros(st.times()),
    CType.TIMESTAMP: _with_micros(st.datetimes()),
}
_NAMES = st.sampled_from(["a", "b", "", "c,d", 'q"t', "l\nm", "x y", "é"]) | st.text(max_size=3)


@st.composite
def tables(draw, max_rows: int = 12):
    """Tables of every kind, with nulls, including zero rows and zero columns."""
    width = draw(st.integers(0, 4))
    n_rows = draw(st.integers(0, max_rows)) if width else 0
    names = draw(st.lists(_NAMES, min_size=width, max_size=width, unique=True))
    columns = []
    for name in names:
        ctype = draw(st.sampled_from(list(CType)))
        cells = draw(st.lists(st.none() | _CELLS[ctype], min_size=n_rows, max_size=n_rows))
        columns.append(Column(name, ctype, tuple(cells)))
    return Table(tuple(columns))


def _column(ctype, cells):
    return Table((Column("x", ctype, tuple(cells)),))


class TestWriteDifferential:
    @settings(max_examples=500, deadline=None)
    @given(tables(), st.integers(1, 5))
    @example(Table(()), 1)  # zero columns
    @example(_column(CType.TEXT, []), 1)  # zero rows
    @example(_column(CType.TEXT, ["", None, "a"]), 4)  # empty text vs null
    @example(_column(CType.TEXT, ["a,b", 'q"', "\r", "l1\nl2"]), 2)
    @example(_column(CType.TIMESTAMP, [datetime(2018, 2, 1, 0, 0, 1, 5)]), 1)
    @example(_column(CType.TIMESTAMP, [datetime(2018, 2, 1, 23, 59, 59, 999_999)]), 1)
    @example(_column(CType.TIME, [time(0, 0, 1, 5), time(23, 59, 59, 999_999)]), 1)
    @example(_column(CType.REAL, [math.nan, math.inf, -math.inf, -0.0, None]), 5)
    @example(_column(CType.INT, [*_INT64, None]), 2)
    @example(_column(CType.BOOL, [True, None, False]), 3)
    @example(_column(CType.DATE, [date(1, 1, 1), None, date(9999, 12, 31)]), 2)
    @example(Table((Column('a "b",c', CType.INT, ()), Column("", CType.TEXT, ()))), 1)
    def test_equals_row_wise(self, t, block_rows):
        with mock.patch.object(table, "_WRITE_BLOCK_ROWS", block_rows):
            assert write_csv(t) == slowpaths.row_wise_write_csv(t)

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4, 5, table._WRITE_BLOCK_ROWS])
    def test_row_counts_around_the_block_size(self, block_rows):
        for n in (block_rows - 1, block_rows, block_rows + 1, 2 * block_rows + 1):
            t = Table(
                (
                    Column("i", CType.INT, tuple(range(n))),
                    Column("s", CType.TEXT, tuple(f"r{i}" if i % 3 else "" for i in range(n))),
                    Column("r", CType.REAL, tuple(None if i % 5 else i / 7 for i in range(n))),
                )
            )
            with mock.patch.object(table, "_WRITE_BLOCK_ROWS", block_rows):
                assert write_csv(t) == slowpaths.row_wise_write_csv(t), n

    def test_plain_text_slice_is_written_as_is(self):
        cells = ("a", "b c", "'0001083")
        assert table._format_slice(CType.TEXT, cells) is cells


class _Stamp(datetime):
    """A datetime subclass: ``Column`` takes it through its per-cell check."""


_NON_TEXT = [kind for kind in CType if kind is not CType.TEXT]
_ONE_DAY = date(2018, 2, 1)


@st.composite
def slices(draw, max_cells: int = 12):
    """A non-text kind and a slice of its cells with nulls, some with repeats."""
    ctype = draw(st.sampled_from(_NON_TEXT))
    values = _CELLS[ctype]
    if draw(st.booleans()):  # few distinct values, so that most repeat
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))
    return ctype, tuple(draw(st.lists(st.none() | values, max_size=max_cells)))


def _stamps(*micros):
    return tuple(datetime(2018, 2, 1, 7, 5, 9, us) for us in micros)


class TestFormatSlice:
    """Each kind's slice formatter on its own, against the per-cell writer."""

    @settings(max_examples=600, deadline=None)
    @given(slices())
    @example((CType.TIMESTAMP, (datetime(2018, 11, 4, 1, 30, fold=1), None)))
    @example((CType.TIME, (time(1, 30, 15, 180_000, fold=1),)))
    @example((CType.TIMESTAMP, _stamps(1, 9_999, 10_000, 999_999, 0)))
    @example((CType.TIME, tuple(t.time() for t in _stamps(1, 9_999, 10_000, 999_999, 0))))
    @example((CType.TIMESTAMP, (datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999_999))))
    @example((CType.DATE, (date(1, 1, 1), date(9999, 12, 31))))
    @example((CType.DATE, (_ONE_DAY, None, _ONE_DAY, date(1, 1, 1), date(1, 1, 1))))  # memo
    @example((CType.DATE, (_ONE_DAY, date(2018, 2, 2), date(2018, 2, 3), None)))  # no repeat
    @example((CType.TIMESTAMP, (*_stamps(0, 5), datetime(2018, 2, 2), *_stamps(180_000))))
    @example((CType.TIMESTAMP, (_Stamp(2018, 2, 1, 7, 5, 9, 180_000), _stamps(0)[0])))
    @example((CType.INT, (None, None)))
    @example((CType.TIMESTAMP, ()))
    def test_equals_the_per_cell_fields(self, ctype_cells):
        ctype, cells = ctype_cells
        Column("x", ctype, cells)  # a slice any column could hold
        got = list(table._format_slice(ctype, cells))
        assert got == [slowpaths._write_field(v) for v in cells]

    def test_every_kind_but_text_has_a_slice_formatter(self):
        # A kind added without a formatter fails here by name, not with a
        # KeyError in whichever write first meets it.
        assert set(table._FORMATTERS) == set(_NON_TEXT)

    @settings(max_examples=300, deadline=None)
    @given(_with_micros(st.datetimes()))
    @example(datetime(1, 1, 1))
    @example(datetime(9999, 12, 31, 23, 59, 59, 999_999, fold=1))
    @example(datetime(2018, 2, 1, 0, 0, 1, 1))
    @example(datetime(2018, 2, 1, 0, 0, 1, 9_999))
    @example(datetime(2018, 2, 1, 0, 0, 1, 10_000))
    def test_time_text_is_the_naive_str_cut_to_hundredths(self, v):
        # The writer shares format_time with the per-cell writer, so the text
        # is pinned here against ``str``, which the writer once cut.
        assert table.format_cell(v) == str(v)[:22]
        assert table.format_cell(v.time()) == str(v.time())[:11]


class TestAwareValues:
    """The dialect writes no UTC offset, so a column refuses an aware time
    or timestamp rather than have it read back naive, at another instant."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([CType.TIME, CType.TIMESTAMP]).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.lists(st.none() | _CELLS[kind], max_size=4),
                _AWARE[kind],
                st.lists(st.none() | _CELLS[kind] | _AWARE[kind], max_size=4),
            )
        )
    )
    @example((CType.TIMESTAMP, [], datetime(2018, 2, 1, tzinfo=timezone.utc), []))
    @example((CType.TIMESTAMP, [], datetime(2018, 2, 1, 0, 0, 0, 5, timezone.utc), []))
    @example((CType.TIME, [], time(7, 5, tzinfo=timezone.utc), [time(7, 5)]))
    @example((CType.TIME, [], time(7, 5, 0, 180_000, timezone.utc), []))
    @example((CType.TIMESTAMP, [_stamps(5)[0]], datetime(2018, 2, 1, tzinfo=timezone.utc), []))
    @example((CType.TIME, [time(7, 5), None], time(7, 5, 0, 5, timezone.utc), [None]))
    def test_column_names_the_first_aware_cell(self, case):
        kind, naive, aware, rest = case
        cells = (*naive, aware, *rest)
        with pytest.raises(TypeMismatch) as err:
            Column("x", kind, cells)
        assert str(err.value) == f"column 'x' is {kind.value} but cell {len(naive)} is {aware!r}"


class TestMemory:
    def test_peak_no_higher_than_the_row_wise_writer(self, tmp_path):
        # tracemalloc counts are deterministic, so this needs no timing.
        paths = generate(GenConfig(seed=7, sites=2, rows_per_site=20_000), tmp_path)
        t = infer_column_types(parse_csv(paths[0].read_bytes()))
        assert t.row_count == 20_000 and t.row_count > 4 * table._WRITE_BLOCK_ROWS

        def peak(write):
            gc.collect()
            tracemalloc.start()
            try:
                write(t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(write_csv) <= peak(slowpaths.row_wise_write_csv)
