"""Relational operators against their reference implementations."""

from __future__ import annotations

import math
import random
from datetime import date, time
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import opharness
import slowpaths
from conftest import assert_cells_close
from wrangle.errors import RequirementFailed, SchemaMismatch, TypeMismatch, UnknownColumn
from wrangle import relops
from wrangle.expr import (
    COMPARE_OPS,
    AggSpec,
    And,
    BinOp,
    ColRef,
    Compare,
    Neg,
    Not,
    Lit,
    Or,
    parse_mutate,
    parse_predicate,
)
from wrangle.table import Column, CType, Table, table_from_rows


def int_table(names, rows):
    return table_from_rows(names, [CType.INT] * len(names), rows)


class TestUnion:
    def test_rows_in_order(self):
        a = int_table(["x"], [[1], [2]])
        b = int_table(["x"], [[3], [4], [5]])
        got = relops.union(a, b)
        assert got.column("x").cells == (1, 2, 3, 4, 5)

    def test_empty_identity(self):
        a = int_table(["x"], [[1]])
        assert relops.union(a, int_table(["x"], [])).column("x").cells == (1,)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            relops.union(int_table(["x"], []), int_table(["y"], []))
        with pytest.raises(SchemaMismatch):
            relops.union(
                int_table(["x"], []),
                table_from_rows(["x"], [CType.REAL], []),
            )

    @pytest.mark.parametrize("kind", [CType.REAL, CType.INT, CType.TIMESTAMP, CType.TEXT])
    def test_blank_text_column_takes_the_other_sides_kind(self, kind):
        blank = table_from_rows(["x"], [CType.TEXT], [[None], [None]])
        typed = table_from_rows(["x"], [kind], [[None]])
        for a, b in ((blank, typed), (typed, blank)):
            col = relops.union(a, b).column("x")
            assert col.ctype is kind
            assert col.cells == (None,) * 3
            assert Column(col.name, col.ctype, col.cells) == col

    def test_blank_text_column_keeps_the_other_sides_cells(self):
        blank = table_from_rows(["x", "y"], [CType.TEXT, CType.INT], [[None, 1]])
        reals = table_from_rows(["x", "y"], [CType.REAL, CType.INT], [[1.5, 2], [None, 3]])
        got = relops.union(blank, reals)
        assert [c.ctype for c in got.columns] == [CType.REAL, CType.INT]
        assert got.column("x").cells == (None, 1.5, None)

    def test_text_with_a_value_or_no_cells_still_mismatches(self):
        reals = table_from_rows(["x"], [CType.REAL], [[1.5]])
        for text in (
            table_from_rows(["x"], [CType.TEXT], [[None], [""]]),
            table_from_rows(["x"], [CType.TEXT], []),
        ):
            for a, b in ((text, reals), (reals, text)):
                with pytest.raises(SchemaMismatch, match="'x' is"):
                    relops.union(a, b)

    def test_associative(self):
        rng = random.Random("union:assoc")
        for _ in range(10):
            a = opharness._plain_table(rng, rng.randrange(0, 20))
            b = opharness._plain_table(rng, rng.randrange(0, 20))
            c = opharness._plain_table(rng, rng.randrange(0, 20))
            left = relops.union(relops.union(a, b), c)
            right = relops.union(a, relops.union(b, c))
            assert opharness.rows_of(left) == opharness.rows_of(right)

    def test_against_oracle(self):
        opharness.run_batch("union", 25, "relops:union")


class TestSelect:
    def test_drop(self):
        t = int_table(["a", "b", "c"], [[1, 2, 3]])
        got = relops.select_columns(t, ["b"], "drop")
        assert got.column_names == ("a", "c")

    def test_keep_empty_gives_zero_width(self):
        t = int_table(["a"], [[1], [2]])
        got = relops.select_columns(t, [], "keep")
        assert got.column_names == ()
        assert got.row_count == 0

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            relops.select_columns(int_table(["a"], []), ["nope"], "keep")

    def test_against_oracle(self):
        opharness.run_batch("select", 25, "relops:select")


class TestFilter:
    def test_always_true_is_identity(self):
        t = int_table(["a"], [[1], [2], [3]])
        got = relops.filter_rows(t, parse_predicate("a >= 1 or a < 1"))
        assert got.column("a").cells == (1, 2, 3)

    def test_null_comparisons_false(self):
        t = table_from_rows(["a"], [CType.INT], [[1], [None], [3]])
        kept = relops.filter_rows(t, parse_predicate("a < 10"))
        assert kept.column("a").cells == (1, 3)
        inverse = relops.filter_rows(t, parse_predicate("not a < 10"))
        assert inverse.column("a").cells == (None,)

    def test_incompatible_kinds_rejected(self):
        t = table_from_rows(["h"], [CType.TIME], [])
        with pytest.raises(TypeMismatch):
            relops.filter_rows(t, parse_predicate("h == 5"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("h == 5", "column 'h' is time, cannot compare with int literal 5"),
            ("h > -1.5", "column 'h' is time, cannot compare with real literal -1.5"),
            ("h in (#17:00#, 'x')", "column 'h' is time, cannot compare with text literal 'x'"),
            ("5 < h", "literal 5 is int, cannot compare with time column 'h'"),
            ("h + 1 > 0", "column 'h' is time, arithmetic needs int or real"),
            ("n / 2 == h", "expression n / 2 is real, cannot compare with time column 'h'"),
        ],
    )
    def test_kind_mismatch_names_both_sides(self, text, message):
        t = table_from_rows(["h", "n"], [CType.TIME, CType.INT], [])
        with pytest.raises(TypeMismatch) as err:
            relops.filter_rows(t, parse_predicate(text))
        assert str(err.value) == message

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            relops.filter_rows(int_table(["a"], []), parse_predicate("b == 1"))

    def test_inputs_not_modified(self):
        t = int_table(["a"], [[1], [2]])
        before = opharness.rows_of(t)
        relops.filter_rows(t, parse_predicate("a == 1"))
        assert opharness.rows_of(t) == before

    def test_against_oracle(self):
        opharness.run_batch("filter", 40, "relops:filter")


class TestRequire:
    def test_empty_table_passes(self):
        t = int_table(["a"], [])
        assert relops.require(t, parse_predicate("a > 0")) is t

    def test_returns_the_input_table(self):
        t = int_table(["a", "b"], [[1, 2], [3, 4]])
        assert relops.require(t, parse_predicate("a > 0 and b > 1")) is t

    def test_null_cell_fails(self):
        t = table_from_rows(["a"], [CType.REAL], [[1.5], [None]])
        with pytest.raises(RequirementFailed, match="^row 1 "):
            relops.require(t, parse_predicate("a > 0"))

    def test_message_names_first_failing_row_and_canonical_predicate(self):
        t = int_table(["a", "b"], [[1, 9], [2, 9], [0, 0], [-1, 0]])
        with pytest.raises(RequirementFailed) as err:
            relops.require(t, parse_predicate("(`a`>=1)and b<5 or b==9"))
        assert str(err.value) == "row 2 does not meet a >= 1 and b < 5 or b == 9"

    def test_message_writes_a_column_named_like_an_aggregate_bare(self):
        with pytest.raises(RequirementFailed) as err:
            relops.require(int_table(["mean"], [[0]]), parse_predicate("`mean` > 0"))
        assert str(err.value) == "row 0 does not meet mean > 0"

    @pytest.mark.parametrize(
        "text, error", [("c > 0", UnknownColumn), ("a == 'x'", TypeMismatch)]
    )
    def test_bad_predicate_is_refused_before_any_row(self, text, error):
        with pytest.raises(error):
            relops.require(int_table(["a"], []), parse_predicate(text))
        with pytest.raises(error):
            relops.require(int_table(["a"], [[None]]), parse_predicate(text))

    def test_rule_between_two_columns_fails_at_the_first_row_that_breaks_it(self):
        t = table_from_rows(
            ["Gap", "Headway"],
            [CType.REAL, CType.REAL],
            [[1.0, 2.0], [2.0, 2.0], [3.0, 2.5], [None, 1.0]],
        )
        p = parse_predicate("Gap <= Headway")
        with pytest.raises(RequirementFailed) as err:
            relops.require(t, p)
        assert str(err.value) == "row 2 does not meet Gap <= Headway"
        assert relops.require(t.take([0, 1]), p).row_count == 2
        with pytest.raises(RequirementFailed, match="^row 0 "):
            relops.require(t.take([3]), p)  # a null on one side

    def test_fails_at_the_first_row_filter_drops(self):
        rng = random.Random("require:filter")
        p = parse_predicate("a >= 0")
        for _ in range(50):
            rows = [[rng.choice([None, -1, 0, 5])] for _ in range(rng.randrange(6))]
            t = table_from_rows(["a"], [CType.INT], rows)
            dropped = [i for i, (v,) in enumerate(rows) if v is None or v < 0]
            if not dropped:
                assert relops.require(t, p) is t
                assert relops.filter_rows(t, p).row_count == t.row_count
                continue
            with pytest.raises(RequirementFailed, match=f"^row {dropped[0]} "):
                relops.require(t, p)


class TestMutate:
    def test_constant(self):
        t = int_table(["a"], [[5], [6]])
        got = relops.mutate_column(t, "one", parse_mutate("1"))
        col = got.column("one")
        assert col.ctype is CType.REAL
        assert col.cells == (1.0, 1.0)

    def test_division_by_zero_cell_is_null(self):
        t = table_from_rows(
            ["speed", "zero"], [CType.REAL, CType.REAL], [[10.0, 0.0], [20.0, 2.0]]
        )
        got = relops.mutate_column(t, "q", parse_mutate("speed / zero"))
        assert got.column("q").cells == (None, 10.0)

    def test_null_operand_propagates(self):
        t = table_from_rows(["a"], [CType.REAL], [[None], [2.0]])
        got = relops.mutate_column(t, "twice", parse_mutate("a * 2"))
        assert got.column("twice").cells == (None, 4.0)

    def test_replaces_in_place(self):
        t = table_from_rows(["a", "b"], [CType.REAL, CType.REAL], [[1.0, 2.0]])
        got = relops.mutate_column(t, "a", parse_mutate("b + 1"))
        assert got.column_names == ("a", "b")
        assert got.column("a").cells == (3.0,)

    def test_row_wise_oracle(self):
        rng = random.Random("mutate:oracle")
        for _ in range(20):
            n = rng.randrange(0, 30)
            t = Table(
                (
                    opharness._real_col(rng, "x", n),
                    opharness._real_col(rng, "y", n),
                )
            )
            got = relops.mutate_column(t, "z", parse_mutate("x * 2 + y / 4 - 1"))
            for i in range(n):
                x, y = t.column("x").cells[i], t.column("y").cells[i]
                want = None if x is None or y is None else x * 2 + y / 4 - 1
                assert_cells_close(got.column("z").cells[i], want)

    @given(
        st.lists(st.tuples(st.none() | st.floats(), st.none() | st.integers(-3, 3)), max_size=12),
        st.sampled_from(["x * 2 + y / 4 - 1", "x / y", "y", "1"]),
    )
    def test_result_column_passes_the_checking_constructor(self, rows, expr):
        t = table_from_rows(["x", "y"], [CType.REAL, CType.INT], rows)
        col = relops.mutate_column(t, "z", parse_mutate(expr)).column("z")
        assert Column(col.name, col.ctype, col.cells) == col

    def test_text_column_rejected(self):
        t = table_from_rows(["s"], [CType.TEXT], [["hi"]])
        with pytest.raises(TypeMismatch):
            relops.mutate_column(t, "x", parse_mutate("s + 1"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s + 1", "column 's' is text, arithmetic needs int or real"),
            ("s", "column 's' is text, arithmetic needs int or real"),
            ("'s' * 2", "literal 's' is text, arithmetic needs int or real"),
            ("zz + s", "no column 'zz'"),
            ("s * -zz", "column 's' is text, arithmetic needs int or real"),
        ],
    )
    def test_first_bad_operand_in_the_tree_is_named(self, text, message):
        t = table_from_rows(["s"], [CType.TEXT], [["hi"]])
        with pytest.raises((TypeMismatch, UnknownColumn)) as err:
            relops.mutate_column(t, "x", parse_mutate(text))
        assert str(err.value) == message


class TestJoin:
    def test_link_length_arrives_by_merge(self):
        traffic = table_from_rows(
            ["Site ID", "Speed"],
            [CType.INT, CType.REAL],
            [[1083, 31.691], [1083, 40.39], [1084, 20.0]],
        )
        sites = table_from_rows(
            ["Site.ID", "LinkLength"], [CType.INT, CType.REAL], [[1083, 500.0]]
        )
        got = relops.join(traffic, sites, [("Site ID", "Site.ID")])
        assert got.column_names == ("Site ID", "Speed", "LinkLength")
        assert got.column("LinkLength").cells == (500.0, 500.0)

    def test_no_matches(self):
        left = int_table(["k"], [[1]])
        right = table_from_rows(["k", "v"], [CType.INT, CType.INT], [[2, 9]])
        assert relops.join(left, right, [("k", "k")]).row_count == 0

    def test_constant_right_row_appends_columns(self):
        left = int_table(["k", "a"], [[7, 1], [7, 2]])
        right = table_from_rows(["k", "c"], [CType.INT, CType.TEXT], [[7, "x"]])
        got = relops.join(left, right, [("k", "k")])
        assert got.column("a").cells == (1, 2)
        assert got.column("c").cells == ("x", "x")

    def test_key_kind_mismatch(self):
        left = int_table(["k"], [[1]])
        right = table_from_rows(["k"], [CType.TEXT], [["1"]])
        with pytest.raises(TypeMismatch):
            relops.join(left, right, [("k", "k")])

    def test_against_oracle(self):
        opharness.run_batch("join", 30, "relops:join")


class TestGroupSummarise:
    def test_two_speed_mean(self):
        # (31.691 + 40.390) / 2 computed by hand = 36.0405
        t = table_from_rows(
            ["Site.ID", "Speed"],
            [CType.INT, CType.REAL],
            [[1083, 31.691], [1083, 40.390]],
        )
        got = relops.group_summarise(t, ["Site.ID"], [AggSpec("m", "mean", "Speed")])
        assert got.row_count == 1
        assert_cells_close(got.column("m").cells[0], 36.0405)

    def test_single_row_identity(self):
        t = table_from_rows(["g", "v"], [CType.INT, CType.REAL], [[1, 12.5]])
        got = relops.group_summarise(t, ["g"], [AggSpec("m", "mean", "v")])
        assert got.column("m").cells == (12.5,)

    def test_sum_and_mean_add_left_to_right_on_every_python(self):
        # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum ends at 0.0;
        # the compensated sum() of Python 3.12+ would give 1.0.
        t = table_from_rows(["v"], [CType.REAL], [[1e16], [1.0], [-1e16]])
        aggs = [AggSpec("s", "sum", "v"), AggSpec("m", "mean", "v")]
        got = relops.group_summarise(t, [], aggs)
        assert got.column("s").cells == (0.0,)
        assert got.column("m").cells == (0.0,)

    def test_all_null_target_gives_null(self):
        t = table_from_rows(["g", "v"], [CType.INT, CType.REAL], [[1, None]])
        got = relops.group_summarise(t, ["g"], [AggSpec("m", "mean", "v")])
        assert got.column("m").cells == (None,)

    def test_counts_sum_to_row_count(self):
        rng = random.Random("group:counts")
        for _ in range(10):
            t = opharness._plain_table(rng, rng.randrange(0, 40))
            got = relops.group_summarise(
                t, list(t.column_names), [AggSpec("n", "count", None)]
            )
            assert sum(got.column("n").cells) == t.row_count

    @given(
        st.lists(
            st.tuples(
                st.none() | st.sampled_from(["a", "b"]),
                st.none() | st.integers(-3, 3),
                st.none() | st.floats(-10, 10),
            ),
            max_size=12,
        ),
        st.sampled_from([[], ["k"], ["k", "n"]]),
    )
    def test_result_columns_pass_the_checking_constructor(self, rows, by):
        t = table_from_rows(["k", "n", "v"], [CType.TEXT, CType.INT, CType.REAL], rows)
        aggs = [
            AggSpec("mean_v", "mean", "v"),
            AggSpec("sum_n", "sum", "n"),
            AggSpec("min_n", "min", "n"),
            AggSpec("max_k", "max", "k"),
            AggSpec("rows", "count", None),
        ]
        for col in relops.group_summarise(t, by, aggs).columns:
            assert Column(col.name, col.ctype, col.cells) == col

    def test_mean_requires_numeric(self):
        t = table_from_rows(["g", "s"], [CType.INT, CType.TEXT], [[1, "a"]])
        with pytest.raises(TypeMismatch):
            relops.group_summarise(t, ["g"], [AggSpec("m", "mean", "s")])

    def test_against_oracle(self):
        opharness.run_batch("group_summarise", 30, "relops:group")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_operators_are_deterministic(seed):
    rng1 = random.Random(seed)
    rng2 = random.Random(seed)
    t1 = opharness._plain_table(rng1, 15)
    t2 = opharness._plain_table(rng2, 15)
    p = parse_predicate("k >= 4 and s == 'red' or v < 0")
    assert opharness.rows_of(relops.filter_rows(t1, p)) == opharness.rows_of(
        relops.filter_rows(t2, p)
    )


# ---------------------------------------------------------------------------
# Compiled expressions against the row-wise interpreter
# ---------------------------------------------------------------------------

_NAMES = ("i", "j", "r", "s", "d", "t")
_KINDS = (CType.INT, CType.INT, CType.REAL, CType.TEXT, CType.DATE, CType.TIME)
_INTS = st.integers(-3, 3) | st.sampled_from([2**62, -(2**63)])
_REALS = st.floats() | st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan])
_VALUES = {
    CType.INT: _INTS,
    CType.REAL: _REALS,
    CType.TEXT: st.sampled_from(["", "a", "b", "wet", "dry"]),
    CType.DATE: st.sampled_from([date(2018, 2, 1), date(2018, 2, 2), date(2018, 2, 3)]),
    CType.TIME: st.sampled_from([time(0), time(17), time(17, 30), time(18)]),
}
# A literal fits its column's kind; ints and reals mix both ways.
_FITTING = {
    **_VALUES,
    CType.INT: _INTS | _REALS,
    CType.REAL: _REALS | _INTS,
}


def _expr_table(rows) -> Table:
    return table_from_rows(_NAMES, _KINDS, rows)


_tables = st.lists(
    st.tuples(*(st.none() | _VALUES[k] for k in _KINDS)), max_size=8
).map(_expr_table)


def _cmp(name, op, value):
    return Compare(ColRef(name), op, Lit(value))


def _in(name, values):
    """The tree ``name in (values)`` parses to."""
    return reduce(Or, (_cmp(name, "==", v) for v in values))


def _between(name, lo, hi):
    """The tree ``name between lo and hi`` parses to."""
    return And(_cmp(name, ">=", lo), _cmp(name, "<=", hi))


def _atoms(name, literal):
    """A column compared with literals: the only comparisons of the first grammar."""
    return st.one_of(
        st.builds(_cmp, name, st.sampled_from(COMPARE_OPS), literal),
        st.builds(_in, name, st.lists(literal, min_size=1, max_size=3)),
        st.builds(_between, name, literal, literal),
    )


_predicates = st.recursive(
    st.one_of(
        *(_atoms(st.just(n), _FITTING[k]) for n, k in zip(_NAMES, _KINDS)),
        # an unknown column or a literal of the wrong kind
        _atoms(st.sampled_from(_NAMES + ("zz",)), st.one_of(*_VALUES.values())),
    ),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=6,
)

_arithmetic = st.recursive(
    st.one_of(
        st.builds(ColRef, st.sampled_from(["i", "j", "r"])),
        st.builds(ColRef, st.sampled_from(_NAMES + ("zz",))),
        st.builds(Lit, st.integers(0, 3) | st.sampled_from([0.0, -0.0, 0.5, math.inf])),
    ),
    lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Neg, children),
    ),
    max_leaves=6,
)


def _outcome(op, *args):
    """The table ``op`` returns, cell by cell, or its error class and message.

    Cells compare by type and ``repr``, so NaN meets NaN and -0.0 differs
    from 0.0.
    """
    try:
        got = op(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(c.name, c.ctype, [(type(v), repr(v)) for v in c.cells]) for c in got.columns]


_NULLS = (None,) * 6
_ROW = (1, 0, 2.5, "a", date(2018, 2, 2), time(17, 30))


@settings(max_examples=500, deadline=None)
@given(_tables, _predicates, _arithmetic)
# null cells under not, and, or, in and between
@example(
    _expr_table([_NULLS, _ROW, _NULLS]),
    Or(
        And(Not(_cmp("i", "==", 1)), _in("s", ("a", "b"))),
        _between("t", time(17), time(18)),
    ),
    BinOp("+", ColRef("i"), ColRef("r")),
)
@example(
    _expr_table([_ROW, _NULLS]),
    And(Not(_between("d", date(2018, 2, 1), date(2018, 2, 3))), Not(_in("s", ("a",)))),
    Neg(ColRef("j")),
)
# NaN, +-inf and -0.0
@example(
    _expr_table([(0, 0, v, "a", None, None) for v in (math.nan, math.inf, -math.inf, -0.0, 0.0)]),
    Or(_in("r", (math.nan, -0.0)), _between("r", -math.inf, 0.0)),
    BinOp("*", ColRef("r"), Lit(-0.0)),
)
@example(
    _expr_table([(0, 0, v, "a", None, None) for v in (math.nan, math.inf, -math.inf, -0.0)]),
    _cmp("r", ">=", math.nan),
    BinOp("/", ColRef("r"), ColRef("r")),
)
# an int 0 divisor and a -0.0 divisor
@example(
    _expr_table([(1, 0, -0.0, "a", None, None), (2, 3, 1.5, "b", None, None)]),
    _cmp("j", "==", 0),
    BinOp("+", BinOp("/", ColRef("i"), ColRef("j")), BinOp("/", ColRef("i"), ColRef("r"))),
)
@example(
    _expr_table([_ROW]),
    _cmp("r", "!=", -0.0),
    BinOp("/", ColRef("r"), BinOp("-", Lit(0), Lit(0.0))),
)
# int/real mixing
@example(
    _expr_table([_ROW, (2, 3, 2.0, "b", None, None)]),
    Or(_cmp("i", "<", 1.5), _cmp("r", "==", 2)),
    BinOp("/", ColRef("i"), ColRef("j")),
)
# an empty table refuses an unknown column or a literal of the wrong kind
@example(_expr_table([]), _cmp("zz", "==", 1), Lit(1))
@example(_expr_table([]), And(_cmp("i", ">", 0), _cmp("d", "==", 5)), Lit(1))
# two bad columns: the first in the tree is named
@example(_expr_table([_ROW]), _cmp("i", ">", 0), BinOp("+", ColRef("zz"), ColRef("s")))
@example(_expr_table([_ROW]), _cmp("i", ">", 0), BinOp("*", ColRef("s"), Neg(ColRef("d"))))
def test_compiled_expressions_equal_the_row_wise_oracles(t, p, e):
    assert _outcome(relops.filter_rows, t, p) == _outcome(slowpaths.row_wise_filter_rows, t, p)
    assert _outcome(relops.require, t, p) == _outcome(slowpaths.row_wise_require, t, p)
    assert _outcome(relops.mutate_column, t, "m", e) == _outcome(
        slowpaths.row_wise_mutate_column, t, "m", e
    )



# Operand trees on both sides: columns, literals and arithmetic in any place.
_ARITH_OPS = st.sampled_from(["+", "-", "*", "/"])


def _arithmetic_over(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(BinOp, _ARITH_OPS, children, children), st.builds(Neg, children)
        ),
        max_leaves=4,
    )


# Any leaf, so that some trees name an unknown column or mix kinds wrongly.
_ANY_OPERANDS = _arithmetic_over(
    st.sampled_from(_NAMES + ("zz",)).map(ColRef) | st.one_of(*_VALUES.values()).map(Lit)
)
# ints and reals mix, with zero divisors among the literals and the cells
_NUMBERS = _arithmetic_over(st.sampled_from(["i", "j", "r"]).map(ColRef) | _FITTING[CType.INT].map(Lit))


def _operands_of(kind):
    if kind in (CType.INT, CType.REAL):
        return _NUMBERS
    return st.just(ColRef(_NAMES[_KINDS.index(kind)])) | _VALUES[kind].map(Lit)


@st.composite
def _comparisons(draw):
    operand = draw(st.sampled_from([*map(_operands_of, _KINDS), _ANY_OPERANDS]))
    shape = draw(st.sampled_from(["compare", "in", "between"]))
    left = draw(operand)
    if shape == "compare":
        return Compare(left, draw(st.sampled_from(COMPARE_OPS)), draw(operand))
    if shape == "in":  # the tree of left in (values)
        values = draw(st.lists(operand, min_size=1, max_size=3))
        return reduce(Or, (Compare(left, "==", v) for v in values))
    return And(Compare(left, ">=", draw(operand)), Compare(left, "<=", draw(operand)))


_operand_predicates = st.recursive(
    _comparisons(),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)

_RULE_TABLE = table_from_rows(
    ["Gap", "Headway", "LinkLength"],
    [CType.REAL, CType.REAL, CType.INT],
    [[1.5, 2.0, 0], [2.0, None, 500], [None, 1.0, 1], [3.0, 2.5, None], [0.5, 0.5, 2]],
)
_XAB_TABLE = table_from_rows(
    ["x", "a", "b"],
    [CType.INT, CType.REAL, CType.INT],
    [[1, 0.5, 2], [-2, -3.0, -2], [2, None, 3], [None, 0.0, 1], [3, 3.5, 0], [-1, 1.0, 1]],
)


@settings(max_examples=500, deadline=None)
@given(_tables, _operand_predicates, _NUMBERS | _ANY_OPERANDS)
# a rule between two columns, with a null on either side
@example(_RULE_TABLE, parse_predicate("Gap <= Headway"), parse_mutate("Headway - Gap"))
@example(_RULE_TABLE, parse_predicate("LinkLength / 2 > 0"), parse_mutate("LinkLength / 2"))
@example(_XAB_TABLE, parse_predicate("x between a and b"), parse_mutate("x / (b - 1)"))
@example(_XAB_TABLE, parse_predicate("-x in (1, -2)"), parse_mutate("-x * a"))
@example(_XAB_TABLE, parse_predicate("5 < x or a >= b"), parse_mutate("(a + b) / 2"))
# a literal whose kind no comparison or arithmetic takes
@example(_XAB_TABLE, parse_predicate("x > -'a'"), parse_mutate("'s' * 2"))
@example(_XAB_TABLE, parse_predicate("x + a == #17:00#"), parse_mutate("-#2018-02-01#"))
def test_operand_trees_equal_the_row_wise_oracles(t, p, e):
    assert _outcome(relops.filter_rows, t, p) == _outcome(slowpaths.row_wise_filter_rows, t, p)
    assert _outcome(relops.require, t, p) == _outcome(slowpaths.row_wise_require, t, p)
    assert _outcome(relops.mutate_column, t, "m", e) == _outcome(
        slowpaths.row_wise_mutate_column, t, "m", e
    )


_COMPARED: list = []


class _LoggedInt(int):
    """An int cell that logs each comparison it takes part in, by its row."""

    def __new__(cls, value, row):
        cell = super().__new__(cls, value)
        cell.row = row
        return cell

    def _log(self, op, other):
        _COMPARED.append((self.row, op, other))
        return getattr(int, op)(self, other)

    def __eq__(self, other):
        return self._log("__eq__", other)

    def __ne__(self, other):
        return self._log("__ne__", other)

    def __lt__(self, other):
        return self._log("__lt__", other)

    def __le__(self, other):
        return self._log("__le__", other)

    def __gt__(self, other):
        return self._log("__gt__", other)

    def __ge__(self, other):
        return self._log("__ge__", other)

    __hash__ = int.__hash__


_int_predicates = st.recursive(
    _atoms(st.just("i"), st.integers(-2, 2)),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.none() | st.integers(-2, 2), max_size=8), _int_predicates)
def test_compiled_predicates_compare_the_cells_the_row_wise_oracle_compares(cells, p):
    t = Table((Column("i", CType.INT, tuple(
        None if v is None else _LoggedInt(v, row) for row, v in enumerate(cells)
    )),))
    _COMPARED.clear()
    want = slowpaths.row_wise_filter_rows(t, p)
    compared = sorted(_COMPARED)
    _COMPARED.clear()
    assert relops.filter_rows(t, p) == want
    assert sorted(_COMPARED) == compared
