"""Predicate/mutate/aggregation grammars, the canonical formatters, and
parse(format(e)) == e over random trees."""

from __future__ import annotations

import itertools
import math
import re
import sys
from datetime import date, time

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from wrangle.errors import ParseError
from wrangle.expr import (
    AggSpec,
    And,
    Between,
    BinOp,
    ColRef,
    Compare,
    InList,
    Neg,
    Lit,
    Not,
    Or,
    _format_ident,
    _format_literal,
    _tokenize,
    format_agg,
    format_mutate,
    format_predicate,
    parse_agg,
    parse_mutate,
    parse_predicate,
)


class TestPredicateParsing:
    def test_time_window(self):
        e = parse_predicate("`Hours` >= #17:00# and `Hours` < #18:00#")
        assert e == And(
            Compare(ColRef("Hours"), ">=", Lit(time(17, 0))),
            Compare(ColRef("Hours"), "<", Lit(time(18, 0))),
        )

    def test_string_compare(self):
        e = parse_predicate("`Direction Name` == 'South'")
        assert e == Compare(ColRef("Direction Name"), "==", Lit("South"))

    def test_and_binds_tighter_than_or(self):
        e = parse_predicate("a == 1 or b == 2 and c == 3")
        assert e == Or(
            Compare(ColRef("a"), "==", Lit(1)),
            And(Compare(ColRef("b"), "==", Lit(2)), Compare(ColRef("c"), "==", Lit(3))),
        )

    def test_parens_override(self):
        e = parse_predicate("(a == 1 or b == 2) and c == 3")
        assert e == And(
            Or(Compare(ColRef("a"), "==", Lit(1)), Compare(ColRef("b"), "==", Lit(2))),
            Compare(ColRef("c"), "==", Lit(3)),
        )

    def test_left_associative_chain(self):
        e = parse_predicate("a == 1 and b == 2 and c == 3")
        assert e == And(
            And(Compare(ColRef("a"), "==", Lit(1)), Compare(ColRef("b"), "==", Lit(2))),
            Compare(ColRef("c"), "==", Lit(3)),
        )

    def test_in_and_between(self):
        assert parse_predicate("x in (1, 2, 3)") == InList(
            ColRef("x"), (Lit(1), Lit(2), Lit(3))
        )
        assert parse_predicate("d between #2018-02-01# and #2018-02-28#") == Between(
            ColRef("d"), Lit(date(2018, 2, 1)), Lit(date(2018, 2, 28))
        )

    def test_not(self):
        assert parse_predicate("not x == 1") == Not(Compare(ColRef("x"), "==", Lit(1)))
        assert parse_predicate("not (a == 1 or b == 2)") == Not(
            Or(Compare(ColRef("a"), "==", Lit(1)), Compare(ColRef("b"), "==", Lit(2)))
        )

    def test_negative_number_literal(self):
        e = parse_predicate("x > -1.5")
        assert e == Compare(ColRef("x"), ">", Neg(Lit(1.5)))
        assert format_predicate(e) == "x > -1.5"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_literal_is_refused_by_the_formatter(self, value):
        # its text (nan, inf) would parse back as a column name
        with pytest.raises(ValueError, match="cannot be written in the grammar"):
            format_predicate(Compare(ColRef("r"), ">=", Lit(value)))
        with pytest.raises(ValueError, match="cannot be written in the grammar"):
            format_mutate(BinOp("*", ColRef("r"), Lit(value)))

    def test_backticks_allow_dots_and_spaces(self):
        assert parse_predicate("`Site.ID` == 1083") == Compare(ColRef("Site.ID"), "==", Lit(1083))

    def test_columns_on_both_sides(self):
        assert parse_predicate("Gap <= Headway") == Compare(ColRef("Gap"), "<=", ColRef("Headway"))
        assert parse_predicate("5 < x") == Compare(Lit(5), "<", ColRef("x"))
        assert parse_predicate("x between a and b + 1") == Between(
            ColRef("x"), ColRef("a"), BinOp("+", ColRef("b"), Lit(1))
        )
        assert parse_predicate("-x in (1, -2)") == InList(
            Neg(ColRef("x")), (Lit(1), Neg(Lit(2)))
        )

    def test_arithmetic_binds_tighter_than_comparison(self):
        assert parse_predicate("LinkLength / 2 > 0") == Compare(
            BinOp("/", ColRef("LinkLength"), Lit(2)), ">", Lit(0)
        )
        assert parse_predicate("(a + b) / 2 > c") == Compare(
            BinOp("/", BinOp("+", ColRef("a"), ColRef("b")), Lit(2)), ">", ColRef("c")
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x ==",
            "x == 1 and",
            "x = 1",
            "(x == 1",
            "x in ()",
            "x between 1",
            "#25:99# == x",
            "x == 'unterminated",
            "x > 1e999",
            "x in (1, 1e400)",
            "a > " + "1" * 5000,
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_predicate(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a value where a truth belongs: a comparison should follow it
            ("x", "unexpected end at position 1"),
            ("(x)", "unexpected end at position 3"),
            ("a and b > 1", "unexpected and at position 2"),
            ("b > 1 or a", "unexpected end at position 10"),
            ("not a + 1", "unexpected end at position 9"),
            # a truth where a value belongs
            ("(a > 1) + 2 > 0", "'+' takes values, not conditions at position 8"),
            ("(a > 1) > 0", "'>' takes values, not conditions at position 8"),
            ("x in (1, (a == 1))", "'in' takes values, not conditions at position 2"),
            ("-(a > 1) < 0", "'-' takes values, not conditions at position 0"),
        ],
    )
    def test_truths_and_values_each_in_their_place(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_predicate(text)

    def test_error_carries_position_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_predicate("x == 1 oops y == 2")
        assert err.value.pos == 7
        assert "end" in err.value.expected


class TestMutateParsing:
    def test_precedence(self):
        e = parse_mutate("a + b * 2")
        assert e == BinOp("+", ColRef("a"), BinOp("*", ColRef("b"), Lit(2)))

    def test_unary_minus(self):
        assert parse_mutate("-a / 2") == BinOp("/", Neg(ColRef("a")), Lit(2))

    def test_parens(self):
        e = parse_mutate("(a + b) / 2")
        assert e == BinOp("/", BinOp("+", ColRef("a"), ColRef("b")), Lit(2))

    def test_mph_conversion_shape(self):
        assert parse_mutate("Speed * 0.44704") == BinOp(
            "*", ColRef("Speed"), Lit(0.44704)
        )

    @pytest.mark.parametrize("text", ["x * 1e999", "-.5e309"])
    def test_number_literal_that_is_not_finite(self, text):
        with pytest.raises(ParseError, match="not finite"):
            parse_mutate(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a > 1", "unexpected > at position 2"),
            ("(a > 1)", "a mutate expression is a value, not a condition at position 0"),
            ("(a > 1) + 2", "'+' takes values, not conditions at position 8"),
        ],
    )
    def test_a_mutate_is_a_value(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_mutate(text)


class TestAggParsing:
    def test_mean(self):
        assert parse_agg("mean_speed = mean(Speed)") == AggSpec(
            "mean_speed", "mean", "Speed"
        )

    def test_count(self):
        assert parse_agg("n = count()") == AggSpec("n", "count", None)

    def test_unsupported_func(self):
        with pytest.raises(ParseError):
            parse_agg("x = median(Speed)")

    def test_count_with_argument(self):
        with pytest.raises(ParseError):
            parse_agg("n = count(Speed)")

    def test_mean_without_argument(self):
        with pytest.raises(ParseError):
            parse_agg("m = mean()")

    def test_backticked_target(self):
        assert parse_agg("m = min(`Site ID`)") == AggSpec("m", "min", "Site ID")


# ---------------------------------------------------------------------------
# format/parse round trips over random trees
# ---------------------------------------------------------------------------

_idents = st.one_of(
    st.sampled_from(["a", "b2", "Speed", "Site.ID", "Direction Name", "_x"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
)

_texts = st.text(alphabet="abcXYZ _-", max_size=8)
_times = st.times().map(lambda t: t.replace(microsecond=0))
_dates = st.dates(min_value=date(1800, 1, 1), max_value=date(2200, 12, 31))
_literals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e9, max_value=1e9),
    _texts,
    _times,
    _dates,
)

# The parser reads a negative number as '-' applied to a number, so the
# literals of parsed trees are not negative.
_operands = st.recursive(
    st.one_of(
        st.builds(ColRef, _idents),
        st.builds(Lit, st.integers(min_value=0, max_value=10**6)),
        st.builds(
            Lit, st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e9)
        ),
        st.builds(Lit, _texts | _times | _dates),
    ),
    lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Neg, children),
    ),
    max_leaves=6,
)

_COMPARE_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])


def _combined(atoms, max_leaves):
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        ),
        max_leaves=max_leaves,
    )


_predicates = _combined(
    st.one_of(
        st.builds(Compare, _operands, _COMPARE_OPS, _operands),
        st.builds(InList, _operands, st.lists(_operands, min_size=1, max_size=3).map(tuple)),
        st.builds(Between, _operands, _operands, _operands),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_predicates)
def test_predicate_format_parse_round_trip(e):
    assert parse_predicate(format_predicate(e)) == e


@settings(max_examples=200, deadline=None)
@given(_operands)
def test_mutate_format_parse_round_trip(e):
    assert parse_mutate(format_mutate(e)) == e


# The first grammar compared a column with a literal only. Its trees were
# Compare(column, op, value), InList(column, values) and Between(column,
# lo, hi); each pair below is such a predicate as a tree of today's nodes,
# and the text its formatter gave, built by its rules.

def _lit(value):
    if isinstance(value, (int, float)) and math.copysign(1, value) < 0:
        return Neg(Lit(-value))
    return Lit(value)


def _old_compare(column, op, value):
    text = f"{_format_ident(column)} {op} {_format_literal(value)}"
    return Compare(ColRef(column), op, _lit(value)), text


def _old_in(column, values):
    inner = ", ".join(map(_format_literal, values))
    return InList(ColRef(column), tuple(map(_lit, values))), f"{_format_ident(column)} in ({inner})"


def _old_between(column, lo, hi):
    text = f"{_format_ident(column)} between {_format_literal(lo)} and {_format_literal(hi)}"
    return Between(ColRef(column), _lit(lo), _lit(hi)), text


def _wrapped(pair, types):
    return f"({pair[1]})" if isinstance(pair[0], types) else pair[1]


def _old_and(left, right):
    text = f"{_wrapped(left, Or)} and {_wrapped(right, (And, Or))}"
    return And(left[0], right[0]), text


def _old_or(left, right):
    return Or(left[0], right[0]), f"{left[1]} or {_wrapped(right, Or)}"


def _old_not(operand):
    return Not(operand[0]), f"not {_wrapped(operand, (And, Or))}"


_old_predicates = st.recursive(
    st.one_of(
        st.builds(_old_compare, _idents, _COMPARE_OPS, _literals),
        st.builds(_old_in, _idents, st.lists(_literals, min_size=1, max_size=4)),
        st.builds(_old_between, _idents, _literals, _literals),
    ),
    lambda children: st.one_of(
        st.builds(_old_and, children, children),
        st.builds(_old_or, children, children),
        st.builds(_old_not, children),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_old_predicates)
@example(_old_compare("x", ">", -1.5))
@example(_old_compare("r", "!=", -0.0))
@example(_old_in("x", [1, -2, "a"]))
def test_first_grammar_texts_format_as_before(tree_text):
    tree, text = tree_text
    assert format_predicate(tree) == text
    assert parse_predicate(text) == tree


@given(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["mean", "sum", "count", "min", "max"]),
    _idents,
)
def test_agg_format_parse_round_trip(name, func, target):
    spec = AggSpec(name, func, None if func == "count" else target)
    assert parse_agg(format_agg(spec)) == spec


# ---------------------------------------------------------------------------
# The tokenizer against the character loop it replaced (kept in slowpaths)
# ---------------------------------------------------------------------------

def tokens_or_error(tokenize, text):
    """(kind, value, pos) of every token, or the ParseError's message and position."""
    try:
        return [(t.kind, t.value, t.pos) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.pos


def assert_same_tokens(text):
    try:
        expected = tokens_or_error(slowpaths.char_loop_tokenize, text)
    except ValueError:
        # The loop lets int()'s digit limit escape; the tokenizer names the literal.
        with pytest.raises(ParseError, match="digits is too long") as err:
            _tokenize(text)
        assert re.match(rf"\d{{{sys.get_int_max_str_digits() + 1}}}", text[err.value.pos :])
        return
    assert tokens_or_error(_tokenize, text) == expected, text


def test_tokenizer_equals_the_char_loop_on_every_short_text():
    """Every text of up to four characters over an alphabet that reaches each
    token kind and each tokenizer error."""
    for n in range(5):
        for chars in itertools.product("a_1.e`'#=!< -²(:", repeat=n):
            assert_same_tokens("".join(chars))


_TOKEN_CHARS = st.sampled_from(list("aZ_19.eE+-*/`'#=!<>(), \t\n:²٣é"))


@settings(max_examples=500, deadline=None)
@given(st.text(_TOKEN_CHARS | st.characters(), max_size=30))
@example("x == ``")  # empty backtick identifier
@example("`Site ID")  # unterminated literals
@example("x == 'South")
@example("t < #17:00")
@example("t < #24:00#")  # a #...# literal that is neither date nor time
@example("x > 1e999")  # not finite
@example("x > .")  # a lone dot
@example("x ! 1")
@example("²x")  # a digit that is not a letter starts no word
@example("x² > ١٢.٣")  # Arabic-Indic digits make a number
@example("a > " + "1" * 4301)  # past int()'s digit limit
def test_tokenizer_equals_the_char_loop(text):
    assert_same_tokens(text)
