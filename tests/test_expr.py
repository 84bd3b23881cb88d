"""Predicate/mutate/aggregation grammars, the canonical formatters, and
parse(format(e)) == e over random trees."""

from __future__ import annotations

import itertools
import math
import re
import sys
from datetime import date, time
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import slowpaths
from wrangle.errors import ParseError
from wrangle.expr import (
    AggSpec,
    And,
    BinOp,
    ColRef,
    Compare,
    Neg,
    Lit,
    Not,
    Or,
    _format_ident,
    _format_literal,
    _tokenize,
    format_expr,
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

    def test_in_and_between_are_comparisons(self):
        x, d = ColRef("x"), ColRef("d")
        assert parse_predicate("x in (1, 2, 3)") == Or(
            Or(Compare(x, "==", Lit(1)), Compare(x, "==", Lit(2))), Compare(x, "==", Lit(3))
        )
        assert parse_predicate("d between #2018-02-01# and #2018-02-28#") == And(
            Compare(d, ">=", Lit(date(2018, 2, 1))), Compare(d, "<=", Lit(date(2018, 2, 28)))
        )
        assert format_expr(parse_predicate("x in (1, 2)")) == "x == 1 or x == 2"

    def test_not(self):
        assert parse_predicate("not x == 1") == Not(Compare(ColRef("x"), "==", Lit(1)))
        assert parse_predicate("not (a == 1 or b == 2)") == Not(
            Or(Compare(ColRef("a"), "==", Lit(1)), Compare(ColRef("b"), "==", Lit(2)))
        )

    def test_negative_number_literal(self):
        e = parse_predicate("x > -1.5")
        assert e == Compare(ColRef("x"), ">", Neg(Lit(1.5)))
        assert format_expr(e) == "x > -1.5"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_literal_is_refused_by_the_formatter(self, value):
        # its text (nan, inf) would parse back as a column name
        with pytest.raises(ValueError, match="cannot be written in the grammar"):
            format_expr(Compare(ColRef("r"), ">=", Lit(value)))
        with pytest.raises(ValueError, match="cannot be written in the grammar"):
            format_expr(BinOp("*", ColRef("r"), Lit(value)))

    def test_backticks_allow_dots_and_spaces(self):
        assert parse_predicate("`Site.ID` == 1083") == Compare(ColRef("Site.ID"), "==", Lit(1083))

    def test_columns_on_both_sides(self):
        assert parse_predicate("Gap <= Headway") == Compare(ColRef("Gap"), "<=", ColRef("Headway"))
        assert parse_predicate("5 < x") == Compare(Lit(5), "<", ColRef("x"))
        assert parse_predicate("x between a and b + 1") == And(
            Compare(ColRef("x"), ">=", ColRef("a")),
            Compare(ColRef("x"), "<=", BinOp("+", ColRef("b"), Lit(1))),
        )
        assert parse_predicate("-x in (1, -2)") == Or(
            Compare(Neg(ColRef("x")), "==", Lit(1)), Compare(Neg(ColRef("x")), "==", Neg(Lit(2)))
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


def _in(operand, values):
    """The tree ``operand in (values)`` parses to."""
    return reduce(Or, (Compare(operand, "==", v) for v in values))


def _between(operand, lo, hi):
    """The tree ``operand between lo and hi`` parses to."""
    return And(Compare(operand, ">=", lo), Compare(operand, "<=", hi))


_predicates = _combined(
    st.one_of(
        st.builds(Compare, _operands, _COMPARE_OPS, _operands),
        st.builds(_in, _operands, st.lists(_operands, min_size=1, max_size=3)),
        st.builds(_between, _operands, _operands, _operands),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_predicates)
def test_predicate_format_parse_round_trip(e):
    assert parse_predicate(format_expr(e)) == e


@settings(max_examples=200, deadline=None)
@given(_operands)
def test_mutate_format_parse_round_trip(e):
    assert parse_mutate(format_expr(e)) == e


# The first grammar compared a column with a literal only: a comparison, an
# ``in`` list or a ``between``. Each pair below is such a predicate as a tree
# of today's nodes, and the text its formatter gave, built by its rules;
# ``in`` and ``between`` are given as the comparisons they parse to, as the
# formatter prints them.

def _lit(value):
    if isinstance(value, (int, float)) and math.copysign(1, value) < 0:
        return Neg(Lit(-value))
    return Lit(value)


def _old_compare(column, op, value):
    text = f"{_format_ident(column)} {op} {_format_literal(value)}"
    return Compare(ColRef(column), op, _lit(value)), text


def _old_in(column, values):
    return reduce(_old_or, (_old_compare(column, "==", v) for v in values))


def _old_between(column, lo, hi):
    return _old_and(_old_compare(column, ">=", lo), _old_compare(column, "<=", hi))


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
    assert format_expr(tree) == text
    assert parse_predicate(text) == tree


# ``in`` and ``between`` texts beside their expansions: each triple is the
# text with ``in``/``between``, the same text with each of them written out
# in parentheses, and whether the text is one clause that needs no
# parentheses under ``not``, ``and`` or ``or``.

def _sugar_in(operand, values):
    texts = [format_expr(v) for v in values]
    left = format_expr(operand)
    expanded = " or ".join(f"{left} == {v}" for v in texts)
    return f"{left} in ({', '.join(texts)})", f"({expanded})", True


def _sugar_between(operand, lo, hi):
    left, lo, hi = format_expr(operand), format_expr(lo), format_expr(hi)
    return f"{left} between {lo} and {hi}", f"({left} >= {lo} and {left} <= {hi})", True


def _sugar_compare(left, op, right):
    text = f"{format_expr(left)} {op} {format_expr(right)}"
    return text, text, True


def _clause(triple, index):
    return triple[index] if triple[2] else f"({triple[index]})"


def _sugar_connect(word):
    def connect(left, right):
        return tuple(f"{_clause(left, i)} {word} {_clause(right, i)}" for i in (0, 1)) + (False,)

    return connect


def _sugar_not(operand):
    return tuple(f"not {_clause(operand, i)}" for i in (0, 1)) + (True,)


_sugared = st.recursive(
    st.one_of(
        st.builds(_sugar_in, _operands, st.lists(_operands, min_size=1, max_size=3)),
        st.builds(_sugar_between, _operands, _operands, _operands),
        st.builds(_sugar_compare, _operands, _COMPARE_OPS, _operands),
    ),
    lambda children: st.one_of(
        st.builds(_sugar_connect("and"), children, children),
        st.builds(_sugar_connect("or"), children, children),
        st.builds(_sugar_not, children),
    ),
    max_leaves=6,
).map(lambda triple: triple[:2])


@settings(max_examples=300, deadline=None)
@given(_sugared)
@example(("x in (1)", "(x == 1)"))
@example(("x in (1, 'a', #17:00#)", "(x == 1 or x == 'a' or x == #17:00#)"))
@example(("x between a - 1 and b * 2", "(x >= a - 1 and x <= b * 2)"))
@example(("not x between 1 and 2", "not (x >= 1 and x <= 2)"))
@example(("not x in (1, 2)", "not (x == 1 or x == 2)"))
@example(("y > 0 and x between 1 and 2", "y > 0 and (x >= 1 and x <= 2)"))
@example(("x in (1, 2) and y > 0 or x in (3)", "(x == 1 or x == 2) and y > 0 or (x == 3)"))
@example(
    ("y > 0 or x between lo and hi and z < 1", "y > 0 or (x >= lo and x <= hi) and z < 1")
)
def test_in_and_between_parse_to_the_tree_of_their_expanded_text(texts):
    sugared, expanded = texts
    tree = parse_predicate(expanded)
    assert parse_predicate(sugared) == tree
    assert parse_predicate(format_expr(tree)) == tree


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
