"""Predicate/mutate/aggregation grammars, the canonical formatters, and
parse(format(e)) == e over random trees."""

from __future__ import annotations

import itertools
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
    Not,
    NumLit,
    Or,
    format_agg,
    format_mutate,
    _tokenize,
    format_predicate,
    parse_agg,
    parse_mutate,
    parse_predicate,
)


class TestPredicateParsing:
    def test_time_window(self):
        e = parse_predicate("`Hours` >= #17:00# and `Hours` < #18:00#")
        assert e == And(
            Compare("Hours", ">=", time(17, 0)),
            Compare("Hours", "<", time(18, 0)),
        )

    def test_string_compare(self):
        e = parse_predicate("`Direction Name` == 'South'")
        assert e == Compare("Direction Name", "==", "South")

    def test_and_binds_tighter_than_or(self):
        e = parse_predicate("a == 1 or b == 2 and c == 3")
        assert e == Or(
            Compare("a", "==", 1),
            And(Compare("b", "==", 2), Compare("c", "==", 3)),
        )

    def test_parens_override(self):
        e = parse_predicate("(a == 1 or b == 2) and c == 3")
        assert e == And(
            Or(Compare("a", "==", 1), Compare("b", "==", 2)),
            Compare("c", "==", 3),
        )

    def test_left_associative_chain(self):
        e = parse_predicate("a == 1 and b == 2 and c == 3")
        assert e == And(
            And(Compare("a", "==", 1), Compare("b", "==", 2)),
            Compare("c", "==", 3),
        )

    def test_in_and_between(self):
        assert parse_predicate("x in (1, 2, 3)") == InList("x", (1, 2, 3))
        assert parse_predicate("d between #2018-02-01# and #2018-02-28#") == Between(
            "d", date(2018, 2, 1), date(2018, 2, 28)
        )

    def test_not(self):
        assert parse_predicate("not x == 1") == Not(Compare("x", "==", 1))
        assert parse_predicate("not (a == 1 or b == 2)") == Not(
            Or(Compare("a", "==", 1), Compare("b", "==", 2))
        )

    def test_negative_number_literal(self):
        assert parse_predicate("x > -1.5") == Compare("x", ">", -1.5)

    def test_backticks_allow_dots_and_spaces(self):
        assert parse_predicate("`Site.ID` == 1083") == Compare("Site.ID", "==", 1083)

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

    def test_error_carries_position_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_predicate("x == 1 oops y == 2")
        assert err.value.pos == 7
        assert "end" in err.value.expected


class TestMutateParsing:
    def test_precedence(self):
        e = parse_mutate("a + b * 2")
        assert e == BinOp("+", ColRef("a"), BinOp("*", ColRef("b"), NumLit(2)))

    def test_unary_minus(self):
        assert parse_mutate("-a / 2") == BinOp("/", Neg(ColRef("a")), NumLit(2))

    def test_parens(self):
        e = parse_mutate("(a + b) / 2")
        assert e == BinOp("/", BinOp("+", ColRef("a"), ColRef("b")), NumLit(2))

    def test_mph_conversion_shape(self):
        assert parse_mutate("Speed * 0.44704") == BinOp(
            "*", ColRef("Speed"), NumLit(0.44704)
        )

    @pytest.mark.parametrize("text", ["x * 1e999", "-.5e309"])
    def test_number_literal_that_is_not_finite(self, text):
        with pytest.raises(ParseError, match="not finite"):
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

_literals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e9, max_value=1e9),
    st.text(alphabet="abcXYZ _-", max_size=8),
    st.times().map(lambda t: t.replace(microsecond=0)),
    st.dates(min_value=date(1800, 1, 1), max_value=date(2200, 12, 31)),
)

_atoms = st.one_of(
    st.builds(Compare, _idents, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _literals),
    st.builds(InList, _idents, st.lists(_literals, min_size=1, max_size=4).map(tuple)),
    st.builds(Between, _idents, _literals, _literals),
)

_predicates = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_predicates)
def test_predicate_format_parse_round_trip(e):
    assert parse_predicate(format_predicate(e)) == e


_mutate_atoms = st.one_of(
    st.builds(ColRef, _idents),
    st.builds(NumLit, st.integers(min_value=0, max_value=10**6)),
    st.builds(
        NumLit,
        st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e9),
    ),
)

_mutates = st.recursive(
    _mutate_atoms,
    lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Neg, children),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_mutates)
def test_mutate_format_parse_round_trip(e):
    assert parse_mutate(format_mutate(e)) == e


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
