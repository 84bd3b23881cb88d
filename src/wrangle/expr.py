"""Expression grammars used in workflow params and CLI flags.

Row filters (predicates) and column arithmetic (mutate) share one grammar;
aggregations have their own. One tokenizer serves both.

Expressions::

    expr    := and_e ('or' and_e)*            # 'and' binds tighter than 'or'
    and_e   := clause ('and' clause)*
    clause  := 'not' clause
             | sum [ cmp sum
                   | 'in' '(' sum (',' sum)* ')'
                   | 'between' sum 'and' sum ]
    sum     := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | literal | ident | '(' expr ')'
    cmp     := '==' | '!=' | '<' | '<=' | '>' | '>='

``x in (a, b, c)`` is read as ``x == a or x == b or x == c`` and ``x between
lo and hi`` as ``x >= lo and x <= hi``: the parser builds those comparisons,
and the canonical text prints them that way.

Every node is a truth (a comparison, ``not``, ``and``, ``or``) or a value (a
literal, a column, ``-`` or arithmetic). ``not``, ``and`` and ``or`` take
truths; comparisons and arithmetic take values. So a bare value stands as a
clause only inside parentheses, as in ``(a + b) / 2 > c``, and
``a and b > 1`` or ``(a > 1) + 2`` is a :class:`ParseError`.
:func:`parse_predicate` reads a truth and :func:`parse_mutate` a value (a
``sum``). Columns may stand on either side of a comparison:
``Gap <= Headway``, ``5 < x``.

Aggregations::

    agg     := ident '=' func '(' ident? ')'   # func: mean sum count min max

Identifiers are bare words or backtick-quoted to allow dots and spaces
(`` `Site.ID` ``, `` `Direction Name` ``). Literals are numbers,
single-quoted strings, ``#HH:MM[:SS]#`` times and ``#YYYY-MM-DD#`` dates; a
negative number is ``-`` applied to a number.

:func:`format_expr` gives a predicate or mutate tree its canonical text,
and ``parse(format_expr(e)) == e`` holds for any tree the parser can
produce; a number literal that is not finite is a :class:`ParseError`, since
it would format as ``inf``.

Expressions are compiled, then evaluated. One walk of an operand against a
table looks up every column it reads and gives the operand's kind and a
function from row indices to its values. It raises :class:`UnknownColumn`
or :class:`TypeMismatch` in tree order before any row is read: arithmetic
needs int or real operands, and the two sides of a comparison need kinds
that :func:`~wrangle.table.kinds_comparable` allows. :func:`compile_predicate`
gives each row's truth, and ``and``/``or`` read their right side only on
the rows the left side leaves open; :func:`compile_mutate` gives each row's
value. A comparison with a null is false; arithmetic with a null, or a
division by zero, gives null.
"""

from __future__ import annotations

import math
import operator
import re
from datetime import date, time
from functools import reduce
from typing import Callable, Sequence, Union

from .errors import ParseError, TypeMismatch, UnknownColumn
from .record import record
from .table import (
    Cell,
    Column,
    CType,
    NUMERIC_KINDS,
    Table,
    format_time,
    kind_of_value,
    kinds_comparable,
    parse_date_text,
    parse_time_text,
)

LitValue = Union[int, float, str, date, time]

COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
_CLAUSE_OPS = (*COMPARE_OPS, "in", "between")
# The tokens an operand starts with, and how a ParseError names them.
_OPERAND_STARTS = ("number", "string", "hash", "ident", "(", "-")
_OPERAND_EXPECTED = {"number", "string", "#...#", "ident", "(", "-"}
AGG_FUNCS = ("mean", "sum", "count", "min", "max")

_KEYWORDS = {"and", "or", "not", "in", "between"}
_BARE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@record
class ColRef:
    name: str


@record
class Lit:
    value: LitValue


@record
class BinOp:
    op: str  # + - * /
    left: "Operand"
    right: "Operand"


@record
class Neg:
    operand: "Operand"


#: A value: what ``mutate`` computes and what a comparison compares.
Operand = Union[ColRef, Lit, BinOp, Neg]
MutateExpr = Operand


@record
class Compare:
    left: Operand
    op: str
    right: Operand


@record
class And:
    left: "PredicateExpr"
    right: "PredicateExpr"


@record
class Or:
    left: "PredicateExpr"
    right: "PredicateExpr"


@record
class Not:
    operand: "PredicateExpr"


#: A truth: what a row filter tests.
PredicateExpr = Union[Compare, And, Or, Not]
Expr = Union[PredicateExpr, Operand]


@record
class AggSpec:
    new_name: str
    func: str
    target: str | None = None

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function '{self.func}'")
        if (self.target is None) != (self.func == "count"):
            raise ValueError("count takes no target; other aggregates require one")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@record
class _Token:
    kind: str
    value: object
    pos: int


# One alternative per token, tried in order at each position: the "Writing a
# Tokenizer" idiom of the ``re`` docs. ``other`` takes any character the rest
# do not, so the matches cover the text. Compiles on first use.
_TOKEN = "|".join(
    (
        r"(?P<space>[ \t\r\n]+)",
        r"`(?P<backtick>[^`]*)`",
        r"'(?P<string>[^']*)'",
        r"#(?P<hash>[^#]*)#",
        r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)",
        r"(?P<word>\w+)",
        r"(?P<punct>[=!<>]=|[<>=(),+\-*/])",
        r"(?P<other>.)",
    )
)

_UNTERMINATED = {
    "`": "unterminated backtick identifier",
    "'": "unterminated string literal",
    "#": "unterminated #...# literal",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in re.finditer(_TOKEN, text):
        kind = m.lastgroup
        if kind == "space":
            continue
        body, pos = m[kind], m.start()
        value: object = body
        if kind == "backtick":
            if not body:
                raise ParseError("empty backtick identifier", pos)
            kind = "ident"
        elif kind == "hash":
            value = parse_date_text(body) or parse_time_text(body)
            if value is None:
                raise ParseError(
                    f"bad #...# literal '{body}'", pos, {"#HH:MM[:SS]#", "#YYYY-MM-DD#"}
                )
        elif kind == "number":
            value = _number(body, pos)
        elif kind == "word":
            # \w also takes numeric characters that are not letters, such as '²'.
            if not (body[0].isalpha() or body[0] == "_"):
                raise ParseError(f"unexpected character {body[0]!r}", pos)
            kind = body if body in _KEYWORDS else "ident"
        elif kind == "punct":
            kind = body
        elif kind == "other":
            raise ParseError(_UNTERMINATED.get(body, f"unexpected character {body!r}"), pos)
        tokens.append(_Token(kind, value, pos))  # type: ignore[arg-type]
    tokens.append(_Token("end", None, len(text)))
    return tokens


def _number(body: str, pos: int) -> int | float:
    try:
        num: int | float = float(body) if set(body) & set(".eE") else int(body)
    except ValueError:  # more digits than int() converts (4,300 by default)
        raise ParseError(f"int literal of {len(body)} digits is too long", pos) from None
    if num == math.inf:  # would format as 'inf', which does not parse
        raise ParseError(f"number literal {body} is not finite", pos)
    return num


def _value(node: Expr, op: _Token) -> Operand:
    if isinstance(node, PredicateExpr):
        raise ParseError(f"'{op.kind}' takes values, not conditions", op.pos)
    return node


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            raise ParseError(
                f"unexpected {self.current.kind}", self.current.pos, {kind}
            )
        return tok

    def fail(self, expected: set[str]) -> ParseError:
        return ParseError(f"unexpected {self.current.kind}", self.current.pos, expected)

    def truth(self, node: Expr) -> PredicateExpr:
        """``node`` if it is a truth; a value must go on to a comparison."""
        if not isinstance(node, PredicateExpr):
            raise self.fail(set(_CLAUSE_OPS))
        return node

    def value(self, op: _Token) -> Operand:
        """A sum that is a value, as an operand of ``op``."""
        return _value(self.sum(), op)

    # -- expression grammar -------------------------------------------------

    def expr(self) -> Expr:
        return self.connect("or", Or, self.and_expr)

    def and_expr(self) -> Expr:
        return self.connect("and", And, self.clause)

    def connect(self, word, node_type, operand) -> Expr:
        node = operand()
        while self.current.kind == word:
            left = self.truth(node)
            self.advance()
            node = node_type(left, self.truth(operand()))
        return node

    def clause(self) -> Expr:
        if self.accept("not"):
            return Not(self.truth(self.clause()))
        if self.current.kind not in _OPERAND_STARTS:
            raise self.fail(_OPERAND_EXPECTED | {"not"})
        node = self.sum()
        op = self.current
        if op.kind not in _CLAUSE_OPS:
            return node
        self.advance()
        left = _value(node, op)
        if op.kind == "in":
            self.expect("(")
            values = [self.value(op)]
            while self.accept(","):
                values.append(self.value(op))
            self.expect(")")
            return reduce(Or, (Compare(left, "==", v) for v in values))
        if op.kind == "between":
            lo = self.value(op)
            self.expect("and")
            return And(Compare(left, ">=", lo), Compare(left, "<=", self.value(op)))
        return Compare(left, op.kind, self.value(op))

    def sum(self) -> Expr:
        return self.arithmetic(("+", "-"), self.term)

    def term(self) -> Expr:
        return self.arithmetic(("*", "/"), self.factor)

    def arithmetic(self, ops, operand) -> Expr:
        node = operand()
        while self.current.kind in ops:
            op = self.advance()
            node = BinOp(op.kind, _value(node, op), _value(operand(), op))
        return node

    def factor(self) -> Expr:
        tok = self.current
        if tok.kind not in _OPERAND_STARTS:
            raise self.fail(_OPERAND_EXPECTED)
        self.advance()
        if tok.kind == "-":
            return Neg(_value(self.factor(), tok))
        if tok.kind == "ident":
            return ColRef(tok.value)  # type: ignore[arg-type]
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        return Lit(tok.value)  # type: ignore[arg-type]

    # -- aggregation grammar ------------------------------------------------

    def agg(self) -> AggSpec:
        name = self.expect("ident")
        self.expect("=")
        func_tok = self.current
        if func_tok.kind != "ident" or func_tok.value not in AGG_FUNCS:
            raise self.fail(set(AGG_FUNCS))
        self.advance()
        func: str = func_tok.value  # type: ignore[assignment]
        self.expect("(")
        target: str | None = None
        tok = self.accept("ident")
        if tok is not None:
            target = tok.value  # type: ignore[assignment]
        self.expect(")")
        if func == "count" and target is not None:
            raise ParseError("count() takes no argument", func_tok.pos, {")"})
        if func != "count" and target is None:
            raise ParseError(f"{func}() requires a column", func_tok.pos, {"ident"})
        return AggSpec(name.value, func, target)  # type: ignore[arg-type]


def parse_predicate(text: str) -> PredicateExpr:
    p = _Parser(text)
    node = p.truth(p.expr())
    p.expect("end")
    return node


def parse_mutate(text: str) -> MutateExpr:
    p = _Parser(text)
    node = p.sum()
    p.expect("end")
    if isinstance(node, PredicateExpr):
        raise ParseError("a mutate expression is a value, not a condition", 0)
    return node


def parse_agg(text: str) -> AggSpec:
    p = _Parser(text)
    spec = p.agg()
    p.expect("end")
    return spec


# ---------------------------------------------------------------------------
# Canonical formatting (the inverse of parsing)
# ---------------------------------------------------------------------------

def _format_ident(name: str) -> str:
    if _BARE_IDENT_RE.match(name) and name not in _KEYWORDS:
        return name
    if "`" in name:
        raise ValueError(f"column name {name!r} cannot be written in the grammar")
    return f"`{name}`"


def _format_literal(value: LitValue) -> str:
    if isinstance(value, bool):
        raise ValueError("bool literals are not part of the grammar")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"real literal {value!r} cannot be written in the grammar")
        return repr(value)
    if isinstance(value, str):
        if "'" in value:
            raise ValueError(f"string literal {value!r} cannot be written in the grammar")
        return f"'{value}'"
    if isinstance(value, time):
        return f"#{format_time(value)}#"
    if isinstance(value, date):
        return f"#{value.isoformat()}#"
    raise ValueError(f"unsupported literal {value!r}")


# How tightly each node binds: an operand that binds more loosely than its
# place allows is printed in parentheses.
_PREC = {Or: 0, And: 1, Not: 2, Compare: 3, Neg: 6, Lit: 7, ColRef: 7}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 4 if e.op in ("+", "-") else 5
    return _PREC[type(e)]


def _wrap(e: Expr, prec: int) -> str:
    text = format_expr(e)
    return f"({text})" if _prec(e) < prec else text


def format_expr(e: Expr) -> str:
    """The canonical text of a predicate or mutate expression."""
    if isinstance(e, Lit):
        return _format_literal(e.value)
    if isinstance(e, ColRef):
        return _format_ident(e.name)
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, 7)}"
    if isinstance(e, Not):
        return f"not {_wrap(e.operand, 2)}"
    if isinstance(e, Compare):
        return f"{format_expr(e.left)} {e.op} {format_expr(e.right)}"
    if isinstance(e, (And, Or, BinOp)):
        # Left-associative: the right operand binds more tightly or is wrapped.
        word = e.op if isinstance(e, BinOp) else type(e).__name__.lower()
        return f"{_wrap(e.left, _prec(e))} {word} {_wrap(e.right, _prec(e) + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Compilation: checks first, then whole-column evaluation
# ---------------------------------------------------------------------------

_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _divide(a: int | float, b: int | float) -> float | None:
    return None if b == 0 else a / b


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}

Values = Callable[[Sequence[int]], list[Cell]]
Truths = Callable[[Sequence[int]], list[bool]]


def _noun(e: Operand) -> str:
    """How an error message names ``e``."""
    if isinstance(e, ColRef):
        return f"column '{e.name}'"
    if isinstance(e, Neg) and isinstance(e.operand, Lit):  # a negative number
        return f"literal {-e.operand.value!r}"  # type: ignore[operator]
    if isinstance(e, Lit):
        return f"literal {e.value!r}"
    return f"expression {format_expr(e)}"


def _compile_operand(e: Operand, columns: dict[str, Column]) -> tuple[CType, Values]:
    """The kind of ``e`` and a function giving its value at each row index."""
    if isinstance(e, Lit):
        value = e.value
        return kind_of_value(value), lambda rows: [value] * len(rows)
    if isinstance(e, ColRef):
        if e.name not in columns:
            raise UnknownColumn(f"no column '{e.name}'")
        col = columns[e.name]
        return col.ctype, lambda rows: list(map(col.cells.__getitem__, rows))
    if isinstance(e, Neg):
        kind, inner = _compile_number(e.operand, columns)
        return kind, lambda rows: [None if v is None else -v for v in inner(rows)]
    if isinstance(e, BinOp):
        left_kind, left = _compile_number(e.left, columns)
        right_kind, right = _compile_number(e.right, columns)
        op = _ARITH[e.op]
        ints = left_kind is right_kind is CType.INT and e.op != "/"
        return CType.INT if ints else CType.REAL, lambda rows: [
            None if a is None or b is None else op(a, b) for a, b in zip(left(rows), right(rows))
        ]
    raise TypeError(f"not an operand node: {e!r}")


def _compile_number(e: Operand, columns: dict[str, Column]) -> tuple[CType, Values]:
    kind, values = _compile_operand(e, columns)
    if kind not in NUMERIC_KINDS:
        raise TypeMismatch(f"{_noun(e)} is {kind.value}, arithmetic needs int or real")
    return kind, values


def compile_predicate(e: PredicateExpr, t: Table) -> Truths:
    """Check ``e`` against ``t`` and compile it to a function of row indices.

    Raises UnknownColumn/TypeMismatch in tree order before any row is read.
    The function gives the truth of ``e`` at each row it is given;
    comparisons with a null are false.
    """
    columns = {c.name: c for c in t.columns}

    def walk(e: PredicateExpr) -> Truths:
        if isinstance(e, Compare):
            left_kind, left = _compile_operand(e.left, columns)
            right_kind, right = _compile_operand(e.right, columns)
            if not kinds_comparable(left_kind, right_kind):
                raise TypeMismatch(
                    f"{_noun(e.left)} is {left_kind.value}, cannot compare with "
                    f"{right_kind.value} {_noun(e.right)}"
                )
            op = _CMP[e.op]
            return lambda rows: [
                a is not None and b is not None and op(a, b)
                for a, b in zip(left(rows), right(rows))
            ]
        if isinstance(e, Not):
            inner = walk(e.operand)
            return lambda rows: [not ok for ok in inner(rows)]
        if isinstance(e, (And, Or)):
            left, right = walk(e.left), walk(e.right)
            open_when = isinstance(e, And)  # the left truth that leaves a row open

            def combine(rows: Sequence[int]) -> list[bool]:
                truths = left(rows)
                rest = iter(right([i for i, ok in zip(rows, truths) if ok == open_when]))
                return [next(rest) if ok == open_when else ok for ok in truths]

            return combine
        raise TypeError(f"not a predicate node: {e!r}")

    return walk(e)


def compile_mutate(e: MutateExpr, t: Table) -> Callable[[], list[Cell]]:
    """Check ``e`` against ``t`` and compile it to the values of every row.

    Raises UnknownColumn, or TypeMismatch unless ``e`` and each operand of
    its arithmetic are int or real, in tree order before any row is read. A
    null operand or a division by zero makes that row's value null.
    """
    _, values = _compile_number(e, {c.name: c for c in t.columns})
    rows = range(t.row_count)
    return lambda: values(rows)
