"""Expression grammars used in workflow params and CLI flags.

Three small languages share one tokenizer:

Predicates (row filters)::

    expr    := and_e ('or' and_e)*            # 'and' binds tighter than 'or'
    and_e   := clause ('and' clause)*
    clause  := '(' expr ')'
             | 'not' clause
             | ident cmp literal
             | ident 'in' '(' literal (',' literal)* ')'
             | ident 'between' literal 'and' literal
    cmp     := '==' | '!=' | '<' | '<=' | '>' | '>='

Column arithmetic (mutate)::

    sum     := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | number | ident | '(' sum ')'

Aggregations::

    agg     := ident '=' func '(' ident? ')'   # func: mean sum count min max

Identifiers are bare words or backtick-quoted to allow dots and spaces
(`` `Site.ID` ``, `` `Direction Name` ``). Literals are numbers,
single-quoted strings, ``#HH:MM[:SS]#`` times and ``#YYYY-MM-DD#`` dates.

Each AST has a canonical formatter and ``parse(format(e)) == e`` holds for
any tree the parser can produce; a number literal that is not finite is a
:class:`ParseError`, since it would format as ``inf``.

Predicates and arithmetic are compiled, then evaluated. One walk of the AST
against a table looks up every column the expression reads and raises
:class:`UnknownColumn` or :class:`TypeMismatch` before any row is read. It
returns a function that evaluates whole columns, node by node:
:func:`compile_predicate` gives each row's truth, and ``and``/``or`` read
their right side only on the rows the left side leaves open;
:func:`compile_mutate` gives each row's value.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from datetime import date, time
from functools import reduce
from typing import Callable, Sequence, Union

from .errors import ParseError, TypeMismatch, UnknownColumn
from .table import (
    Cell,
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
AGG_FUNCS = ("mean", "sum", "count", "min", "max")

_KEYWORDS = {"and", "or", "not", "in", "between"}
_BARE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compare:
    column: str
    op: str
    value: LitValue


@dataclass(frozen=True)
class InList:
    column: str
    values: tuple[LitValue, ...]


@dataclass(frozen=True)
class Between:
    column: str
    lo: LitValue
    hi: LitValue


@dataclass(frozen=True)
class And:
    left: "PredicateExpr"
    right: "PredicateExpr"


@dataclass(frozen=True)
class Or:
    left: "PredicateExpr"
    right: "PredicateExpr"


@dataclass(frozen=True)
class Not:
    operand: "PredicateExpr"


PredicateExpr = Union[Compare, InList, Between, And, Or, Not]


@dataclass(frozen=True)
class ColRef:
    name: str


@dataclass(frozen=True)
class NumLit:
    value: int | float


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "MutateExpr"
    right: "MutateExpr"


@dataclass(frozen=True)
class Neg:
    operand: "MutateExpr"


MutateExpr = Union[ColRef, NumLit, BinOp, Neg]


@dataclass(frozen=True)
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

@dataclass(frozen=True)
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

    # -- shared pieces ------------------------------------------------------

    def literal(self) -> LitValue:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return tok.value  # type: ignore[return-value]
        if tok.kind == "-":
            self.advance()
            num = self.expect("number")
            return -num.value  # type: ignore[operator]
        if tok.kind in ("string", "hash"):
            self.advance()
            return tok.value  # type: ignore[return-value]
        raise self.fail({"number", "string", "#...#"})

    # -- predicate grammar --------------------------------------------------

    def predicate(self) -> PredicateExpr:
        node = self.and_expr()
        while self.accept("or"):
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> PredicateExpr:
        node = self.clause()
        while self.accept("and"):
            node = And(node, self.clause())
        return node

    def clause(self) -> PredicateExpr:
        if self.accept("("):
            node = self.predicate()
            self.expect(")")
            return node
        if self.accept("not"):
            return Not(self.clause())
        tok = self.current
        if tok.kind != "ident":
            raise self.fail({"ident", "(", "not"})
        self.advance()
        column: str = tok.value  # type: ignore[assignment]
        op = self.current
        if op.kind in COMPARE_OPS:
            self.advance()
            return Compare(column, op.kind, self.literal())
        if self.accept("in"):
            self.expect("(")
            values = [self.literal()]
            while self.accept(","):
                values.append(self.literal())
            self.expect(")")
            return InList(column, tuple(values))
        if self.accept("between"):
            lo = self.literal()
            self.expect("and")
            hi = self.literal()
            return Between(column, lo, hi)
        raise self.fail(set(COMPARE_OPS) | {"in", "between"})

    # -- mutate grammar -----------------------------------------------------

    def mutate(self) -> MutateExpr:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> MutateExpr:
        node = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> MutateExpr:
        if self.accept("-"):
            return Neg(self.factor())
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return NumLit(tok.value)  # type: ignore[arg-type]
        if tok.kind == "ident":
            self.advance()
            return ColRef(tok.value)  # type: ignore[arg-type]
        if self.accept("("):
            node = self.mutate()
            self.expect(")")
            return node
        raise self.fail({"number", "ident", "(", "-"})

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
    node = p.predicate()
    p.expect("end")
    return node


def parse_mutate(text: str) -> MutateExpr:
    p = _Parser(text)
    node = p.mutate()
    p.expect("end")
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
    if _BARE_IDENT_RE.match(name) and name not in _KEYWORDS and name not in AGG_FUNCS:
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


def format_predicate(e: PredicateExpr) -> str:
    if isinstance(e, Compare):
        return f"{_format_ident(e.column)} {e.op} {_format_literal(e.value)}"
    if isinstance(e, InList):
        inner = ", ".join(_format_literal(v) for v in e.values)
        return f"{_format_ident(e.column)} in ({inner})"
    if isinstance(e, Between):
        return (
            f"{_format_ident(e.column)} between "
            f"{_format_literal(e.lo)} and {_format_literal(e.hi)}"
        )
    if isinstance(e, Not):
        inner = format_predicate(e.operand)
        if isinstance(e.operand, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(e, And):
        left = format_predicate(e.left)
        if isinstance(e.left, Or):
            left = f"({left})"
        right = format_predicate(e.right)
        if isinstance(e.right, (And, Or)):
            right = f"({right})"
        return f"{left} and {right}"
    if isinstance(e, Or):
        left = format_predicate(e.left)
        right = format_predicate(e.right)
        if isinstance(e.right, Or):
            right = f"({right})"
        return f"{left} or {right}"
    raise TypeError(f"not a predicate node: {e!r}")


_MUT_PREC = {BinOp: 0, Neg: 2, NumLit: 3, ColRef: 3}


def _mut_prec(e: MutateExpr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in ("+", "-") else 2
    return _MUT_PREC[type(e)]


def format_mutate(e: MutateExpr) -> str:
    if isinstance(e, NumLit):
        if isinstance(e.value, float):
            return repr(e.value)
        if e.value < 0:
            raise ValueError("negative literals print as unary minus; use Neg")
        return str(e.value)
    if isinstance(e, ColRef):
        return _format_ident(e.name)
    if isinstance(e, Neg):
        inner = format_mutate(e.operand)
        if isinstance(e.operand, (BinOp, Neg)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        prec = _mut_prec(e)
        left = format_mutate(e.left)
        if _mut_prec(e.left) < prec:
            left = f"({left})"
        right = format_mutate(e.right)
        if _mut_prec(e.right) < prec or (
            isinstance(e.right, BinOp) and _mut_prec(e.right) == prec
        ):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not a mutate node: {e!r}")


def format_agg(spec: AggSpec) -> str:
    target = _format_ident(spec.target) if spec.target is not None else ""
    return f"{_format_ident(spec.new_name)} = {spec.func}({target})"


# ---------------------------------------------------------------------------
# Compilation: checks first, then whole-column evaluation
# ---------------------------------------------------------------------------

def _check_compatible(column: str, kind: CType, value: LitValue) -> None:
    if not kinds_comparable(kind, kind_of_value(value)):
        raise TypeMismatch(
            f"column '{column}' is {kind.value}, cannot compare with "
            f"{kind_of_value(value).value} literal {value!r}"
        )


_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Truths = Callable[[Sequence[int]], list[bool]]


def compile_predicate(e: PredicateExpr, t: Table) -> Truths:
    """Check ``e`` against ``t`` and compile it to a function of row indices.

    Raises UnknownColumn/TypeMismatch in tree order before any row is read.
    The function gives the truth of ``e`` at each row it is given;
    comparisons with a null cell are false.
    """
    columns = {c.name: c for c in t.columns}

    def walk(e: PredicateExpr) -> Truths:
        # x in (a, b) compares as x == a or x == b, and lo <= x <= hi as
        # x >= lo and x <= hi: the same cells, literals and order.
        if isinstance(e, InList):
            return walk(reduce(Or, (Compare(e.column, "==", v) for v in e.values)))
        if isinstance(e, Between):
            return walk(And(Compare(e.column, ">=", e.lo), Compare(e.column, "<=", e.hi)))
        if isinstance(e, Compare):
            if e.column not in columns:
                raise UnknownColumn(f"no column '{e.column}'")
            col = columns[e.column]
            _check_compatible(e.column, col.ctype, e.value)
            cells, op, lit = col.cells, _CMP[e.op], e.value
            return lambda rows: [
                v is not None and op(v, lit) for v in map(cells.__getitem__, rows)
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


def _divide(a: int | float, b: int | float) -> float | None:
    return None if b == 0 else a / b


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}

Values = Callable[[], Sequence[Cell]]


def compile_mutate(e: MutateExpr, t: Table) -> Values:
    """Check ``e`` against ``t`` and compile it to the values of every row.

    Each column ``e`` reads is checked in sorted name order before any row
    is read (UnknownColumn, then TypeMismatch unless int or real). A null
    operand or a division by zero makes that row's value null.
    """
    columns = {c.name: c for c in t.columns}
    n = t.row_count
    names: set[str] = set()

    def walk(e: MutateExpr) -> Values:
        if isinstance(e, NumLit):
            value = e.value
            return lambda: [value] * n
        if isinstance(e, ColRef):
            names.add(e.name)
            return lambda: columns[e.name].cells
        if isinstance(e, Neg):
            inner = walk(e.operand)
            return lambda: [None if v is None else -v for v in inner()]
        if isinstance(e, BinOp):
            left, right, op = walk(e.left), walk(e.right), _ARITH[e.op]
            return lambda: [
                None if a is None or b is None else op(a, b) for a, b in zip(left(), right())
            ]
        raise TypeError(f"not a mutate node: {e!r}")

    values = walk(e)
    for name in sorted(names):
        if name not in columns:
            raise UnknownColumn(f"no column '{name}'")
        if columns[name].ctype not in NUMERIC_KINDS:
            raise TypeMismatch(
                f"column '{name}' is {columns[name].ctype.value}, arithmetic needs int or real"
            )
    return values
