"""Generalised relational operators over :class:`~wrangle.table.Table`.

All operators are pure: inputs are never modified, output ordering is
deterministic (row order follows the left/first input, groups appear in
first-seen order), and null cells never match a comparison.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import add

from .errors import RequirementFailed, SchemaMismatch, TypeMismatch
from .expr import (
    AggSpec,
    MutateExpr,
    PredicateExpr,
    compile_mutate,
    compile_predicate,
    format_expr,
)
from .table import Cell, Column, CType, NUMERIC_KINDS, ORDERED_KINDS, Table


def union(a: Table, b: Table) -> Table:
    """Rows of ``a`` followed by rows of ``b``; schemas must match exactly.

    A text column with cells that are all null has no kind of its own (type
    inference leaves a blank column text), so it takes the other side's kind.
    """
    if a.column_names != b.column_names:
        raise SchemaMismatch(
            f"column names differ: {list(a.column_names)} vs {list(b.column_names)}"
        )
    return Table(
        tuple(
            Column._unchecked(ca.name, _union_kind(ca, cb), ca.cells + cb.cells)
            for ca, cb in zip(a.columns, b.columns)
        )
    )


def _union_kind(a: Column, b: Column) -> CType:
    if a.ctype == b.ctype or _blank_text(b):
        return a.ctype
    if _blank_text(a):
        return b.ctype
    raise SchemaMismatch(
        f"column '{a.name}' is {a.ctype.value} on one side, {b.ctype.value} on the other"
    )


def _blank_text(c: Column) -> bool:
    """A text column with at least one cell, every cell null."""
    return c.ctype is CType.TEXT and 0 < c.cells.count(None) == len(c.cells)


def select_columns(t: Table, names: list[str], mode: str = "keep") -> Table:
    """Project columns. ``keep`` returns them in the requested order,
    ``drop`` preserves the original order minus the named ones."""
    for name in names:
        t.column(name)  # raises UnknownColumn
    if mode == "keep":
        return Table(tuple(t.column(name) for name in names))
    dropped = set(names)
    return Table(tuple(c for c in t.columns if c.name not in dropped))


def filter_rows(t: Table, predicate: PredicateExpr) -> Table:
    """Keep rows where ``predicate`` is true; order preserved."""
    rows = range(t.row_count)
    return t.take(list(compress(rows, compile_predicate(predicate, t)(rows))))


def require(t: Table, predicate: PredicateExpr) -> Table:
    """Return ``t`` itself if every row meets ``predicate``.

    Raises :class:`RequirementFailed` at the first row that does not.
    A requirement may relate the fields of a row: ``Gap <= Headway`` fails
    at the first row whose gap exceeds its headway.
    Comparisons with a null cell are false, as in :func:`filter_rows`, so a
    null cell fails a requirement such as ``x > 0``. The columns it reads
    are checked before any row, so an empty table meets every predicate that
    fits its columns.
    """
    truths = compile_predicate(predicate, t)(range(t.row_count))
    if False in truths:
        raise RequirementFailed(
            f"row {truths.index(False)} does not meet {format_expr(predicate)}"
        )
    return t


def mutate_column(t: Table, name: str, expr: MutateExpr) -> Table:
    """Append (or replace in place) column ``name`` computed row-wise as real."""
    values = compile_mutate(expr, t)()
    cells = tuple(None if v is None else float(v) for v in values)
    new_col = Column._unchecked(name, CType.REAL, cells)
    if t.has_column(name):
        return Table(tuple(new_col if c.name == name else c for c in t.columns))
    return Table(t.columns + (new_col,))


def join(left: Table, right: Table, keys: list[tuple[str, str]]) -> Table:
    """Inner equi-join.

    Output columns are left's, then right's minus the right key columns;
    right non-key columns whose names collide with left get a ``.y`` suffix.
    Row order is left-major with ties in right resolved by right row order.
    Null keys never match.
    """
    left_keys = [left.column(lk) for lk, _ in keys]
    right_keys = [right.column(rk) for _, rk in keys]
    for lc, rc in zip(left_keys, right_keys):
        if lc.ctype != rc.ctype:
            raise TypeMismatch(
                f"key '{lc.name}' is {lc.ctype.value} on the left but "
                f"'{rc.name}' is {rc.ctype.value} on the right"
            )

    index: dict[tuple[Cell, ...], list[int]] = {}
    for j in range(right.row_count):
        key = tuple(col.cells[j] for col in right_keys)
        if any(k is None for k in key):
            continue
        index.setdefault(key, []).append(j)

    left_idx: list[int] = []
    right_idx: list[int] = []
    for i in range(left.row_count):
        key = tuple(col.cells[i] for col in left_keys)
        if any(k is None for k in key):
            continue
        for j in index.get(key, ()):
            left_idx.append(i)
            right_idx.append(j)

    right_key_names = {rk for _, rk in keys}
    right_out = Table(tuple(c for c in right.columns if c.name not in right_key_names))
    left_names = set(left.column_names)
    renamed = tuple(
        Column._unchecked(c.name + ".y", c.ctype, c.cells) if c.name in left_names else c
        for c in right_out.take(right_idx).columns
    )
    return Table(left.take(left_idx).columns + renamed)


def _aggregate(func: str, values: list[Cell]) -> Cell:
    """Aggregate one group's target cells, ignoring nulls.

    mean and sum add left to right with plain ``+``. ``sum()`` compensates
    float sums from Python 3.12 on, which would make the last digit, and the
    written bytes, depend on the Python version.
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    if func in ("mean", "sum"):
        total = reduce(add, present, 0)
        return float(total / len(present) if func == "mean" else total)  # type: ignore[operator]
    return min(present) if func == "min" else max(present)


def group_summarise(t: Table, by: list[str], aggs: list[AggSpec]) -> Table:
    """One row per distinct group-key tuple, ordered by first appearance.

    mean/sum/min/max ignore nulls; count counts the group's rows; a group
    whose target cells are all null aggregates to null. Empty ``by``
    aggregate the whole table into a single row.
    """
    key_cols = [t.column(name) for name in by]
    for spec in aggs:
        if spec.target is None:
            continue
        col = t.column(spec.target)
        if spec.func in ("mean", "sum") and col.ctype not in NUMERIC_KINDS:
            raise TypeMismatch(
                f"{spec.func}({spec.target}) needs a numeric column, "
                f"got {col.ctype.value}"
            )
        if spec.func in ("min", "max") and col.ctype not in ORDERED_KINDS:
            raise TypeMismatch(
                f"{spec.func}({spec.target}) needs an ordered column, "
                f"got {col.ctype.value}"
            )

    groups: dict[tuple[Cell, ...], list[int]] = {}
    for i in range(t.row_count):
        key = tuple(col.cells[i] for col in key_cols)
        groups.setdefault(key, []).append(i)
    if not by and not groups:
        groups[()] = []

    out_cols: list[Column] = []
    for pos, (col, name) in enumerate(zip(key_cols, by)):
        out_cols.append(Column._unchecked(name, col.ctype, tuple(key[pos] for key in groups)))
    for spec in aggs:
        if spec.func == "count":
            cells: tuple[Cell, ...] = tuple(len(rows) for rows in groups.values())
            out_cols.append(Column._unchecked(spec.new_name, CType.INT, cells))
            continue
        target = t.column(spec.target)  # type: ignore[arg-type]
        out_kind = CType.REAL if spec.func in ("mean", "sum") else target.ctype
        cells = tuple(
            _aggregate(spec.func, [target.cells[i] for i in rows])
            for rows in groups.values()
        )
        out_cols.append(Column._unchecked(spec.new_name, out_kind, cells))
    return Table(tuple(out_cols))
