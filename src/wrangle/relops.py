"""Generalised relational operators over :class:`~wrangle.table.Table`.

All operators are pure: inputs are never modified, output ordering is
deterministic (row order follows the left/first input, groups appear in
first-seen order), and null cells never match a comparison.
"""

from __future__ import annotations

from .errors import SchemaMismatch, TypeMismatch, UnknownColumn
from .expr import (
    AggSpec,
    MutateExpr,
    PredicateExpr,
    check_mutate,
    check_predicate,
    eval_mutate,
    eval_predicate,
    mutate_columns,
    parse_agg,
    parse_predicate,
    predicate_columns,
)
from .table import Cell, Column, CType, NUMERIC_KINDS, ORDERED_KINDS, Table

__all__ = [
    "union",
    "select_columns",
    "filter_rows",
    "mutate_column",
    "join",
    "group_summarise",
    "parse_predicate",
    "parse_agg",
    "AggSpec",
    "PredicateExpr",
    "MutateExpr",
]


def _kinds(t: Table) -> dict[str, CType]:
    return {c.name: c.ctype for c in t.columns}


def union(a: Table, b: Table) -> Table:
    """Rows of ``a`` followed by rows of ``b``; schemas must match exactly."""
    if a.column_names != b.column_names:
        raise SchemaMismatch(
            f"column names differ: {list(a.column_names)} vs {list(b.column_names)}"
        )
    for ca, cb in zip(a.columns, b.columns):
        if ca.ctype != cb.ctype:
            raise SchemaMismatch(
                f"column '{ca.name}' is {ca.ctype.value} on one side, "
                f"{cb.ctype.value} on the other"
            )
    return Table(
        tuple(
            Column._unchecked(ca.name, ca.ctype, ca.cells + cb.cells)
            for ca, cb in zip(a.columns, b.columns)
        )
    )


def select_columns(t: Table, names: list[str], mode: str = "keep") -> Table:
    """Project columns. ``keep`` returns them in the requested order,
    ``drop`` preserves the original order minus the named ones."""
    if mode not in ("keep", "drop"):
        raise ValueError(f"mode must be 'keep' or 'drop', got {mode!r}")
    for name in names:
        t.column(name)  # raises UnknownColumn
    if mode == "keep":
        return Table(tuple(t.column(name) for name in names))
    dropped = set(names)
    return Table(tuple(c for c in t.columns if c.name not in dropped))


def filter_rows(t: Table, p: PredicateExpr) -> Table:
    """Keep rows where ``p`` is true; order preserved."""
    check_predicate(p, _kinds(t))
    cols = {name: t.column(name).cells for name in predicate_columns(p)}
    keep = [
        i
        for i in range(t.row_count)
        if eval_predicate(p, {name: cells[i] for name, cells in cols.items()})
    ]
    return t.take(keep)


def mutate_column(t: Table, name: str, e: MutateExpr) -> Table:
    """Append (or replace in place) column ``name`` computed row-wise as real."""
    check_mutate(e, _kinds(t))
    cols = {n: t.column(n).cells for n in mutate_columns(e)}
    cells = []
    for i in range(t.row_count):
        v = eval_mutate(e, {n: c[i] for n, c in cols.items()})
        cells.append(None if v is None else float(v))
    new_col = Column(name, CType.REAL, tuple(cells))
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
    if not keys:
        raise ValueError("join requires at least one key pair")
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
    """Aggregate one group's target cells, ignoring nulls."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    if func == "mean":
        return float(sum(present) / len(present))  # type: ignore[arg-type]
    if func == "sum":
        return float(sum(present))  # type: ignore[arg-type]
    return min(present) if func == "min" else max(present)


def group_summarise(t: Table, group_cols: list[str], aggs: list[AggSpec]) -> Table:
    """One row per distinct group-key tuple, ordered by first appearance.

    mean/sum/min/max ignore nulls; count counts the group's rows; a group
    whose target cells are all null aggregates to null. Empty ``group_cols``
    aggregate the whole table into a single row.
    """
    key_cols = [t.column(name) for name in group_cols]
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
    if not group_cols and not groups:
        groups[()] = []

    out_cols: list[Column] = []
    for pos, (col, name) in enumerate(zip(key_cols, group_cols)):
        out_cols.append(Column(name, col.ctype, tuple(key[pos] for key in groups)))
    for spec in aggs:
        if spec.func == "count":
            cells: tuple[Cell, ...] = tuple(len(rows) for rows in groups.values())
            out_cols.append(Column(spec.new_name, CType.INT, cells))
            continue
        target = t.column(spec.target)  # type: ignore[arg-type]
        out_kind = CType.REAL if spec.func in ("mean", "sum") else target.ctype
        cells = tuple(
            _aggregate(spec.func, [target.cells[i] for i in rows])
            for rows in groups.values()
        )
        out_cols.append(Column(spec.new_name, out_kind, cells))
    return Table(tuple(out_cols))
