"""Shared helpers: tables built from rows, seeded random typed tables and
table comparison, and a check that no test leaves a child process behind."""

from __future__ import annotations

import math
import os
import random
import string
from datetime import date, time, timedelta
from typing import Iterable, Sequence

import pytest

from wrangle.errors import SchemaMismatch
from wrangle.table import Cell, Column, CType, Table


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test, forked workers or not, leaves no child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def table_from_rows(
    names: Sequence[str],
    ctypes: Sequence[CType],
    rows: Iterable[Sequence[Cell]],
) -> Table:
    """A table built column-wise from row data, each cell checked against its column's kind."""
    if len(names) != len(ctypes):
        raise SchemaMismatch("names and ctypes differ in length")
    cols: list[list[Cell]] = [[] for _ in names]
    for r, row in enumerate(rows):
        if len(row) != len(names):
            raise SchemaMismatch(f"row {r} has {len(row)} cells, expected {len(names)}")
        for i, v in enumerate(row):
            cols[i].append(v)
    return Table(
        tuple(
            Column(name, ctype, tuple(cells))
            for name, ctype, cells in zip(names, ctypes, cols)
        )
    )


# Text cells must stay text under type inference: always carry a letter,
# never the bool literals.
_TEXT_CHARS = string.ascii_letters + "  ,.'\"-_/:#"


def random_text_cell(rng: random.Random) -> str:
    while True:
        body = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(1, 14)))
        s = rng.choice(string.ascii_letters) + body
        if s not in ("true", "false"):
            return s


def random_cell(rng: random.Random, ctype: CType):
    if ctype is CType.TEXT:
        return random_text_cell(rng)
    if ctype is CType.INT:
        return rng.randrange(-1_000_000, 1_000_000)
    if ctype is CType.REAL:
        return rng.uniform(-1e6, 1e6)
    if ctype is CType.DATE:
        return date(1970, 1, 1) + timedelta(days=rng.randrange(0, 29_000))
    if ctype is CType.TIME:
        return time(
            rng.randrange(24), rng.randrange(60), rng.randrange(60),
            rng.randrange(100) * 10_000 if rng.random() < 0.5 else 0,
        )
    if ctype is CType.TIMESTAMP:
        from datetime import datetime

        return datetime.combine(
            random_cell(rng, CType.DATE), random_cell(rng, CType.TIME)
        )
    if ctype is CType.BOOL:
        return rng.random() < 0.5
    raise AssertionError(ctype)


def random_typed_table(
    rng: random.Random,
    max_cols: int = 20,
    max_rows: int = 200,
    null_rate: float = 0.1,
) -> Table:
    n_cols = rng.randrange(1, max_cols + 1)
    n_rows = rng.randrange(0, max_rows + 1)
    kinds = list(CType)
    columns = []
    for c in range(n_cols):
        ctype = rng.choice(kinds)
        cells = [
            None if rng.random() < null_rate else random_cell(rng, ctype)
            for _ in range(n_rows)
        ]
        # A typed column that is all null re-infers as text; pin one value.
        if ctype is not CType.TEXT and n_rows and all(v is None for v in cells):
            cells[rng.randrange(n_rows)] = random_cell(rng, ctype)
        columns.append(Column(f"col {c}" if c % 3 else f"col_{c}", ctype, tuple(cells)))
    return Table(tuple(columns))


def assert_tables_equal(a: Table, b: Table) -> None:
    assert a.column_names == b.column_names
    assert [c.ctype for c in a.columns] == [c.ctype for c in b.columns]
    assert a.row_count == b.row_count
    for ca, cb in zip(a.columns, b.columns):
        assert ca.cells == cb.cells, f"column '{ca.name}' differs"


def assert_cells_close(a, b, rel: float = 1e-9) -> None:
    if isinstance(a, float) and isinstance(b, float):
        assert math.isclose(a, b, rel_tol=rel, abs_tol=1e-12), f"{a} != {b}"
    else:
        assert a == b, f"{a!r} != {b!r}"
