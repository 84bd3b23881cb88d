"""Random-instance checks of each operator against its reference
implementation in :mod:`oracles`. The module tests run a handful of
instances; the acceptance suite runs the full seeded batches."""

from __future__ import annotations

import random
from datetime import date, datetime, time, timedelta

import oracles
from conftest import assert_cells_close
from wrangle import relops
from wrangle.expr import AggSpec, parse_predicate
from wrangle.spacetime import SpaceTimeParams, time_space_join
from wrangle.table import Column, CType, Table


def row(t: Table, i: int) -> tuple:
    """The cells of row ``i``, one per column."""
    return tuple(col.cells[i] for col in t.columns)


def rows_of(t: Table) -> list[tuple]:
    return [row(t, i) for i in range(t.row_count)]


def _int_col(rng, name, n, lo=0, hi=9, null_rate=0.1):
    cells = tuple(
        None if rng.random() < null_rate else rng.randrange(lo, hi + 1)
        for _ in range(n)
    )
    return Column(name, CType.INT, cells)


def _real_col(rng, name, n, null_rate=0.1):
    cells = tuple(
        None if rng.random() < null_rate else round(rng.uniform(-50, 50), 3)
        for _ in range(n)
    )
    return Column(name, CType.REAL, cells)


def _text_col(rng, name, n, vocab=("red", "green", "blue", "grey"), null_rate=0.1):
    cells = tuple(
        None if rng.random() < null_rate else rng.choice(vocab) for _ in range(n)
    )
    return Column(name, CType.TEXT, cells)


def _plain_table(rng, n_rows) -> Table:
    return Table(
        (
            _int_col(rng, "k", n_rows),
            _real_col(rng, "v", n_rows),
            _text_col(rng, "s", n_rows),
        )
    )


# ---------------------------------------------------------------------------
# union / select
# ---------------------------------------------------------------------------

def check_union(rng: random.Random) -> None:
    a = _plain_table(rng, rng.randrange(0, 51))
    b = _plain_table(rng, rng.randrange(0, 51))
    got = relops.union(a, b)
    assert rows_of(got) == rows_of(a) + rows_of(b)


def check_select(rng: random.Random) -> None:
    t = _plain_table(rng, rng.randrange(0, 51))
    names = list(t.column_names)
    keep = rng.sample(names, rng.randrange(0, len(names) + 1))
    kept = relops.select_columns(t, keep, "keep")
    assert kept.column_names == tuple(keep)
    idx = [names.index(n) for n in keep]
    if keep:
        assert rows_of(kept) == [tuple(row[i] for i in idx) for row in rows_of(t)]
    else:
        assert kept.row_count == 0  # zero-width tables record no rows
    # keep and drop partition the column set
    dropped = relops.select_columns(t, keep, "drop")
    assert set(dropped.column_names) | set(keep) == set(names)
    assert set(dropped.column_names) & set(keep) == set()


# ---------------------------------------------------------------------------
# filter: random predicate built alongside a direct evaluator
# ---------------------------------------------------------------------------

def _random_atom(rng):
    kind = rng.randrange(3)
    if kind == 0:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        lit = rng.randrange(0, 10)
        ops = {
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        fn = ops[op]
        return f"k {op} {lit}", (
            lambda row, fn=fn, lit=lit: row["k"] is not None and fn(row["k"], lit)
        )
    if kind == 1:
        lit = round(rng.uniform(-50, 50), 2)
        return f"v < {lit!r}", (
            lambda row, lit=lit: row["v"] is not None and row["v"] < lit
        )
    word = rng.choice(("red", "green", "blue"))
    return f"s == '{word}'", (
        lambda row, word=word: row["s"] is not None and row["s"] == word
    )


def _random_pred(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return _random_atom(rng)
    kind = rng.randrange(3)
    if kind == 0:
        lt, lf = _random_pred(rng, depth + 1)
        rt, rf = _random_pred(rng, depth + 1)
        return f"({lt}) and ({rt})", lambda row, lf=lf, rf=rf: lf(row) and rf(row)
    if kind == 1:
        lt, lf = _random_pred(rng, depth + 1)
        rt, rf = _random_pred(rng, depth + 1)
        return f"({lt}) or ({rt})", lambda row, lf=lf, rf=rf: lf(row) or rf(row)
    it, fn = _random_pred(rng, depth + 1)
    return f"not ({it})", lambda row, fn=fn: not fn(row)


def check_filter(rng: random.Random) -> None:
    t = _plain_table(rng, rng.randrange(0, 51))
    text, direct = _random_pred(rng)
    pred = parse_predicate(text)
    got = relops.filter_rows(t, pred)
    names = t.column_names
    expected = [
        row for row in rows_of(t) if direct({n: v for n, v in zip(names, row)})
    ]
    assert rows_of(got) == expected
    # partition: p and not p split the table exactly
    inverse = relops.filter_rows(t, parse_predicate(f"not ({text})"))
    assert got.row_count + inverse.row_count == t.row_count


# ---------------------------------------------------------------------------
# join / group_summarise
# ---------------------------------------------------------------------------

def check_join(rng: random.Random) -> None:
    n_left = rng.randrange(0, 51)
    n_right = rng.randrange(0, 51)
    two_keys = rng.random() < 0.3
    left = Table(
        (
            _int_col(rng, "k1", n_left, 0, 5),
            _int_col(rng, "k2", n_left, 0, 2),
            _real_col(rng, "lv", n_left),
            _text_col(rng, "shared", n_left),
        )
    )
    right = Table(
        (
            _int_col(rng, "r1", n_right, 0, 5),
            _int_col(rng, "r2", n_right, 0, 2),
            _text_col(rng, "shared", n_right),
            _real_col(rng, "rv", n_right),
        )
    )
    keys = [("k1", "r1"), ("k2", "r2")] if two_keys else [("k1", "r1")]
    got = relops.join(left, right, keys)

    key_idx = [(0, 0), (1, 1)] if two_keys else [(0, 0)]
    right_keep = [i for i in range(4) if i not in {ri for _, ri in key_idx}]
    expected = oracles.nested_loop_join(rows_of(left), rows_of(right), key_idx, right_keep)
    assert rows_of(got) == expected
    # collision handling: right 'shared' arrives suffixed
    assert got.column_names.count("shared") == 1
    assert "shared.y" in got.column_names


def check_group(rng: random.Random) -> None:
    n = rng.randrange(0, 51)
    t = Table(
        (
            _int_col(rng, "g1", n, 0, 3),
            _text_col(rng, "g2", n, ("x", "y")),
            _real_col(rng, "v", n, null_rate=0.25),
        )
    )
    group_cols = ["g1", "g2"] if rng.random() < 0.5 else ["g1"]
    got = relops.group_summarise(
        t,
        group_cols,
        [
            AggSpec("m", "mean", "v"),
            AggSpec("s", "sum", "v"),
            AggSpec("lo", "min", "v"),
            AggSpec("hi", "max", "v"),
            AggSpec("n", "count", None),
        ],
    )
    gidx = [list(t.column_names).index(c) for c in group_cols]
    expected = oracles.brute_force_groups(rows_of(t), gidx, 2)
    assert got.row_count == len(expected)
    for i, (key, stats) in enumerate(expected.items()):
        cells = row(got, i)
        assert cells[: len(group_cols)] == key
        m, s, lo, hi, cnt = cells[len(group_cols) :]
        assert_cells_close(m, stats["mean"])
        assert_cells_close(s, stats["sum"])
        assert lo == stats["min"] and hi == stats["max"] and cnt == stats["count"]


# ---------------------------------------------------------------------------
# time-space join
# ---------------------------------------------------------------------------

_BASE = (53.46, -2.29)


def _coords(rng):
    return (_BASE[0] + rng.uniform(-0.05, 0.05), _BASE[1] + rng.uniform(-0.08, 0.08))


def check_spacetime(rng: random.Random) -> None:
    n_traffic = rng.randrange(0, 51)
    n_weather = rng.randrange(0, 51)
    day = date(2018, 2, rng.randrange(1, 28))

    t_lat, t_lon, t_date, t_time = [], [], [], []
    for _ in range(n_traffic):
        lat, lon = _coords(rng)
        t_lat.append(lat)
        t_lon.append(lon)
        t_date.append(day)
        t_time.append(time(rng.randrange(24), rng.randrange(60), rng.randrange(60)))
    traffic = Table(
        (
            Column("Lat", CType.REAL, tuple(t_lat)),
            Column("Lon", CType.REAL, tuple(t_lon)),
            Column("Date", CType.DATE, tuple(t_date)),
            Column("Hours", CType.TIME, tuple(t_time)),
            _real_col(rng, "Speed", n_traffic, null_rate=0.0),
        )
    )

    w_lat, w_lon, w_date, w_time, w_code = [], [], [], [], []
    for _ in range(n_weather):
        lat, lon = _coords(rng)
        w_lat.append(lat)
        w_lon.append(lon)
        w_date.append(day + timedelta(days=rng.randrange(-1, 2)))
        w_time.append(time(rng.randrange(24), rng.randrange(60)))
        w_code.append(rng.randrange(0, 16))
    weather = Table(
        (
            Column("Lat", CType.REAL, tuple(w_lat)),
            Column("Lon", CType.REAL, tuple(w_lon)),
            Column("ObsDate", CType.DATE, tuple(w_date)),
            Column("ObsTime", CType.TIME, tuple(w_time)),
            Column("W", CType.INT, tuple(w_code)),
        )
    )

    params = SpaceTimeParams(
        space_buffer_m=rng.choice((1609.34, 3000.0, 8000.0)),
        time_buffer_s=rng.choice((900, 1800, 3600)),
    )
    got = time_space_join(traffic, weather, params)
    assert got.row_count == traffic.row_count
    assert got.column_names[: len(traffic.column_names)] == traffic.column_names

    expected = oracles.nearest_observation(
        [
            (t_lat[i], t_lon[i], datetime.combine(t_date[i], t_time[i]))
            for i in range(n_traffic)
        ],
        [
            (w_lat[j], w_lon[j], datetime.combine(w_date[j], w_time[j]))
            for j in range(n_weather)
        ],
        params.space_buffer_m,
        params.time_buffer_s,
    )
    for i, j in enumerate(expected):
        wx_cells = row(got, i)[len(traffic.column_names) :]
        if j is None:
            assert all(v is None for v in wx_cells)
        else:
            assert wx_cells == row(weather, j)


OPERATOR_CHECKS = {
    "union": check_union,
    "select": check_select,
    "filter": check_filter,
    "join": check_join,
    "group_summarise": check_group,
    "time_space_join": check_spacetime,
}


def run_batch(name: str, count: int, seed: str) -> None:
    check = OPERATOR_CHECKS[name]
    rng = random.Random(seed)
    for _ in range(count):
        check(rng)
