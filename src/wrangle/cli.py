"""Command-line surface.

Subcommands: ``run`` executes a workflow file, ``op`` invokes one operator
(``op weather.flatten`` flattens observation JSON to CSV, ``op chart.bar``
renders a bar chart), ``gen`` emits a seeded synthetic dataset,
``list-ops`` enumerates the registry.

Exit codes: 0 success; 1 usage or a file the system cannot read or write
(bad flags, invalid generator config, a missing input, an output path that
is taken); 2 data error (CSV/JSON parsing, cell types); 3 workflow error (a
failing node, whose message names it). A workflow file refused for its
shape is a data error, exit 2: invalid JSON, unknown, missing or mistyped
keys in the document or in an input, node or output entry, a bad input
kind, duplicate input or output names, an output name that is no file
name. One refused for what it says is a workflow error, exit 3: an
unsupported version, a bad or duplicate node id, an unknown op, bad params,
wrong ports or port kinds, a dangling reference, a cycle, an output that
carries a weather document.

``WRANGLE_WORKSPACE`` overrides where ``run --keep-intermediates`` spills
per-node results. An ``--out``, or a spill directory, that exists and is no
directory is refused before any input is read; so is an ``op --out`` that
names a directory or lies in none.

``run`` loads its inputs before any node runs, shared with forked workers,
one per further usable CPU. A fair share is the bytes of all inputs over the
usable CPUs. Each CSV input is a list of pieces: newline-aligned byte ranges
that each fill a share but the last, if it is a share and a half or more,
else the whole file. Weather inputs stay with the process and count against
its share. The pieces are dealt largest first; each reader parses its pieces
and types each column, and a worker sends the typed cells that marshal and
the text of the others. An input whose pieces disagree on a column's kind,
or with a range the column path cannot decide (a quoted comma or newline, a
stray quote, ragged rows, a lone CR, a bad header or undecodable bytes), is
loaded again whole, one by one. With ``--keep-intermediates``, the node
results are spilled after the last node has run (or failed), largest table
first, shared the same way. Either way tables, files, errors and exit codes
are those of doing the work one by one, and no worker outlives the run
(``workflow._fork_map``). The run report says after its first line how the
load was shared and how long it took.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

from . import workflow
from .errors import DataError, RangeError, UnknownOp, WorkflowError
from .ops import OpDef, get_op, list_ops
from .record import record
from .table import (infer_column_types, join_pieces, pack_piece, parse_csv, parse_csv_range,
                    proven_kinds, unpack_piece)
from .weather import parse_weather_json
from .workflow import (_count, _fork_map, encode_result, execute, parse_workflow, random_keys,
                       read_columns, sequential_keys, write_atomic, write_result)

class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage exit code is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _load(path: str, kind: str, columns: frozenset[str] | None = None) -> object:
    """The ``kind`` input at ``path``, a ``table-csv`` read as ``columns`` (None: all)."""
    try:
        data = _read_bytes(path)
        if kind == "table-csv":
            return infer_column_types(parse_csv(data, columns))
        return parse_weather_json(data)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _cut(path: str, size: int, share: float) -> tuple[bytes | None, list[tuple[int, int]]]:
    """The CSV input at ``path`` as pieces: its bytes and its rows cut into
    ``round(size / share)`` ranges, or ``(None, [(0, size)])``, one piece read whole.

    Range ``k``, counting from 1, ends at the first line end (just after a
    ``\\n``) at or past byte ``k * share`` of the file; the last takes the
    rest. An input is left whole, with nothing read, where ``size`` makes
    fewer than two ranges, and where it cannot be read, has no header line or
    gives fewer than two ranges.
    """
    whole = None, [(0, size)]
    count = round(size / share) if size else 0
    if count < 2:
        return whole
    try:
        data = _read_bytes(path)
    except OSError:  # read by its reader, so that it fails where a one-by-one load does
        return whole
    ends = [data.find(b"\n") + 1]
    if ends[0]:
        for k in range(1, count):
            end = data.find(b"\n", max(ends[0], round(k * share)) - 1) + 1
            if end > ends[-1]:
                ends.append(end)
        ends.append(len(data))
    ranges = [(start, end) for start, end in zip(ends, ends[1:]) if end > start]
    return (data, ranges) if len(ranges) > 1 else whole


class _Declined(Exception):
    """A range of a cut input that the column path cannot decide."""


def _read_piece(path: str, columns: frozenset[str] | None, cut: tuple, i: int) -> list:
    """The :func:`proven_kinds` of piece ``i`` of the CSV input at ``path``, cut by :func:`_cut`:
    of a whole input read here by :func:`parse_csv`, or of a range parsed behind the
    header line, which raises :class:`_Declined` where the column path cannot decide it."""
    data, ranges = cut
    if data is None:
        return proven_kinds(parse_csv(_read_bytes(path), columns))
    start, end = ranges[i]
    table = parse_csv_range(data[: ranges[0][0]] + data[start:end], columns)
    if table is None:
        raise _Declined
    return proven_kinds(table)


@record
class LoadReport:
    """What ``wrangle run``'s load did: the inputs, the readers that shared them
    (this process and each worker forked), the inputs cut and the ranges they
    made, the CSV inputs loaded whole again, one by one, and the wall time."""

    inputs: int
    readers: int
    cut: int
    ranges: int
    again: int
    wall_ms: float

    def line(self) -> str:
        cut = f"{self.cut} cut into {_count(self.ranges, 'range')}" if self.cut else "none cut"
        again = f", {self.again} loaded whole again" if self.again else ""
        return (f"  load: {_count(self.inputs, 'input')}, {_count(self.readers, 'reader')}, "
                f"{cut}{again}, {self.wall_ms:.1f} ms")


def _load_inputs(
    paths: dict[str, str], declared: dict[str, str], read: dict[str, frozenset[str] | None]
) -> tuple[dict[str, object], LoadReport]:
    """Each input of ``paths`` loaded, as loading them one by one in order gives them,
    and what the load did.

    A fair share is the bytes of all inputs (an unsizable file counts as
    empty) over the usable CPUs, and each CSV input is cut into pieces by
    :func:`_cut`, before any worker is forked. The pieces are dealt by size
    to :func:`workflow._fork_map`'s readers; weather inputs stay with the
    process, and their bytes start its share. Every reader reads a piece by
    :func:`_read_piece`, a worker's piece comes back by :func:`pack_piece`
    and :func:`unpack_piece`, and an input's pieces join by
    :func:`join_pieces`. An input whose pieces do not join, or with a piece
    that declines, fails or was lost with its worker, is loaded whole by
    :func:`_load` here, at its place in ``paths`` order, so that the first
    input that fails raises what it raises alone.
    """
    started = time.perf_counter()
    sizes = {name: _size(path) for name, path in paths.items()}
    share = sum(sizes.values()) / workflow._usable_cpus()
    cuts = {name: _cut(path, sizes[name], share)
            for name, path in paths.items() if declared[name] == "table-csv"}
    keys = [(name, i) for name in paths for i in range(len(cuts[name][1]) if name in cuts else 1)]
    dealt = {(name, i): end - start
             for name, (_, ranges) in cuts.items() for i, (start, end) in enumerate(ranges)}
    whole: dict[str, object] = {}

    def load(name: str) -> object:
        if name not in whole:
            whole[name] = _load(paths[name], declared[name], read[name])
        return whole[name]

    def run(key: tuple[str, int]) -> object:
        name, i = key
        if name in cuts and name not in whole:
            try:
                proven = _read_piece(paths[name], read[name], cuts[name], i)
                return [(column, kind, typed) for column, kind, _, typed in proven]
            except (_Declined, DataError):  # loaded whole, where it fails as alone
                pass
        return load(name)

    def work(key: tuple[str, int]) -> list:
        name, i = key  # a piece that declines or fails stops the worker here
        return pack_piece(_read_piece(paths[name], read[name], cuts[name], i))

    held = sum(sizes[name] for name in paths if name not in cuts)
    done, readers = _fork_map(keys, dealt, run, work, lambda key, sent: unpack_piece(sent),
                              held=held)
    loaded = {}
    for name in paths:
        table = None if name in whole else join_pieces([done[k] for k in keys if k[0] == name])
        loaded[name] = load(name) if table is None else table
    cut = [ranges for data, ranges in cuts.values() if data is not None]
    wall_ms = (time.perf_counter() - started) * 1000.0
    again = len(whole.keys() & cuts.keys())
    return loaded, LoadReport(len(paths), readers, len(cut), sum(map(len, cut)), again, wall_ms)


def _workflow_bytes(path: str) -> bytes:
    p = Path(path)
    if p.is_file():
        return p.read_bytes()
    bundled = resources.files("wrangle.workflows").joinpath(path)
    if p.name == path and bundled.is_file():  # a bare name of a bundled workflow
        return bundled.read_bytes()
    raise FileNotFoundError(f"no such workflow file: {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    # A run frees its tables by reference counting and makes few cycles, but
    # the cyclic collector walks every cell tuple of the loaded tables (some
    # 20 ms a young-generation pass in dwr1). It is off for the run and then
    # set back as it was, for callers in the same process.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_workflow(args)
    finally:
        if was_enabled:
            gc.enable()


def _run_workflow(args: argparse.Namespace) -> int:
    spec = parse_workflow(_workflow_bytes(args.workflow))

    declared = {x.name: x.kind for x in spec.inputs}
    paths: dict[str, str] = {}
    for pair in args.input or []:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            return _fail(1, f"bad --input {pair!r}, want name=path")
        if name not in declared:
            return _fail(
                1, f"workflow has no input '{name}' (declared: {sorted(declared)})"
            )
        if name in paths:
            return _fail(1, f"--input '{name}' given more than once")
        paths[name] = path
    missing = sorted(set(declared) - set(paths))
    if missing:
        return _fail(1, f"missing --input for: {', '.join(missing)}")

    out_dir = Path(args.out)
    spill_dir = None
    if args.keep_intermediates:
        workspace = os.environ.get("WRANGLE_WORKSPACE")
        spill_dir = Path(workspace) if workspace else out_dir / "intermediates"
    # Refused before the load, with what mkdir would raise after it; a failed
    # load still creates nothing.
    for directory in (out_dir, spill_dir):
        if directory is not None and directory.exists() and not directory.is_dir():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(directory))
    inputs, load = _load_inputs(paths, declared, read_columns(spec))

    out_dir.mkdir(parents=True, exist_ok=True)
    if spill_dir is not None:
        spill_dir.mkdir(parents=True, exist_ok=True)

    issuer = sequential_keys() if args.deterministic_keys else random_keys()
    outputs, report = execute(spec, inputs, key_issuer=issuer, spill_dir=spill_dir)

    lines = report.lines()
    for line in (lines[0], load.line(), *lines[1:]):
        print(line)
    for name, value in outputs.items():
        path = write_result(out_dir, name, value)
        print(f"output {name} -> {path}")
    return 0


def _bind_files(op_def: OpDef, tables: list[str], weathers: list[str]) -> dict[str, object]:
    values: dict[str, object] = {}
    t = iter(tables)
    w = iter(weathers)
    for port, kind in op_def.ports:
        source = t if kind == "table" else w
        path = next(source, None)
        if path is None:
            raise SystemExit(
                _fail(1, f"op {op_def.name}: port '{port}' needs a --{'table' if kind == 'table' else 'weather'} file")
            )
        values[port] = _load(path, "table-csv" if kind == "table" else "weather-json")
    leftover = list(t) + list(w)
    if leftover:
        raise SystemExit(_fail(1, f"op {op_def.name}: unused input files {leftover}"))
    return values


def cmd_op(args: argparse.Namespace) -> int:
    try:
        op_def = get_op(args.op_name)
    except UnknownOp:
        names = ", ".join(o.name for o in list_ops())
        return _fail(1, f"unknown op '{args.op_name}'; registered: {names}")
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        return _fail(1, f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        return _fail(1, "--params must be a JSON object")

    bound = op_def.bind(params)
    # Refused before any input is read, naming the path given, not the temp file beside it.
    if args.out and Path(args.out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if args.out and not Path(args.out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    values = _bind_files(op_def, args.table or [], args.weather or [])
    _, payload = encode_result(op_def.name, op_def.run(values, bound))
    if args.out:
        write_atomic(Path(args.out), payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from datetime import date
    from .gen import GenConfig, generate  # imported here, so that ``run`` never loads it

    try:
        config = GenConfig(
            seed=args.seed,
            sites=args.sites,
            rows_per_site=args.rows,
            date_start=date.fromisoformat(args.date_start),
            date_end=date.fromisoformat(args.date_end),
            weather_locations=args.weather_locations,
        )
    except (RangeError, ValueError) as exc:
        return _fail(1, f"invalid config: {exc}")
    for path in generate(config, Path(args.out)):
        print(f"wrote {path}")
    return 0


def cmd_list_ops(args: argparse.Namespace) -> int:
    for op_def in list_ops():
        ports = ", ".join(f"{name}:{kind}" for name, kind in op_def.ports)
        params = " ".join(
            p.name if p.required else f"{p.name}={json.dumps(p.default, separators=(',', ':'))}"
            for p in op_def.params
        )
        print(f"{op_def.name:<36} ({ports}) -> {op_def.result}  {params}".rstrip())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wrangle",
        description="Run traffic data wrangling operators and workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a workflow file")
    p.add_argument("workflow", help="workflow JSON path (dwr1.json/dwr2.json resolve to bundled copies)")
    p.add_argument("--input", action="append", metavar="NAME=PATH",
                   help="bind a declared workflow input to a file (repeatable)")
    p.add_argument("--out", required=True, help="directory for workflow outputs")
    p.add_argument("--seq", action="store_true",
                   help="accepted and ignored: nodes always run one at a time")
    p.add_argument("--keep-intermediates", action="store_true",
                   help="spill every node result to the workspace directory, after the "
                        "last node, shared with one forked writer per further usable CPU")
    p.add_argument("--deterministic-keys", action="store_true",
                   help="issue sequential session keys instead of random ones")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("op", help="run a single operator")
    p.add_argument("op_name", help="qualified operator name, e.g. traffic.clean_site_id")
    p.add_argument("--table", action="append", metavar="PATH",
                   help="CSV input, bound to table ports in order (repeatable)")
    p.add_argument("--weather", action="append", metavar="PATH",
                   help="weather JSON input, bound to weatherdoc ports in order")
    p.add_argument("--params", default="{}", help="operator params as a JSON object")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sites", type=int, default=2)
    p.add_argument("--rows", type=int, default=1000, help="traffic rows per site")
    p.add_argument("--date-start", default="2018-02-01")
    p.add_argument("--date-end", default="2018-02-28")
    p.add_argument("--weather-locations", type=int, default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("list-ops", help="list registered operators")
    p.set_defaults(func=cmd_list_ops)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WorkflowError as exc:
        return _fail(3, f"workflow error: {exc}")
    except DataError as exc:
        return _fail(2, f"data error: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(1, f"error: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
