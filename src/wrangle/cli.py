"""Command-line surface.

Subcommands: ``run`` executes a workflow file, ``op`` invokes one operator,
``gen`` emits a seeded synthetic dataset, ``flatten-weather`` and ``chart``
are shortcuts for the corresponding operators, ``list-ops`` enumerates the
registry.

Exit codes: 0 success, 1 usage (bad flags, missing files, invalid
generator config), 2 data error (CSV/JSON parsing, cell types), 3 workflow
error (validation failure or a failing node; the message names the node).

``WRANGLE_WORKSPACE`` overrides where ``run --keep-intermediates`` spills
per-node results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from importlib import resources
from pathlib import Path

from .chart import ChartSpec, render_bar_chart
from .errors import DataError, RangeError, UnknownOp, WorkflowError
from .gen import GenConfig, generate
from .ops import OpDef, get_op, kind_of_result, list_ops
from .table import Table, infer_column_types, parse_csv, write_csv
from .weather import flatten_weather, parse_weather_json
from .workflow import (execute, parse_workflow, random_keys, sequential_keys,
                       write_atomic, write_result)

BUNDLED_WORKFLOWS = ("dwr1.json", "dwr2.json")


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
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p.read_bytes()


def _load_table(path: str) -> Table:
    try:
        return infer_column_types(parse_csv(_read_bytes(path)))
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_weather(path: str):
    try:
        return parse_weather_json(_read_bytes(path))
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _workflow_bytes(path: str) -> bytes:
    p = Path(path)
    if p.is_file():
        return p.read_bytes()
    if p.name == path and path in BUNDLED_WORKFLOWS:
        return resources.files("wrangle.workflows").joinpath(path).read_bytes()
    raise FileNotFoundError(f"no such workflow file: {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    spec = parse_workflow(_workflow_bytes(args.workflow))

    declared = {x.name: x.kind for x in spec.inputs}
    inputs: dict[str, object] = {}
    for pair in args.input or []:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            return _fail(1, f"bad --input {pair!r}, want name=path")
        if name not in declared:
            return _fail(
                1, f"workflow has no input '{name}' (declared: {sorted(declared)})"
            )
        if declared[name] == "table-csv":
            inputs[name] = _load_table(path)
        else:
            inputs[name] = _load_weather(path)
    missing = sorted(set(declared) - set(inputs))
    if missing:
        return _fail(1, f"missing --input for: {', '.join(missing)}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spill_dir = None
    if args.keep_intermediates:
        workspace = os.environ.get("WRANGLE_WORKSPACE")
        spill_dir = Path(workspace) if workspace else out_dir / "intermediates"
        spill_dir.mkdir(parents=True, exist_ok=True)

    issuer = sequential_keys() if args.deterministic_keys else random_keys()
    outputs, report = execute(spec, inputs, key_issuer=issuer, spill_dir=spill_dir)

    for line in report.lines():
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
        values[port] = _load_table(path) if kind == "table" else _load_weather(path)
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
    values = _bind_files(op_def, args.table or [], args.weather or [])
    result = op_def.run(values, bound)

    if isinstance(result, Table):
        payload = write_csv(result)
    elif isinstance(result, bytes):
        payload = result
    else:
        return _fail(2, f"op produced unwritable kind {kind_of_result(result)}")
    if args.out:
        write_atomic(Path(args.out), payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
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


def cmd_flatten_weather(args: argparse.Namespace) -> int:
    doc = _load_weather(args.weather_json)
    payload = write_csv(flatten_weather(doc))
    if args.out:
        write_atomic(Path(args.out), payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    t = _load_table(args.table)
    spec = ChartSpec(category_col=args.category, value_col=args.value, title=args.title)
    write_atomic(Path(args.out), render_bar_chart(t, spec))
    print(f"wrote {args.out}")
    return 0


def cmd_list_ops(args: argparse.Namespace) -> int:
    for op_def in list_ops():
        ports = ", ".join(f"{name}:{kind}" for name, kind in op_def.ports)
        print(f"{op_def.name:<36} ({ports}) -> {op_def.result}")
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
                   help="spill every node result to the workspace directory")
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

    p = sub.add_parser("flatten-weather", help="flatten observation JSON to CSV")
    p.add_argument("weather_json")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_flatten_weather)

    p = sub.add_parser("chart", help="render a bar chart from a two-column CSV")
    p.add_argument("table")
    p.add_argument("--category", required=True, help="category column name")
    p.add_argument("--value", required=True, help="numeric value column name")
    p.add_argument("--title", default="")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_chart)

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
    except FileNotFoundError as exc:
        return _fail(1, f"error: {exc}")
    except ValueError as exc:
        return _fail(1, f"error: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
