"""The traced run: one workflow run with a span around every layer call.

Takes the same arguments as ``python -m wrangle run`` and does what that
command does, step by step, through the package's public functions: import
the CLI, parse the arguments and the workflow, load each input, drive each
node's ``op_def.run`` in ``topo_schedule`` order (spilling the result when
``--keep-intermediates`` is given), and write the outputs. That is the
*driven* pass. A second pass, run id ``execute``, times one whole
``workflow.execute`` call over the same inputs, without spilling.

Counters come only from public return values: rows and columns in and out
per node, bytes read and written, reps and ``unknown_rep_fields`` of a
weather document.

Usage (from the directory the outputs are relative to, with the package's
``src`` on ``PYTHONPATH``)::

    python traced_run.py SPANS.json run dwr1.json --input ds1_1=... --out OUT ...

Span start and end times are ``time.monotonic()``, so the caller can relate
them to its own clock.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def _shape(value) -> dict:
    if hasattr(value, "row_count"):
        return {"rows": value.row_count, "cols": len(value.column_names)}
    if hasattr(value, "locations"):
        reps = sum(len(p.reps) for loc in value.locations for p in loc.periods)
        return {"reps": reps}
    return {"bytes": len(value)}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    rec = Recorder("driven")

    with rec.span("cli.import"):
        from importlib import resources

        from wrangle import cli
        from wrangle.table import Table, infer_column_types, parse_csv, write_csv
        from wrangle.weather import parse_weather_json
        from wrangle.workflow import execute, parse_workflow, sequential_keys, topo_schedule

    with rec.span("cli.build_parser"):
        args = cli.build_parser().parse_args(cli_argv)
    with rec.span("workflow.parse_workflow"):
        spec = parse_workflow(resources.files("wrangle.workflows").joinpath(args.workflow).read_bytes())

    declared = {x.name: x.kind for x in spec.inputs}
    inputs: dict[str, object] = {}
    for pair in args.input:
        name, _, path = pair.partition("=")
        if declared[name] == "table-csv":
            with rec.span("cli.load_table", input=name) as s:
                data = Path(path).read_bytes()
                s.attrs["bytes"] = len(data)
                with rec.span("table.parse_csv", bytes=len(data)) as p:
                    raw = parse_csv(data)
                    p.attrs.update(_shape(raw))
                with rec.span("table.infer_column_types") as p:
                    inputs[name] = infer_column_types(raw)
                    p.attrs.update(_shape(inputs[name]))
        else:
            with rec.span("cli.load_weather", input=name) as s:
                data = Path(path).read_bytes()
                s.attrs["bytes"] = len(data)
                with rec.span("weather.parse_weather_json", bytes=len(data)) as p:
                    doc = parse_weather_json(data)
                    p.attrs.update(_shape(doc), unknown_rep_fields=doc.unknown_rep_fields)
                inputs[name] = doc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spill_dir = None
    if args.keep_intermediates:
        workspace = os.environ.get("WRANGLE_WORKSPACE")
        spill_dir = Path(workspace) if workspace else out_dir / "intermediates"
        spill_dir.mkdir(parents=True, exist_ok=True)

    def resolve(ref):
        return inputs[ref.input_name] if ref.input_name is not None else results[ref.node_id]

    def write(path: Path, value, span_name: str, **attrs) -> None:
        with rec.span(span_name, **attrs) as s:
            if isinstance(value, Table):
                with rec.span("table.write_csv", rows=value.row_count) as w:
                    payload = write_csv(value)
                    w.attrs["bytes"] = len(payload)
            else:
                payload = value
            path.write_bytes(payload)
            s.attrs["bytes"] = len(payload)

    issue = sequential_keys()
    keys = {n.id: issue() for n in spec.nodes}
    results: dict[str, object] = {}
    for stage in topo_schedule(spec):
        for node_id in stage:
            node = spec.node(node_id)
            ports = {port: resolve(ref) for port, ref in node.inputs.items()}
            with rec.span(node.op, node=node_id, inputs={p: _shape(v) for p, v in ports.items()}) as s:
                results[node_id] = node.op_def.run(ports, node.bound_params)
            s.attrs["output"] = _shape(results[node_id])
            if node.op == "spacetime.time_space_join":
                stamp = results[node_id].column("wx_" + node.bound_params["params"].weather_date)
                s.attrs["matched"] = sum(v is not None for v in stamp.cells)
            if spill_dir is not None:
                suffix = "csv" if isinstance(results[node_id], Table) else "svg"
                write(spill_dir / f"{keys[node_id]}.{suffix}", results[node_id],
                      "workflow.spill", spilled=node_id)

    for out in spec.outputs:
        value = resolve(out.ref)
        suffix = "csv" if isinstance(value, Table) else "svg"
        write(out_dir / f"{out.name}.{suffix}", value, "cli.write_output", output=out.name)
    driven_end = time.monotonic()

    results.clear()
    rec.run_id = "execute"
    mode = "sequential" if args.seq else "parallel"
    with rec.span("workflow.execute", mode=mode) as s:
        _, report = execute(spec, inputs, mode=mode, key_issuer=sequential_keys())
    s.attrs["node_s"] = sum(n.wall_ms for n in report.nodes) / 1000.0

    rec.dump(spans_path, driven_end=driven_end)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
