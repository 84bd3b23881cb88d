"""The repo benchmark: the bundled workflows through the real CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dwr1 --seed 7 --seconds 20 --trace 0

Workloads (inputs from ``wrangle.gen.generate`` with :func:`gen_config`):

- ``dwr1``: Friday journey time over both traffic CSVs. Load-bound.
- ``dwr2``: wet vs dry Friday speed. Bound by the space-time join.
- ``dwr1_spill``: ``dwr1`` with ``--keep-intermediates``, so every node
  result is also written out as CSV.

One run of the benchmark:

1. generates the inputs for the seed (cached per seed under
   ``.perfbench_work``);
2. gates correctness once per seed and workload: one CLI run, checked
   against the independent oracles in ``tests/oracles.py``, after which the
   sha256 of its output bytes (spilled intermediates included) is pinned;
3. with ``--trace 0``, times ``setup_s`` and then runs
   ``python -m wrangle run ... --deterministic-keys`` in a fresh
   interpreter, one run in flight at a time, until ``--seconds`` have
   passed; a timed run fails if it exits non-zero or its output digest
   differs from the pinned one;
4. with ``--trace 1``, makes the same untraced runs and then one traced run
   (``traced_run.py``) that records a span around every layer call.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record
(seed, generator config, samples, Python version, ``nproc``) and the traced
run's spans go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]

from spans import coverage, load_spans, self_time_by_name  # noqa: E402

ROWS_PER_SITE = 50_000
SETUP_REPS = 3  # per batch; a batch runs before each timed run and after the last
INPUT_CACHE_SEEDS = 12
REL_TOL = 1e-9

# (name, unit, better) of every metric, in report order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = (
    ("table.parse_csv.s", "s", "lower"),
    ("table.parse_csv.mb_per_s", "MB/s", "higher"),
    ("table.infer_column_types.s", "s", "lower"),
    ("table.infer_types.s", "s", "lower"),
    ("table.write_csv.s", "s", "lower"),
    ("table.write_csv.mb", "MB", "lower"),
    ("relops.union.s", "s", "lower"),
    ("relops.select_columns.s", "s", "lower"),
    ("relops.filter.s", "s", "lower"),
    ("relops.filter.selectivity", "ratio", "lower"),
    ("relops.join.s", "s", "lower"),
    ("relops.group_summarise.s", "s", "lower"),
    ("traffic.filter_weekdays.s", "s", "lower"),
    ("traffic.separate_datetime.s", "s", "lower"),
    ("traffic.clean_site_id.s", "s", "lower"),
    ("traffic.journey_time.s", "s", "lower"),
    ("traffic.average_speed_by_condition.s", "s", "lower"),
    ("spacetime.time_space_join.s", "s", "lower"),
    ("spacetime.pairs", "count", "lower"),
    ("spacetime.matched_ratio", "ratio", "higher"),
    ("spacetime.add_weather_condition.s", "s", "lower"),
    ("weather.parse_weather_json.s", "s", "lower"),
    ("weather.flatten.s", "s", "lower"),
    ("weather.reps", "count", "higher"),
    ("weather.unknown_rep_fields", "count", "lower"),
    ("chart.bar.s", "s", "lower"),
    ("ops.run.s", "s", "lower"),
    ("workflow.parse_workflow.s", "s", "lower"),
    ("workflow.spill.s", "s", "lower"),
    ("workflow.execute.s", "s", "lower"),
    ("workflow.execute.overhead_s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    ("cli.load_table.s", "s", "lower"),
    ("cli.load_weather.s", "s", "lower"),
    ("cli.read.mb", "MB", "lower"),
    ("cli.write_output.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
)
# Workflow ops whose node self time is reported as ``<op>.s``.
NODE_OPS = (
    "table.infer_types", "relops.union", "relops.select_columns", "relops.filter",
    "relops.join", "relops.group_summarise", "traffic.filter_weekdays",
    "traffic.separate_datetime", "traffic.clean_site_id", "traffic.journey_time",
    "traffic.average_speed_by_condition", "spacetime.time_space_join",
    "spacetime.add_weather_condition", "weather.flatten", "chart.bar",
)

SETUP_CODE = (
    "import sys, wrangle.cli\n"
    "from importlib import resources\n"
    "from wrangle.workflow import parse_workflow\n"
    "parse_workflow(resources.files('wrangle.workflows').joinpath(sys.argv[1]).read_bytes())\n"
)


@dataclass(frozen=True)
class Workload:
    workflow: str
    inputs: tuple[tuple[str, str], ...]  # (workflow input, generated file)
    traffic_files: int
    spill: bool = False


_DWR1_INPUTS = (("ds1_1", "site_1.csv"), ("ds1_2", "site_2.csv"), ("ds1_3", "sites.csv"))
WORKLOADS = {
    "dwr1": Workload("dwr1.json", _DWR1_INPUTS, 2),
    "dwr2": Workload("dwr2.json", (("ds2_1", "site_1.csv"), ("ds2_2", "sites.csv"),
                                   ("ds2_3", "weather.json")), 1),
    "dwr1_spill": Workload("dwr1.json", _DWR1_INPUTS, 2, spill=True),
}


class CannotRun(Exception):
    """The checkout cannot run the benchmark: files missing, or the package fails to start."""


def gen_config(seed: int):
    from wrangle.gen import GenConfig

    return GenConfig(seed=seed, sites=2, rows_per_site=ROWS_PER_SITE, weather_locations=4)


def fingerprint() -> str:
    """Hash of everything a cached gate result depends on."""
    h = hashlib.sha256()
    files = sorted(SRC.joinpath("wrangle").rglob("*.py")) + sorted(SRC.joinpath("wrangle").rglob("*.json"))
    for path in files + [ORACLES] + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file below ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def child_env(run_dir: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["WRANGLE_WORKSPACE"] = str(run_dir / "workspace")
    return env


def cli_args(w: Workload, inputs: Path, run_dir: Path) -> list[str]:
    argv = ["run", w.workflow]
    for name, file in w.inputs:
        argv += ["--input", f"{name}={inputs / file}"]
    argv += ["--out", str(run_dir / "out"), "--deterministic-keys"]
    if w.spill:
        argv.append("--keep-intermediates")
    return argv


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    ok: bool = False


def spawn(argv: list[str], run_dir: Path) -> Sample:
    """Run ``python argv`` in ``run_dir``: wall time from spawn to exit, plus rusage."""
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=run_dir, env=child_env(run_dir),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    # Reaped by wait4 above, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def outputs_digest(run_dir: Path) -> str:
    """Digest of what a run wrote: outputs, and spilled intermediates if any."""
    h = hashlib.sha256(tree_digest(run_dir / "out").encode())
    if (run_dir / "workspace").is_dir():
        h.update(tree_digest(run_dir / "workspace").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Inputs and the correctness gate
# ---------------------------------------------------------------------------

def prepare_inputs(cache: Path, seed: int) -> Path:
    """Generated inputs for ``seed``; the few most recent seeds stay cached."""
    from wrangle.gen import generate

    inputs = cache / f"seed-{seed}" / "inputs"
    if not inputs.is_dir():
        partial = inputs.with_name("inputs.partial")
        shutil.rmtree(partial, ignore_errors=True)
        generate(gen_config(seed), partial)
        partial.rename(inputs)
    os.utime(inputs)
    cached = sorted(cache.glob("seed-*/inputs"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-INPUT_CACHE_SEEDS]:
        shutil.rmtree(old)
    return inputs


def _load_oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_values(workload: str, inputs: Path) -> dict[str, float]:
    oracles = _load_oracles()
    if WORKLOADS[workload].workflow == "dwr1.json":
        seconds = oracles.dwr1_journey_time(
            [inputs / "site_1.csv", inputs / "site_2.csv"], inputs / "sites.csv")
        return {"journey_time_s": seconds}
    return oracles.dwr2_condition_means(
        inputs / "site_1.csv", inputs / "sites.csv", inputs / "weather.json")


def output_values(workload: str, out: Path) -> dict[str, float]:
    """The analysis answer as the CLI wrote it, read with the csv module."""
    import csv

    if WORKLOADS[workload].workflow == "dwr1.json":
        with open(out / "journey_time_s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return {"journey_time_s": float(rows[1][0])}
    with open(out / "avg_speed_by_condition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {row["weatherCond"]: float(row["avg_speed"]) for row in rows}


def values_match(got: dict[str, float], want: dict[str, float]) -> bool:
    return got.keys() == want.keys() and all(
        math.isclose(got[k], want[k], rel_tol=REL_TOL) for k in want)


def gate(workload: str, inputs: Path, cache: Path, seed: int) -> dict:
    """Check one CLI run against the oracles and pin its output digest.

    The oracle is computed while the CLI run is in flight (two processes,
    one per core). Only a passing gate is cached.
    """
    path = cache / f"seed-{seed}" / f"gate-{workload}.json"
    if path.is_file():
        return json.loads(path.read_text())
    run_dir = WORK / "runs" / f"gate-{workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    argv = ["-m", "wrangle", *cli_args(WORKLOADS[workload], inputs, run_dir)]
    with open(run_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=run_dir, env=child_env(run_dir),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            want = oracle_values(workload, inputs)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.wait()
    result = {"ok": False, "oracle": want, "exit_code": proc.returncode}
    if proc.returncode == 0:
        result["output"] = output_values(workload, run_dir / "out")
        result["digest"] = outputs_digest(run_dir)
        result["ok"] = values_match(result["output"], want)
    else:
        result["stderr"] = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
    shutil.rmtree(run_dir)
    if result["ok"]:
        path.write_text(json.dumps(result))
    return result


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------

def measure_setup(workload: str) -> list[float]:
    """Fresh interpreters importing the CLI and parsing the workflow; no input is read.

    Batches are spread over the timed loop so that their median does not
    hinge on one moment of the host's load.
    """
    run_dir = WORK / "runs" / "setup"
    times = []
    for _ in range(SETUP_REPS):
        s = spawn(["-c", SETUP_CODE, WORKLOADS[workload].workflow], run_dir)
        if s.exit_code != 0:
            raise CannotRun((run_dir / "stderr.txt").read_text(errors="replace"))
        times.append(s.wall_s)
    shutil.rmtree(run_dir)
    return times


def timed_runs(workload: str, inputs: Path, seconds: float, digest: str | None,
               between: Callable[[], None]) -> list[Sample]:
    """Closed loop, one CLI run in flight, for about ``seconds``.

    A further run starts only while it is expected to end no more than half
    a run past ``seconds``; at least one run is made. ``between`` is called
    before each run and after the last, outside the runs' timing.
    """
    samples: list[Sample] = []
    started = time.perf_counter()
    while not samples or (
        time.perf_counter() - started + 0.5 * statistics.mean(s.wall_s for s in samples) < seconds
    ):
        between()
        run_dir = WORK / "runs" / f"timed-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        s = spawn(["-m", "wrangle", *cli_args(WORKLOADS[workload], inputs, run_dir)], run_dir)
        s.ok = s.exit_code == 0 and outputs_digest(run_dir) == digest
        samples.append(s)
        shutil.rmtree(run_dir)
    between()
    return samples


def end_to_end(workload: str, samples: list[Sample], setup: list[float]) -> dict[str, float]:
    wall = statistics.median(s.wall_s for s in samples)
    rows = WORKLOADS[workload].traffic_files * ROWS_PER_SITE
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "rows_per_s": rows / wall,
        "setup_s": statistics.median(setup),
    }


# ---------------------------------------------------------------------------
# The traced run and per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(workload: str, inputs: Path, digest: str | None, spans_path: Path) -> tuple[dict, bool]:
    """Run ``traced_run.py`` once, keeping its spans at ``spans_path``.

    Returns the per-layer facts and whether the run's outputs match ``digest``.
    """
    run_dir = WORK / "runs" / f"traced-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    s = spawn([str(HERE / "traced_run.py"), str(spans_path),
               *cli_args(WORKLOADS[workload], inputs, run_dir)], run_dir)
    if s.exit_code != 0:
        print((run_dir / "stderr.txt").read_text(errors="replace"), file=sys.stderr)
        shutil.rmtree(run_dir)
        return {}, False
    ok = outputs_digest(run_dir) == digest
    shutil.rmtree(run_dir)
    spans, marks = load_spans(spans_path)
    return layer_facts(spans, spawned, marks["driven_end"]), ok


def layer_facts(spans: list, spawned: float, driven_end: float) -> dict[str, float]:
    """Per-layer metrics (except the ones needing untraced runs) from one traced run."""
    driven = [s for s in spans if s.run_id == "driven"]
    own = self_time_by_name(driven)
    named = {}
    for s in driven:
        named.setdefault(s.name, []).append(s)

    def attr_sum(name: str, *path: str) -> float:
        total = 0
        for s in named.get(name, []):
            value = s.attrs
            for key in path:
                value = value[key]
            total += value
        return total

    facts = {name + ".s": own.get(name, 0.0) for name in NODE_OPS}
    parse_s = own.get("table.parse_csv", 0.0)
    facts.update({
        "table.parse_csv.s": parse_s,
        "table.parse_csv.mb_per_s": attr_sum("table.parse_csv", "bytes") / 1e6 / parse_s,
        "table.infer_column_types.s": own.get("table.infer_column_types", 0.0),
        "table.write_csv.s": own.get("table.write_csv", 0.0),
        "table.write_csv.mb": attr_sum("table.write_csv", "bytes") / 1e6,
        "weather.parse_weather_json.s": own.get("weather.parse_weather_json", 0.0),
        "weather.reps": attr_sum("weather.parse_weather_json", "reps"),
        "weather.unknown_rep_fields": attr_sum("weather.parse_weather_json", "unknown_rep_fields"),
        "ops.run.s": sum(s.duration for s in driven if "node" in s.attrs),
        "workflow.parse_workflow.s": own["workflow.parse_workflow"],
        "workflow.spill.s": own.get("workflow.spill", 0.0),
        "cli.import.s": own["cli.import"],
        "cli.load_table.s": own.get("cli.load_table", 0.0),
        "cli.load_weather.s": own.get("cli.load_weather", 0.0),
        "cli.read.mb": (attr_sum("cli.load_table", "bytes") + attr_sum("cli.load_weather", "bytes")) / 1e6,
        "cli.write_output.s": own.get("cli.write_output", 0.0),
        "trace.wall_s": driven_end - spawned,
        "trace.coverage": coverage(driven, spawned, driven_end),
    })
    rows_in = attr_sum("relops.filter", "inputs", "in", "rows")
    facts["relops.filter.selectivity"] = (
        attr_sum("relops.filter", "output", "rows") / rows_in if rows_in else 0.0)
    pairs = sum(s.attrs["inputs"]["traffic"]["rows"] * s.attrs["inputs"]["weather"]["rows"]
                for s in named.get("spacetime.time_space_join", []))
    traffic_rows = attr_sum("spacetime.time_space_join", "inputs", "traffic", "rows")
    facts["spacetime.pairs"] = pairs
    facts["spacetime.matched_ratio"] = (
        attr_sum("spacetime.time_space_join", "matched") / traffic_rows if traffic_rows else 0.0)
    execute = next(s for s in spans if s.name == "workflow.execute")
    facts["workflow.execute.s"] = execute.duration
    facts["workflow.execute.overhead_s"] = execute.duration - execute.attrs["node_s"]
    return facts


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "gen_config": {k: str(v) for k, v in asdict(gen_config(seed)).items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def check_tree() -> None:
    for path in (SRC / "wrangle" / "__init__.py", SRC / "wrangle" / "cli.py", ORACLES):
        if not path.is_file():
            raise CannotRun(f"missing {path.relative_to(ROOT)}: run from a full checkout")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full results record."""
    check_tree()
    cache = WORK / "cache" / fingerprint()
    cache.mkdir(parents=True, exist_ok=True)
    record = {"context": context(workload, seed)}

    phases = record["phase_s"] = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name], clock = now - clock, now

    inputs = prepare_inputs(cache, seed)
    phase("inputs")
    verdict = gate(workload, inputs, cache, seed)
    record["gate"] = verdict
    digest = verdict.get("digest") if verdict["ok"] else None
    phase("gate")

    setup: list[float] = []
    samples = timed_runs(workload, inputs, seconds, digest,
                         (lambda: None) if trace else (lambda: setup.extend(measure_setup(workload))))
    phase("timed")
    record["samples"] = [asdict(s) for s in samples]
    attempted, failed = len(samples), sum(not s.ok for s in samples)
    if trace:
        spans_path = WORK / "results" / f"{workload}-seed{seed}-spans.json"
        facts, traced_ok = traced_run(workload, inputs, digest, spans_path)
        attempted, failed = attempted + 1, failed + (not traced_ok)
        phase("traced")
        if facts:
            facts["trace.overhead_s"] = facts["trace.wall_s"] - statistics.median(
                s.wall_s for s in samples)
        facts["error_rate"] = failed / attempted
        values, table = facts, PER_LAYER
    else:
        record["setup_s"] = setup
        values, table = end_to_end(workload, samples, setup), END_TO_END
    record["result"] = {
        "correct": verdict["ok"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table if name in values},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2))
    print(f"perfbench: record written to {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
