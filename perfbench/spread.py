"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload dwr2 ...] [--trace 0]

For every workload it runs the command in ``BENCHMARK.json`` once per seed,
with ``run_seconds``, and prints, per metric, the median of the values and
the distance between their first and third quartiles as a share of that
median, next to the metric's bound. A JSON summary is written to
``.perfbench_work/spread-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="summary path (default .perfbench_work/spread-<trace>.json)")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            out = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            elapsed = time.perf_counter() - started
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"elapsed={elapsed:.1f}s", file=sys.stderr, flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            rows[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name)}
            print(f"{workload:11s} {name:40s} median {med:12.4f}  spread {rows[name]['spread']:.3f}"
                  f"  bound {rows[name]['bound']}")
        summary[workload] = {"metrics": rows, "runs": runs}
    out = args.out or ROOT / ".perfbench_work" / f"spread-{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
