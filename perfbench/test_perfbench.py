"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The last test generates a second seed and runs the gate and the traced run
of every workload, which takes a few minutes.
"""

from __future__ import annotations

import json

import pytest

import run
from spans import Recorder, Span, coverage, load_spans, self_time_by_name, self_times


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "r")


def test_self_time_subtracts_children_once_where_they_overlap():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        _span(3, "a.child", 2.0, 3.0, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_self_time_by_name_sums_repeated_spans():
    spans = [
        _span(0, "load", 0.0, 3.0),
        _span(1, "parse", 0.5, 2.0, parent=0),
        _span(2, "load", 3.0, 5.0),
        _span(3, "parse", 3.0, 4.5, parent=2),
    ]
    assert self_time_by_name(spans) == pytest.approx({"load": 2.0, "parse": 3.0})


def test_coverage_counts_top_level_spans_only():
    spans = [
        _span(0, "a", 1.0, 4.0),
        _span(1, "a.child", 1.0, 4.0, parent=0),
        _span(2, "b", 5.0, 10.0),
    ]
    assert coverage(spans, 0.0, 10.0) == pytest.approx(0.8)


def test_recorder_nests_and_round_trips(tmp_path):
    rec = Recorder("driven")
    with rec.span("outer", n=1):
        with rec.span("inner") as inner:
            inner.attrs["rows"] = 3
    rec.run_id = "execute"
    with rec.span("second"):
        pass
    path = tmp_path / "spans.json"
    rec.dump(path, done=1.5)
    spans, marks = load_spans(path)
    assert [(s.name, s.parent, s.run_id) for s in spans] == [
        ("outer", None, "driven"), ("inner", 0, "driven"), ("second", None, "execute")]
    assert spans[1].attrs == {"rows": 3} and spans[0].attrs == {"n": 1}
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end
    assert marks == {"done": 1.5}


def test_digest_rejects_a_one_byte_change(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "workspace").mkdir()
    (tmp_path / "out" / "journey_time_s.csv").write_bytes(b"journey_time_s\n96.5\n")
    spilled = tmp_path / "workspace" / "tbl-000000000001.csv"
    spilled.write_bytes(b"a,b\n1,2\n")
    pinned = run.outputs_digest(tmp_path)
    assert run.outputs_digest(tmp_path) == pinned
    spilled.write_bytes(b"a,b\n1,3\n")
    assert run.outputs_digest(tmp_path) != pinned
    spilled.write_bytes(b"a,b\n1,2\n")
    spilled.rename(spilled.with_name("tbl-000000000002.csv"))
    assert run.outputs_digest(tmp_path) != pinned


def test_oracle_tolerance_is_tight():
    want = {"wet": 24.0, "dry": 33.0}
    assert run.values_match({"wet": 24.0 * (1 + 1e-12), "dry": 33.0}, want)
    assert not run.values_match({"wet": 24.0001, "dry": 33.0}, want)
    assert not run.values_match({"dry": 33.0}, want)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_record_names_seed_config_python_and_nproc():
    ctx = run.context("dwr2", 11)
    assert ctx["seed"] == 11 and ctx["workload"] == "dwr2"
    assert ctx["gen_config"]["rows_per_site"] == "50000"
    assert ctx["gen_config"]["weather_locations"] == "4"
    assert ctx["python"].count(".") == 2 and ctx["nproc"] >= 1


def test_second_seed_passes_the_gate_and_keeps_each_workload_bound_where_expected(tmp_path):
    run.check_tree()
    cache = run.WORK / "cache" / run.fingerprint()
    inputs = run.prepare_inputs(cache, 11)
    facts = {}
    for workload in run.WORKLOADS:
        verdict = run.gate(workload, inputs, cache, 11)
        assert verdict["ok"], verdict
        facts[workload], ok = run.traced_run(workload, inputs, verdict["digest"],
                                             tmp_path / f"{workload}-spans.json")
        assert ok, workload
        assert facts[workload]["trace.coverage"] >= 0.95, workload

    def layer_times(f):
        return {k: v for k, v in f.items()
                if k.endswith(".s") and not k.startswith(("trace.", "ops.", "workflow.execute"))}

    dwr2 = layer_times(facts["dwr2"])
    assert max(dwr2, key=dwr2.get) == "spacetime.time_space_join.s"
    dwr1 = layer_times(facts["dwr1"])
    load = dwr1.pop("table.parse_csv.s") + dwr1.pop("table.infer_column_types.s")
    assert load > max(dwr1.values())
    assert load > 0.5 * facts["dwr1"]["trace.wall_s"]
    spill = facts["dwr1_spill"]
    assert spill["table.write_csv.mb"] > 10 > facts["dwr1"]["table.write_csv.mb"]
