"""Workflow parsing, static validation, staging, and execution."""

from __future__ import annotations

import json
import random
from importlib import resources

import pytest

import dagharness
from wrangle.errors import (
    BadVersion,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    InvalidNode,
    MalformedJson,
    NodeFailed,
    RegistryError,
    UnknownOp,
)
from wrangle.table import write_csv
from wrangle.workflow import (
    Registry,
    execute,
    parse_workflow,
    random_keys,
    sequential_keys,
    topo_schedule,
)


def bundled(name: str) -> bytes:
    return resources.files("wrangle.workflows").joinpath(name).read_bytes()


def wf(nodes, inputs=None, outputs=None, version=1):
    return json.dumps(
        {
            "version": version,
            "name": "t",
            "inputs": inputs if inputs is not None else [{"name": "x", "kind": "table-csv"}],
            "nodes": nodes,
            "outputs": outputs if outputs is not None else [],
        }
    ).encode()


def filter_node(node_id, source, predicate="k >= 0"):
    return {
        "id": node_id,
        "op": "relops.filter",
        "inputs": {"in": source},
        "params": {"predicate": predicate},
    }


class TestParseWorkflow:
    def test_bundled_dwr1_validates_with_ten_nodes(self):
        spec = parse_workflow(bundled("dwr1.json"))
        assert len(spec.nodes) == 10
        assert spec.outputs[0].name == "journey_time_s"

    def test_bundled_dwr2_validates(self):
        spec = parse_workflow(bundled("dwr2.json"))
        assert {n.op for n in spec.nodes} >= {
            "weather.flatten",
            "spacetime.time_space_join",
            "chart.bar",
        }

    def test_cycle_detected(self):
        nodes = [
            filter_node("a", "b.out"),
            filter_node("b", "a.out"),
        ]
        with pytest.raises(CycleDetected):
            parse_workflow(wf(nodes))

    def test_self_reference(self):
        with pytest.raises(CycleDetected):
            parse_workflow(wf([filter_node("a", "a.out")]))

    def test_missing_input_reference(self):
        with pytest.raises(DanglingReference):
            parse_workflow(wf([filter_node("a", "$inputs.missing")]))

    def test_missing_node_reference(self):
        with pytest.raises(DanglingReference):
            parse_workflow(wf([filter_node("a", "ghost.out")]))

    def test_bad_reference_syntax(self):
        with pytest.raises(DanglingReference):
            parse_workflow(wf([filter_node("a", "just-a-string")]))

    def test_unknown_op(self):
        with pytest.raises(UnknownOp):
            parse_workflow(
                wf([{"id": "a", "op": "relops.explode", "inputs": {"in": "$inputs.x"}}])
            )

    def test_duplicate_node_id(self):
        nodes = [filter_node("a", "$inputs.x"), filter_node("a", "$inputs.x")]
        with pytest.raises(DuplicateNodeId):
            parse_workflow(wf(nodes))

    def test_bad_version(self):
        with pytest.raises(BadVersion):
            parse_workflow(wf([], version=2))

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_workflow(b"{not json")

    def test_bad_node_id(self):
        with pytest.raises(InvalidNode):
            parse_workflow(wf([filter_node("Bad-Id", "$inputs.x")]))

    def test_grammar_params_fail_fast(self):
        with pytest.raises(InvalidNode) as err:
            parse_workflow(wf([filter_node("a", "$inputs.x", predicate="k >=")]))
        assert "node 'a'" in str(err.value)

    def test_infinite_time_buffer_is_invalid_node(self):
        node = {
            "id": "st",
            "op": "spacetime.time_space_join",
            "inputs": {"traffic": "$inputs.x", "weather": "$inputs.x"},
            "params": {"time_buffer_s": float("inf")},
        }
        with pytest.raises(InvalidNode) as err:
            parse_workflow(wf([node]))
        assert "node 'st'" in str(err.value)

    def test_wrong_ports_rejected(self):
        node = {"id": "a", "op": "relops.union", "inputs": {"in": "$inputs.x"}}
        with pytest.raises(InvalidNode):
            parse_workflow(wf([node]))

    def test_port_kind_mismatch(self):
        # weather.flatten wants a weatherdoc, x is a table input
        node = {"id": "a", "op": "weather.flatten", "inputs": {"in": "$inputs.x"}}
        with pytest.raises(InvalidNode):
            parse_workflow(wf([node]))

    def test_duplicate_input_names(self):
        inputs = [
            {"name": "x", "kind": "table-csv"},
            {"name": "x", "kind": "table-csv"},
        ]
        with pytest.raises(MalformedJson):
            parse_workflow(wf([], inputs=inputs))

    def test_output_reference_checked(self):
        with pytest.raises(DanglingReference):
            parse_workflow(wf([], outputs=[{"name": "y", "from": "nope.out"}]))


class TestToposchedule:
    def test_diamond(self):
        nodes = [
            filter_node("a", "$inputs.x"),
            filter_node("b", "a.out"),
            filter_node("c", "a.out"),
            {
                "id": "d",
                "op": "relops.union",
                "inputs": {"a": "b.out", "b": "c.out"},
            },
        ]
        spec = parse_workflow(wf(nodes))
        assert topo_schedule(spec) == [["a"], ["b", "c"], ["d"]]

    def test_chain_of_four(self):
        nodes = [filter_node("n0", "$inputs.x")] + [
            filter_node(f"n{i}", f"n{i-1}.out") for i in range(1, 4)
        ]
        spec = parse_workflow(wf(nodes))
        assert topo_schedule(spec) == [["n0"], ["n1"], ["n2"], ["n3"]]

    def test_dwr2_traffic_and_weather_branches_share_a_stage(self):
        spec = parse_workflow(bundled("dwr2.json"))
        stages = topo_schedule(spec)
        assert set(stages[0]) == {"keep_columns", "flatten_wx"}

    def test_every_node_exactly_once(self):
        rng = random.Random("topo:once")
        for _ in range(20):
            spec, _ = dagharness.random_workflow(rng)
            stages = topo_schedule(spec)
            flat = [n for stage in stages for n in stage]
            assert sorted(flat) == sorted(n.id for n in spec.nodes)


class TestRegistry:
    def test_put_never_overwrites(self):
        r = Registry()
        r.put("tbl-1", 1)
        with pytest.raises(RegistryError):
            r.put("tbl-1", 2)

    def test_get_unknown_is_an_error(self):
        with pytest.raises(RegistryError):
            Registry().get("tbl-404")

    def test_sequential_keys_format(self):
        issue = sequential_keys()
        assert issue() == "tbl-000000000001"
        assert issue() == "tbl-000000000002"

    def test_random_keys_format_and_uniqueness(self):
        issue = random_keys()
        keys = {issue() for _ in range(100)}
        assert len(keys) == 100
        assert all(k.startswith("tbl-") and len(k) == 16 for k in keys)


class TestExecute:
    def test_identity_workflow_echoes_input(self):
        spec = parse_workflow(
            wf([], outputs=[{"name": "echo", "from": "$inputs.x"}])
        )
        table = dagharness.canonical_table(random.Random("exec:id"))
        outputs, report = execute(spec, {"x": table})
        assert outputs["echo"] is table
        assert report.nodes == ()

    def test_missing_inputs_rejected(self):
        spec = parse_workflow(wf([]))
        with pytest.raises(ValueError):
            execute(spec, {})

    def test_wrong_input_kind_rejected(self):
        spec = parse_workflow(wf([]))
        with pytest.raises(ValueError):
            execute(spec, {"x": b"not a table"})

    def test_unknown_mode_rejected(self):
        spec = parse_workflow(wf([]))
        table = dagharness.canonical_table(random.Random("exec:mode"))
        with pytest.raises(ValueError):
            execute(spec, {"x": table}, mode="threads")

    def test_failure_stops_the_rest_of_its_stage(self, tmp_path):
        nodes = [
            filter_node("a", "$inputs.x"),
            filter_node("boom", "$inputs.x", predicate="missing_col == 1"),
            filter_node("c", "$inputs.x"),
        ]
        spec = parse_workflow(wf(nodes))
        assert topo_schedule(spec) == [["a", "boom", "c"]]
        table = dagharness.canonical_table(random.Random("exec:stage"))
        with pytest.raises(NodeFailed) as err:
            execute(spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=tmp_path)
        assert err.value.node_id == "boom"
        assert [p.name for p in tmp_path.iterdir()] == ["tbl-000000000001.csv"]

    def test_node_failure_names_node_and_skips_downstream(self):
        nodes = [
            filter_node("boom", "$inputs.x", predicate="missing_col == 1"),
            filter_node("after", "boom.out"),
        ]
        spec = parse_workflow(wf(nodes))
        table = dagharness.canonical_table(random.Random("exec:fail"))
        with pytest.raises(NodeFailed) as err:
            execute(spec, {"x": table}, mode="sequential")
        assert err.value.node_id == "boom"

    def test_deterministic_mode_reproduces_keys_and_bytes(self):
        rng = random.Random("exec:repro")
        spec, tables = dagharness.random_workflow(rng)

        def run():
            return execute(spec, tables, mode="parallel", key_issuer=sequential_keys())

        out1, rep1 = run()
        out2, rep2 = run()
        assert [n.key for n in rep1.nodes] == [n.key for n in rep2.nodes]
        for name in out1:
            assert write_csv(out1[name]) == write_csv(out2[name])

    def test_one_key_per_node_all_unique(self):
        rng = random.Random("exec:keys")
        spec, tables = dagharness.random_workflow(rng)
        _, report = execute(spec, tables)
        keys = [n.key for n in report.nodes]
        assert len(keys) == len(spec.nodes)
        assert len(set(keys)) == len(keys)

    def test_parallel_equals_sequential_random_dags(self):
        # Nodes always run one at a time; this pins that mode changes nothing.
        rng = random.Random("exec:equiv")
        for _ in range(8):
            spec, tables = dagharness.random_workflow(rng)
            par, _ = execute(spec, tables, "parallel", sequential_keys())
            seq, _ = execute(spec, tables, "sequential", sequential_keys())
            assert par.keys() == seq.keys()
            for name in par:
                assert write_csv(par[name]) == write_csv(seq[name])

    def test_sequential_order_linearizes_stages(self):
        nodes = [
            filter_node("a", "$inputs.x"),
            filter_node("b", "a.out"),
            filter_node("c", "$inputs.x"),
        ]
        spec = parse_workflow(wf(nodes))
        stages = topo_schedule(spec)
        order = {node_id: i for i, stage in enumerate(stages) for node_id in stage}
        assert order["a"] < order["b"]
        assert order["c"] == order["a"]

    def test_spill_writes_one_file_per_key(self, tmp_path):
        rng = random.Random("exec:spill")
        spec, tables = dagharness.random_workflow(rng)
        _, report = execute(
            spec, tables, key_issuer=sequential_keys(), spill_dir=tmp_path
        )
        for node in report.nodes:
            assert (tmp_path / f"{node.key}.csv").is_file()
