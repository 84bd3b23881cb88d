"""Workflow parsing, static validation, staging, and execution."""

from __future__ import annotations

import json
import os
import random
import re
import signal
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import dagharness
import slowpaths
from wrangle import workflow
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
from wrangle.ops import get_op
from wrangle.table import write_csv
from wrangle.workflow import (
    NodeSpec,
    Reference,
    WorkflowInput,
    WorkflowSpec,
    execute,
    parse_workflow,
    random_keys,
    read_columns,
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
    def test_bundled_dwr1_validates_with_fourteen_nodes(self):
        spec = parse_workflow(bundled("dwr1.json"))
        assert len(spec.nodes) == 14
        assert spec.outputs[0].name == "journey_time_s"

    def test_bom_prefixed_workflow_parses_as_without(self):
        data = bundled("dwr1.json")
        assert parse_workflow(b"\xef\xbb\xbf" + data) == parse_workflow(data)

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
        with pytest.raises(CycleDetected, match="^cycle through nodes 'a' -> 'b' -> 'a'$"):
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
        with pytest.raises(InvalidNode) as err:
            parse_workflow(wf([node]))
        assert str(err.value) == "node 'a': op relops.union needs ports ['a', 'b'], got ['in']"

    def test_port_kind_mismatch(self):
        # weather.flatten wants a weatherdoc, x is a table input
        node = {"id": "a", "op": "weather.flatten", "inputs": {"in": "$inputs.x"}}
        with pytest.raises(InvalidNode) as err:
            parse_workflow(wf([node]))
        assert str(err.value) == "node 'a' port 'in': wants weatherdoc, reference carries table"

    @pytest.mark.parametrize(
        "part, entry",
        [
            ("inputs", {"name": "x", "kind": "table-csv", "columns": ["Site ID"]}),
            ("nodes", {**filter_node("a", "$inputs.x"), "columns": ["Site ID"]}),
            ("outputs", {"name": "y", "from": "$inputs.x", "columns": ["Site ID"]}),
        ],
    )
    def test_entry_with_an_unknown_key_is_refused(self, part, entry):
        doc = json.loads(wf([]))
        doc[part] = [entry]
        with pytest.raises(MalformedJson) as err:
            parse_workflow(json.dumps(doc).encode())
        assert str(err.value) == f"{part}[0]: unknown keys: ['columns']"

    @pytest.mark.parametrize("part", ["inputs", "nodes", "outputs"])
    def test_entry_that_is_no_object_is_refused(self, part):
        doc = json.loads(wf([]))
        doc[part] = [["name", "x"]]
        with pytest.raises(MalformedJson) as err:
            parse_workflow(json.dumps(doc).encode())
        assert str(err.value) == f"{part}[0]: must be an object"

    @pytest.mark.parametrize("part", ["inputs", "nodes", "outputs"])
    def test_entry_may_carry_a_comment(self, part):
        doc = json.loads(bundled("dwr1.json"))
        for entry in doc[part]:
            entry["comment"] = "noted"
        assert parse_workflow(json.dumps(doc).encode()) == parse_workflow(bundled("dwr1.json"))

    def test_duplicate_input_names(self):
        inputs = [
            {"name": "x", "kind": "table-csv"},
            {"name": "x", "kind": "table-csv"},
        ]
        with pytest.raises(MalformedJson):
            parse_workflow(wf([], inputs=inputs))

    def test_duplicate_output_names(self):
        outputs = [{"name": "y", "from": "$inputs.x"}, {"name": "y", "from": "$inputs.x"}]
        with pytest.raises(MalformedJson, match=r"outputs\[1\]: duplicate output name 'y'"):
            parse_workflow(wf([], outputs=outputs))

    @pytest.mark.parametrize(
        "name", ["", ".", "..", "../escaped", "a/b", "/abs", *sorted({os.sep, os.altsep} - {None}),
                 "x\u0000y", "x\ud800"]
    )
    def test_output_name_must_be_a_file_name(self, name):
        outputs = [{"name": "y", "from": "$inputs.x"}, {"name": name, "from": "$inputs.x"}]
        with pytest.raises(MalformedJson, match=r"outputs\[1\]: output name .* is not a file name"):
            parse_workflow(wf([], outputs=outputs))

    @pytest.mark.parametrize("name", ["..y", "y.", "y..z", " ", "-"])
    def test_output_name_with_dots_but_no_separator_is_a_file_name(self, name):
        outputs = [{"name": name, "from": "$inputs.x"}]
        assert parse_workflow(wf([], outputs=outputs)).outputs[0].name == name

    def test_output_reference_checked(self):
        with pytest.raises(DanglingReference):
            parse_workflow(wf([], outputs=[{"name": "y", "from": "nope.out"}]))


def select_node(node_id, source, names, mode="keep"):
    return {
        "id": node_id,
        "op": "relops.select_columns",
        "inputs": {"in": source},
        "params": {"names": names, "mode": mode},
    }


class TestReadColumns:
    """The plan narrows a CSV input only when every reader keeps named columns."""

    def test_one_keep_select_gives_its_names(self):
        spec = parse_workflow(wf([select_node("k", "$inputs.x", ["a", "b"])]))
        assert read_columns(spec) == {"x": frozenset({"a", "b"})}

    def test_two_keep_selects_give_the_union_of_their_names(self):
        nodes = [
            select_node("k1", "$inputs.x", ["a", "b"]),
            select_node("k2", "$inputs.x", ["b", "c"]),
        ]
        assert read_columns(parse_workflow(wf(nodes))) == {"x": frozenset({"a", "b", "c"})}

    def test_a_drop_select_reads_all_columns(self):
        spec = parse_workflow(wf([select_node("d", "$inputs.x", ["a"], mode="drop")]))
        assert read_columns(spec) == {"x": None}

    def test_a_keep_select_beside_another_reader_reads_all_columns(self):
        nodes = [select_node("k", "$inputs.x", ["a"]), filter_node("f", "$inputs.x")]
        assert read_columns(parse_workflow(wf(nodes))) == {"x": None}

    def test_an_output_naming_the_input_reads_all_columns(self):
        spec = parse_workflow(
            wf(
                [select_node("k", "$inputs.x", ["a"])],
                outputs=[{"name": "raw", "from": "$inputs.x"}],
            )
        )
        assert read_columns(spec) == {"x": None}

    def test_a_weather_input_is_never_narrowed(self):
        inputs = [{"name": "x", "kind": "table-csv"}, {"name": "w", "kind": "weather-json"}]
        node = {"id": "f", "op": "weather.flatten", "inputs": {"in": "$inputs.w"}}
        spec = parse_workflow(wf([node], inputs=inputs))
        assert read_columns(spec) == {"x": frozenset(), "w": None}


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


_UNION = get_op("relops.union")


def _graph(reads: list[list[int]], order: list[int]) -> WorkflowSpec:
    """A workflow whose node ``n<i>`` reads an input and the nodes ``n<j>`` for each
    ``j`` in ``reads[i]``, repeats and cycles allowed, declared in ``order``."""
    nodes = []
    for i in order:
        refs = [Reference(input_name="x")] + [Reference(node_id=f"n{j}") for j in reads[i]]
        ports = {f"p{k}": ref for k, ref in enumerate(refs)}
        nodes.append(NodeSpec(f"n{i}", _UNION.name, ports, _UNION, {}))
    return WorkflowSpec("g", (WorkflowInput("x", "table-csv"),), tuple(nodes), ())


@st.composite
def _dags(draw):
    n = draw(st.integers(1, 8))
    # node i reads only nodes below i, so no cycle; the declaration order is any
    reads = [draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else [] for i in range(n)]
    return _graph(reads, draw(st.permutations(range(n))))


@st.composite
def _cyclic_graphs(draw):
    n = draw(st.integers(1, 8))
    reads = [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]
    cycle = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        reads[b].append(a)  # a self-reference when the cycle has one node
    return _graph(reads, draw(st.permutations(range(n))))


class TestScheduleOracle:
    """``topo_schedule`` against the depth-first search it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_dags())
    def test_stages_equal_the_depth_first_oracle(self, spec):
        assert topo_schedule(spec) == slowpaths.depth_first_topo_schedule(spec)

    @settings(max_examples=300, deadline=None)
    @given(_cyclic_graphs())
    def test_every_cycle_is_refused_and_named_in_data_flow_order(self, spec):
        with pytest.raises(CycleDetected):
            slowpaths.depth_first_topo_schedule(spec)
        with pytest.raises(CycleDetected) as err:
            topo_schedule(spec)
        names = re.findall(r"'(n\d+)'", str(err.value))
        assert len(names) >= 2 and names[0] == names[-1]
        for a, b in zip(names, names[1:]):  # b reads a
            assert a in {ref.node_id for ref in spec.node(b).inputs.values()}


class TestRegistry:
    def test_sequential_keys_format(self):
        issue = sequential_keys()
        assert issue() == "tbl-000000000001"
        assert issue() == "tbl-000000000002"

    def test_random_keys_format_and_uniqueness(self):
        issue = random_keys()
        keys = {issue() for _ in range(100)}
        assert len(keys) == 100
        assert all(k.startswith("tbl-") and len(k) == 16 for k in keys)
        assert all(set(k[4:]) <= set("0123456789abcdef") for k in keys)

    def test_duplicate_issued_key_is_refused_before_any_node_runs(self, tmp_path):
        spec = parse_workflow(wf([filter_node("a", "$inputs.x"), filter_node("b", "a.out")]))
        table = dagharness.canonical_table(random.Random("exec:dupkey"))
        with pytest.raises(RegistryError, match="duplicate key"):
            execute(spec, {"x": table}, key_issuer=lambda: "tbl-1", spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


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


def _cpus(monkeypatch, count: int) -> None:
    """Make ``execute`` see ``count`` usable CPUs."""
    monkeypatch.setattr(workflow, "_usable_cpus", lambda: count)


def _files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# Five nodes whose results differ in size, so that every writer gets a share.
_SPILL_NODES = [
    filter_node(f"n{i}", "$inputs.x", predicate)
    for i, predicate in enumerate(
        ["k >= 0", "k >= 3", "k >= 8", "k between 2 and 7", "v < 10 or s == 'red'"]
    )
]


class TestSpill:
    """Spills written by forked writers are those written one by one."""

    @pytest.mark.parametrize(
        "cpus, sizes, shares",
        [
            (1, {"s": 1, "m": 2, "l": 3}, [["l", "m", "s"]]),
            (2, {"s": 1, "m": 2, "l": 3}, [["l"], ["m", "s"]]),
            (2, {"a": 4, "b": 4, "c": 4, "d": 4}, [["a", "c"], ["b", "d"]]),
            (3, {"a": 4, "b": 4, "c": 4, "d": 4}, [["a", "d"], ["b"], ["c"]]),
            (3, {"a": 9, "b": 5, "c": 4, "d": 3, "e": 1}, [["a"], ["b", "e"], ["c", "d"]]),
            (3, {"a": 1}, [["a"]]),
            (3, {}, [[]]),
            (2, {"a": 0, "b": 0}, [["a", "b"]]),
        ],
    )
    def test_deal_gives_largest_first_to_the_least_loaded_ties_to_the_process(
        self, cpus, sizes, shares, monkeypatch
    ):
        _cpus(monkeypatch, cpus)
        assert workflow._deal(sizes) == shares

    @pytest.mark.parametrize(
        "cpus, held, sizes, shares",
        [
            # What the process holds beside the keys counts against its share.
            (2, 4, {"a": 5, "b": 3, "c": 1}, [["b"], ["a", "c"]]),
            (2, 2, {"a": 5, "b": 3, "c": 1}, [["b", "c"], ["a"]]),
            (3, 9, {"a": 5, "b": 3, "c": 1}, [[], ["a"], ["b", "c"]]),
            (2, 9, {"a": 5}, [["a"]]),
            (1, 9, {"a": 5, "b": 3}, [["a", "b"]]),
        ],
    )
    def test_deal_starts_the_process_share_with_what_it_holds(
        self, cpus, held, sizes, shares, monkeypatch
    ):
        _cpus(monkeypatch, cpus)
        assert workflow._deal(sizes, held) == shares

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_spilled_bytes_equal_those_of_one_writer(self, cpus, tmp_path, monkeypatch):
        rng = random.Random(f"spill:{cpus}")
        for i in range(6):
            spec, tables = dagharness.random_workflow(rng)
            spilled = []
            for count in (1, cpus):
                _cpus(monkeypatch, count)
                out = tmp_path / f"{i}-{count}"
                out.mkdir()
                _, report = execute(spec, tables, key_issuer=sequential_keys(), spill_dir=out)
                assert report.spill_files == len(spec.nodes)
                assert 1 <= report.spill_writers <= min(count, len(spec.nodes))
                spilled.append(_files(out))
            assert sorted(spilled[0]) == sorted(f"{n.key}.csv" for n in report.nodes)
            assert spilled[1] == spilled[0]

    def test_without_spill_dir_nothing_is_forked_or_reported(self, monkeypatch):
        _cpus(monkeypatch, 2)

        def refuse():
            raise AssertionError("no writer without a spill directory")

        monkeypatch.setattr(os, "fork", refuse)
        spec = parse_workflow(wf(_SPILL_NODES))
        table = dagharness.canonical_table(random.Random("spill:none"))
        _, report = execute(spec, {"x": table}, key_issuer=sequential_keys())
        assert (report.spill_files, report.spill_writers) == (0, 0)
        assert not any("spill" in line for line in report.lines())

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_worker_killed_in_mid_spill_leaves_every_file_whole(
        self, cpus, tmp_path, monkeypatch
    ):
        spec = parse_workflow(wf(_SPILL_NODES))
        table = dagharness.canonical_table(random.Random("spill:kill"))
        for name in ("alone", "parallel"):
            (tmp_path / name).mkdir()
        _cpus(monkeypatch, 1)
        execute(spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=tmp_path / "alone")
        _cpus(monkeypatch, cpus)
        process, real_replace, replaced = os.getpid(), os.replace, []

        def replace(src, dst):
            if os.getpid() != process:
                replaced.append(dst)
                if len(replaced) == 2:  # its first spill is in place, its second a temp file
                    os.kill(os.getpid(), signal.SIGKILL)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        _, report = execute(
            spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=tmp_path / "parallel"
        )
        assert report.spill_writers == cpus
        assert _files(tmp_path / "parallel") == _files(tmp_path / "alone")

    def test_a_worker_is_killed_and_reaped_when_the_process_raises(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        process = os.getpid()

        def write_result(out_dir, name, value):
            if os.getpid() == process:
                raise KeyboardInterrupt
            time.sleep(60)  # never finishes its share

        monkeypatch.setattr(workflow, "write_result", write_result)
        spec = parse_workflow(wf(_SPILL_NODES))
        table = dagharness.canonical_table(random.Random("spill:interrupt"))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            execute(spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=tmp_path)
        assert time.monotonic() - started < 30

    def test_a_writer_killed_when_the_process_raises_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        _cpus(monkeypatch, 2)
        process, real_write, temps = os.getpid(), workflow.write_result, []

        def replace(src, dst):
            time.sleep(60)  # only the writer gets here, its temp file written

        def write_result(out_dir, name, value):
            if os.getpid() != process:
                return real_write(out_dir, name, value)
            deadline = time.monotonic() + 20
            while not temps and time.monotonic() < deadline:
                temps.extend(p.name for p in out_dir.glob(".*.tmp"))
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(workflow, "write_result", write_result)
        spec = parse_workflow(wf(_SPILL_NODES))
        table = dagharness.canonical_table(random.Random("spill:temp"))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            execute(spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=tmp_path)
        assert time.monotonic() - started < 30
        assert temps
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("later_node_fails", [False, True], ids=["nodes ok", "later fails"])
    @pytest.mark.parametrize("bad", [(1,), (2,), (3,), (4,), (5,), (2, 5), (4, 1), (3, 2)],
                             ids=str)
    def test_a_failed_spill_raises_as_with_one_writer(
        self, bad, later_node_fails, cpus, tmp_path, monkeypatch
    ):
        nodes = list(_SPILL_NODES)
        if later_node_fails:
            nodes.append(filter_node("boom", "n4.out", predicate="missing_col == 1"))
        spec = parse_workflow(wf(nodes))
        table = dagharness.canonical_table(random.Random("spill:fail"))
        bad_keys = {f"tbl-{i:012d}" for i in bad}
        real_write = workflow.write_result

        def write_result(out_dir, name, value):
            if name in bad_keys:
                raise OSError(f"disk full writing {name}")
            return real_write(out_dir, name, value)

        monkeypatch.setattr(workflow, "write_result", write_result)
        errors = []
        for count in (1, cpus):
            _cpus(monkeypatch, count)
            out = tmp_path / str(count)
            out.mkdir()
            with pytest.raises(OSError) as err:
                execute(spec, {"x": table}, key_issuer=sequential_keys(), spill_dir=out)
            errors.append((type(err.value), str(err.value)))
            assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert errors[0] == errors[1] == (OSError, f"disk full writing {min(bad_keys)}")




class TestForkMap:
    """``_fork_map`` gives what running its keys one by one gives, whichever
    key fails and wherever, and leaves no process behind."""

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=6),
        data=st.data(),
    )
    def test_equals_a_one_by_one_run(self, keys, data):
        # "bad" fails wherever it runs; "raises" and "killed" only in a worker.
        some_keys = st.sampled_from(keys or [""])
        faults = data.draw(st.dictionaries(
            some_keys, st.sampled_from(["bad", "raises", "killed"]), max_size=2
        ), label="faults")
        unsized = data.draw(st.sets(some_keys, max_size=2), label="not dealt")
        sizes = {key: data.draw(st.integers(0, 9)) for key in data.draw(st.permutations(keys))
                 if key not in unsized}
        cpus = data.draw(st.integers(1, 3), label="cpus")
        refused = data.draw(st.sets(st.integers(0, 1)), label="forks refused")
        process, real_fork = os.getpid(), os.fork
        forks, forked, lost, runs, taken = [], [], [], [], []

        def fork():
            forks.append(None)
            if len(forks) - 1 in refused:
                raise OSError("no more processes")
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def run(key):
            assert os.getpid() == process
            runs.append(key)
            if faults.get(key) == "bad":
                raise ValueError(f"bad {key}")
            return key + "!"

        def work(key):
            assert os.getpid() != process
            if faults.get(key) == "bad":
                raise ValueError(f"bad {key}")
            if faults.get(key) == "raises":
                raise RuntimeError("worker failed")
            if faults.get(key) == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return key

        def take(key, sent):
            taken.append(key)
            return sent + "!"

        def one_by_one():
            try:
                return list({key: run(key) for key in keys}.items())
            except ValueError as exc:
                return ValueError, str(exc)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(workflow, "_usable_cpus", lambda: cpus)
            expected = one_by_one()
            runs.clear()
            workers = [key for share in workflow._deal(sizes)[1:] for key in share]
            m.setattr(os, "fork", fork)
            try:
                done, writers = workflow._fork_map(keys, sizes, run, work, take, lost.append)
                got = list(done.items())
            except ValueError as exc:
                got, writers = (ValueError, str(exc)), None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == expected
        # The process runs no key twice, and after a key that fails only keys before it.
        assert len(runs) == len(set(runs))
        for i, key in enumerate(runs):
            if faults.get(key) == "bad":
                assert all(keys.index(later) < keys.index(key) for later in runs[i + 1:])
        assert len(forks) <= 2 and len(forked) <= len(forks)
        if writers is not None:
            assert writers == 1 + len(forked)
        assert set(lost) <= set(forked) if "killed" in faults.values() else lost == []
        assert set(taken) <= set(workers)
