"""Declarative workflows: a JSON DAG of operator invocations.

A workflow names its inputs, wires nodes through references
(``$inputs.<name>`` for a declared input, ``<node_id>.out`` for another
node's single output port), and exposes named outputs. All static checks
happen in :func:`parse_workflow`; a spec that validates cannot fail at run
time with an unknown op, a dangling reference, or a cycle.

Execution materializes every node result in a :class:`Registry` under a
fresh session key. Nodes run one at a time, stage by stage in
:func:`topo_schedule` order: operators are pure Python, so threads would
only take turns on the interpreter lock.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time as _time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import (
    BadVersion,
    CycleDetected,
    DanglingReference,
    DataError,
    DuplicateNodeId,
    InvalidNode,
    MalformedJson,
    NodeFailed,
    RegistryError,
)
from .ops import OpDef, get_op, kind_of_result
from .table import Table, write_csv

INPUT_KINDS = ("table-csv", "weather-json")

_NODE_ID_RE = re.compile(r"[a-z0-9_]+\Z")
_INPUT_REF_RE = re.compile(r"\$inputs\.([A-Za-z_][A-Za-z0-9_]*)\Z")
_NODE_REF_RE = re.compile(r"([a-z0-9_]+)\.out\Z")

_KIND_OF_INPUT = {"table-csv": "table", "weather-json": "weatherdoc"}


# ---------------------------------------------------------------------------
# Session keys and the registry
# ---------------------------------------------------------------------------

def random_keys() -> Callable[[], str]:
    def issue() -> str:
        return "tbl-" + uuid.uuid4().hex[:12]

    return issue


def sequential_keys() -> Callable[[], str]:
    """Deterministic issuer: tbl-000000000001, tbl-000000000002, ..."""
    counter = iter(range(1, 10**12))

    def issue() -> str:
        return f"tbl-{next(counter):012d}"

    return issue


class Registry:
    """Session-key -> materialized value store for one run.

    put never overwrites and get never defaults; both raise
    :class:`RegistryError` on misuse. Safe for concurrent use.
    """

    def __init__(self) -> None:
        self._data: dict[str, object] = {}
        self._lock = threading.Lock()

    def put(self, key: str, value: object) -> None:
        with self._lock:
            if key in self._data:
                raise RegistryError(f"key '{key}' already present")
            self._data[key] = value

    def get(self, key: str) -> object:
        with self._lock:
            if key not in self._data:
                raise RegistryError(f"unknown key '{key}'")
            return self._data[key]

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


# ---------------------------------------------------------------------------
# Spec model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reference:
    """Parsed form of ``$inputs.<name>`` or ``<node_id>.out``."""

    text: str
    input_name: str | None = None
    node_id: str | None = None

    @classmethod
    def parse(cls, text: object, where: str) -> "Reference":
        if not isinstance(text, str):
            raise DanglingReference(f"{where}: reference must be a string")
        m = _INPUT_REF_RE.match(text)
        if m:
            return cls(text, input_name=m.group(1))
        m = _NODE_REF_RE.match(text)
        if m:
            return cls(text, node_id=m.group(1))
        raise DanglingReference(
            f"{where}: bad reference {text!r} (want $inputs.<name> or <node_id>.out)"
        )


@dataclass(frozen=True)
class NodeSpec:
    id: str
    op: str
    params: dict
    inputs: dict[str, Reference]
    op_def: OpDef = field(compare=False, repr=False)
    bound_params: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class WorkflowInput:
    name: str
    kind: str


@dataclass(frozen=True)
class WorkflowOutput:
    name: str
    ref: Reference


@dataclass(frozen=True)
class WorkflowSpec:
    version: int
    name: str
    inputs: tuple[WorkflowInput, ...]
    nodes: tuple[NodeSpec, ...]
    outputs: tuple[WorkflowOutput, ...]

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)


# ---------------------------------------------------------------------------
# Parsing and static validation
# ---------------------------------------------------------------------------

def _want(obj: dict, key: str, typ: type, where: str) -> Any:
    if key not in obj:
        raise MalformedJson(f"{where}: missing '{key}'")
    v = obj[key]
    if not isinstance(v, typ) or (typ is int and isinstance(v, bool)):
        raise MalformedJson(f"{where}: '{key}' must be {typ.__name__}")
    return v


def parse_workflow(data: bytes) -> WorkflowSpec:
    """Parse and fully validate a workflow document."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedJson("workflow root is not an object")
    allowed = {"version", "name", "inputs", "nodes", "outputs", "comment"}
    extra = set(doc) - allowed
    if extra:
        raise MalformedJson(f"unknown workflow keys: {sorted(extra)}")

    version = _want(doc, "version", int, "workflow")
    if version != 1:
        raise BadVersion(f"unsupported workflow version {version}")
    name = _want(doc, "name", str, "workflow")

    inputs: list[WorkflowInput] = []
    for i, entry in enumerate(_want(doc, "inputs", list, "workflow")):
        where = f"inputs[{i}]"
        if not isinstance(entry, dict):
            raise MalformedJson(f"{where}: must be an object")
        in_name = _want(entry, "name", str, where)
        kind = _want(entry, "kind", str, where)
        if kind not in INPUT_KINDS:
            raise MalformedJson(f"{where}: kind must be one of {INPUT_KINDS}")
        if any(x.name == in_name for x in inputs):
            raise MalformedJson(f"{where}: duplicate input name '{in_name}'")
        inputs.append(WorkflowInput(in_name, kind))
    input_kinds = {x.name: _KIND_OF_INPUT[x.kind] for x in inputs}

    nodes: list[NodeSpec] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(_want(doc, "nodes", list, "workflow")):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise MalformedJson(f"{where}: must be an object")
        node_extra = set(entry) - {"id", "op", "params", "inputs", "comment"}
        if node_extra:
            raise MalformedJson(f"{where}: unknown keys: {sorted(node_extra)}")
        node_id = _want(entry, "id", str, where)
        if not _NODE_ID_RE.match(node_id):
            raise InvalidNode(f"{where}: id {node_id!r} must match [a-z0-9_]+")
        if node_id in seen_ids:
            raise DuplicateNodeId(f"duplicate node id '{node_id}'")
        seen_ids.add(node_id)

        op_def = get_op(_want(entry, "op", str, where))
        raw_params = entry.get("params", {})
        if not isinstance(raw_params, dict):
            raise MalformedJson(f"{where}: 'params' must be an object")
        try:
            bound = op_def.bind(raw_params)
        except InvalidNode as exc:
            raise InvalidNode(f"node '{node_id}': {exc}") from None

        raw_inputs = entry.get("inputs", {})
        if not isinstance(raw_inputs, dict):
            raise MalformedJson(f"{where}: 'inputs' must be an object")
        refs: dict[str, Reference] = {}
        for port, ref_text in raw_inputs.items():
            refs[port] = Reference.parse(ref_text, f"node '{node_id}' port '{port}'")
        wanted = set(op_def.port_names)
        if set(refs) != wanted:
            raise InvalidNode(
                f"node '{node_id}': op {op_def.name} needs ports {sorted(wanted)}, "
                f"got {sorted(refs)}"
            )
        if any(r.node_id == node_id for r in refs.values()):
            raise CycleDetected(f"node '{node_id}' references itself")
        nodes.append(NodeSpec(node_id, op_def.name, dict(raw_params), refs, op_def, bound))

    node_by_id = {n.id: n for n in nodes}

    # Reference and port-kind checks.
    def check_ref(ref: Reference, where: str, want_kind: str | None) -> None:
        if ref.input_name is not None:
            if ref.input_name not in input_kinds:
                raise DanglingReference(f"{where}: no input '{ref.input_name}'")
            src = input_kinds[ref.input_name]
        else:
            if ref.node_id not in node_by_id:
                raise DanglingReference(f"{where}: no node '{ref.node_id}'")
            src = node_by_id[ref.node_id].op_def.result
        if want_kind is not None and src != want_kind:
            raise InvalidNode(f"{where}: wants {want_kind}, reference carries {src}")

    for n in nodes:
        for port, ref in n.inputs.items():
            check_ref(ref, f"node '{n.id}' port '{port}'", n.op_def.port_kind(port))

    outputs: list[WorkflowOutput] = []
    for i, entry in enumerate(_want(doc, "outputs", list, "workflow")):
        where = f"outputs[{i}]"
        if not isinstance(entry, dict):
            raise MalformedJson(f"{where}: must be an object")
        out_name = _want(entry, "name", str, where)
        if any(x.name == out_name for x in outputs):
            raise MalformedJson(f"{where}: duplicate output name '{out_name}'")
        ref = Reference.parse(_want(entry, "from", str, where), where)
        check_ref(ref, where, None)
        outputs.append(WorkflowOutput(out_name, ref))

    spec = WorkflowSpec(version, name, tuple(inputs), tuple(nodes), tuple(outputs))
    topo_schedule(spec)  # raises CycleDetected
    return spec


def topo_schedule(w: WorkflowSpec) -> list[list[str]]:
    """Stages of mutually independent node ids, by longest-path depth."""
    depth: dict[str, int] = {}
    visiting: set[str] = set()

    def visit(node_id: str) -> int:
        if node_id in depth:
            return depth[node_id]
        if node_id in visiting:
            raise CycleDetected(f"cycle through node '{node_id}'")
        visiting.add(node_id)
        node = w.node(node_id)
        d = 0
        for ref in node.inputs.values():
            if ref.node_id is not None:
                d = max(d, visit(ref.node_id) + 1)
        visiting.discard(node_id)
        depth[node_id] = d
        return d

    for n in w.nodes:
        visit(n.id)
    stages: list[list[str]] = [[] for _ in range(max(depth.values()) + 1)] if depth else []
    for n in w.nodes:  # declaration order within each stage
        stages[depth[n.id]].append(n.id)
    return stages


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeReport:
    node_id: str
    op: str
    key: str
    rows: int | None
    wall_ms: float


@dataclass(frozen=True)
class RunReport:
    workflow: str
    nodes: tuple[NodeReport, ...]
    total_ms: float

    def lines(self) -> list[str]:
        out = [f"workflow '{self.workflow}' ({self.total_ms:.1f} ms)"]
        for n in self.nodes:
            rows = "-" if n.rows is None else str(n.rows)
            out.append(
                f"  {n.node_id:<24} {n.op:<32} {n.key}  rows={rows:<7} {n.wall_ms:.1f} ms"
            )
        return out


def write_atomic(path: Path, payload: bytes) -> None:
    """Write through a temp file beside ``path`` that replaces it only when
    complete, so a failed write leaves any earlier file at ``path`` whole."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_result(out_dir: Path, name: str, value: object) -> Path:
    """Write a table as ``<name>.csv`` or a chart as ``<name>.svg`` in ``out_dir``."""
    if isinstance(value, Table):
        path, payload = out_dir / f"{name}.csv", write_csv(value)
    elif isinstance(value, bytes):
        path, payload = out_dir / f"{name}.svg", value
    else:
        raise DataError(f"output '{name}' has kind {kind_of_result(value)}; "
                        "only tables and charts can be written")
    write_atomic(path, payload)
    return path


def execute(
    w: WorkflowSpec,
    inputs: Mapping[str, object],
    mode: str = "parallel",
    key_issuer: Callable[[], str] | None = None,
    spill_dir: Path | None = None,
) -> tuple[dict[str, object], RunReport]:
    """Run a validated workflow; returns (outputs, report).

    Nodes run one at a time in :func:`topo_schedule` order; ``mode``
    (``"parallel"``/``"sequential"``) is checked and ignored, kept only for
    ``perfbench/traced_run.py``. A node failure aborts the run with
    :class:`NodeFailed` naming the node; later nodes are not executed. With
    ``spill_dir`` set, every node result is also written there under its
    session key.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"mode must be 'parallel' or 'sequential', got {mode!r}")
    declared = {x.name for x in w.inputs}
    supplied = set(inputs)
    if declared != supplied:
        missing, extra = declared - supplied, supplied - declared
        parts = []
        if missing:
            parts.append(f"missing inputs: {sorted(missing)}")
        if extra:
            parts.append(f"unexpected inputs: {sorted(extra)}")
        raise ValueError("; ".join(parts))
    for x in w.inputs:
        got = kind_of_result(inputs[x.name])
        want = _KIND_OF_INPUT[x.kind]
        if got != want:
            raise ValueError(f"input '{x.name}' must be {want}, got {got}")

    issue = key_issuer or random_keys()
    registry = Registry()
    keys = {n.id: issue() for n in w.nodes}  # assigned in declaration order
    if len(set(keys.values())) != len(keys):
        raise RegistryError("key issuer produced a duplicate key")
    timings: dict[str, float] = {}

    def resolve(ref: Reference) -> object:
        if ref.input_name is not None:
            return inputs[ref.input_name]
        return registry.get(keys[ref.node_id])  # type: ignore[index]

    def run_node(node_id: str) -> None:
        node = w.node(node_id)
        port_values = {port: resolve(ref) for port, ref in node.inputs.items()}
        started = _time.perf_counter()
        try:
            result = node.op_def.run(port_values, node.bound_params)
        except Exception as exc:
            raise NodeFailed(node_id, exc) from exc
        timings[node_id] = (_time.perf_counter() - started) * 1000.0
        registry.put(keys[node_id], result)
        if spill_dir is not None:
            write_result(spill_dir, keys[node_id], result)

    run_started = _time.perf_counter()
    for stage in topo_schedule(w):
        for node_id in stage:
            run_node(node_id)

    reports = []
    for n in w.nodes:
        result = registry.get(keys[n.id])
        rows = result.row_count if hasattr(result, "row_count") else None
        reports.append(NodeReport(n.id, n.op, keys[n.id], rows, timings[n.id]))
    total_ms = (_time.perf_counter() - run_started) * 1000.0

    outputs = {o.name: resolve(o.ref) for o in w.outputs}
    return outputs, RunReport(w.name, tuple(reports), total_ms)
