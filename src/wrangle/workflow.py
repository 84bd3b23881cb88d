"""Declarative workflows: a JSON DAG of operator invocations.

A workflow names its inputs, wires nodes through references
(``$inputs.<name>`` for a declared input, ``<node_id>.out`` for another
node's single output port), and exposes named outputs. All static checks
happen in :func:`parse_workflow`; a spec that validates cannot fail at run
time with an unknown op, a dangling reference, a cycle, or an output it
cannot write.

A plan step, :func:`read_columns`, gives each ``table-csv`` input the
columns it can be read as. Only the provable case is narrowed: every reader
of the input is a ``relops.select_columns`` node with mode ``keep``, and the
input is read as the union of their names. Any other reader, a workflow
output that names the input included, reads all columns.

Execution materializes every node result in a dict under a fresh session
key. Nodes run one at a time, stage by stage in
:func:`topo_schedule` order: operators are pure Python, so threads would
only take turns on the interpreter lock. Kept results are spilled after the
last node (:func:`_spill`). Both the spill and ``wrangle run``'s input load
share their work with forked workers through :func:`_fork_map`.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import re
import signal
import threading
import time as _time
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import IO, Any, Callable, Hashable, Iterable, Mapping

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
from .ops import SVG, TABLE, OpDef, get_op, kind_of_result
from .record import field, record
from .table import Table, write_csv

_NODE_ID_RE = re.compile(r"[a-z0-9_]+\Z")
_INPUT_REF_RE = re.compile(r"\$inputs\.([A-Za-z_][A-Za-z0-9_]*)\Z")
_NODE_REF_RE = re.compile(r"([a-z0-9_]+)\.out\Z")

_KIND_OF_INPUT = {"table-csv": "table", "weather-json": "weatherdoc"}


def _is_file_name(name: str) -> bool:
    """Whether an output ``name`` can be written as ``<name>.csv`` or ``<name>.svg`` in
    the output directory: no path part, no NUL, and encodable by the file system."""
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        return False
    return name not in ("", ".", "..") and {"\0", "/", os.sep, os.altsep}.isdisjoint(name)


# ---------------------------------------------------------------------------
# Session keys
# ---------------------------------------------------------------------------

def random_keys() -> Callable[[], str]:
    def issue() -> str:
        return "tbl-" + os.urandom(6).hex()

    return issue


def sequential_keys() -> Callable[[], str]:
    """Deterministic issuer: tbl-000000000001, tbl-000000000002, ..."""
    counter = iter(range(1, 10**12))

    def issue() -> str:
        return f"tbl-{next(counter):012d}"

    return issue


# ---------------------------------------------------------------------------
# Spec model
# ---------------------------------------------------------------------------

@record
class Reference:
    """Parsed form of ``$inputs.<name>`` or ``<node_id>.out``."""

    input_name: str | None = None
    node_id: str | None = None

    @classmethod
    def parse(cls, text: object, where: str) -> "Reference":
        if not isinstance(text, str):
            raise DanglingReference(f"{where}: reference must be a string")
        m = _INPUT_REF_RE.match(text)
        if m:
            return cls(input_name=m.group(1))
        m = _NODE_REF_RE.match(text)
        if m:
            return cls(node_id=m.group(1))
        raise DanglingReference(
            f"{where}: bad reference {text!r} (want $inputs.<name> or <node_id>.out)"
        )


@record
class NodeSpec:
    id: str
    op: str
    inputs: dict[str, Reference]
    op_def: OpDef = field(compare=False, repr=False)
    bound_params: dict = field(repr=False)


@record
class WorkflowInput:
    name: str
    kind: str


@record
class WorkflowOutput:
    name: str
    ref: Reference


@record
class WorkflowSpec:
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


def _check_entry(entry: object, where: str, allowed: set[str]) -> None:
    """Refuse an entry of a workflow list that is no object or has keys outside ``allowed``."""
    if not isinstance(entry, dict):
        raise MalformedJson(f"{where}: must be an object")
    extra = set(entry) - allowed
    if extra:
        raise MalformedJson(f"{where}: unknown keys: {sorted(extra)}")


def parse_workflow(data: bytes) -> WorkflowSpec:
    """Parse and fully validate a workflow document."""
    try:
        doc = json.loads(data.decode("utf-8-sig"))
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
        _check_entry(entry, where, {"name", "kind", "comment"})
        in_name = _want(entry, "name", str, where)
        kind = _want(entry, "kind", str, where)
        if kind not in _KIND_OF_INPUT:
            raise MalformedJson(f"{where}: kind must be one of {tuple(_KIND_OF_INPUT)}")
        if any(x.name == in_name for x in inputs):
            raise MalformedJson(f"{where}: duplicate input name '{in_name}'")
        inputs.append(WorkflowInput(in_name, kind))
    input_kinds = {x.name: _KIND_OF_INPUT[x.kind] for x in inputs}

    nodes: list[NodeSpec] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(_want(doc, "nodes", list, "workflow")):
        where = f"nodes[{i}]"
        _check_entry(entry, where, {"id", "op", "params", "inputs", "comment"})
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
        ports = dict(op_def.ports)
        if refs.keys() != ports.keys():
            raise InvalidNode(
                f"node '{node_id}': op {op_def.name} needs ports {sorted(ports)}, "
                f"got {sorted(refs)}"
            )
        if any(r.node_id == node_id for r in refs.values()):
            raise CycleDetected(f"node '{node_id}' references itself")
        nodes.append(NodeSpec(node_id, op_def.name, refs, op_def, bound))

    node_by_id = {n.id: n for n in nodes}

    # Reference and port-kind checks.
    def check_ref(ref: Reference, where: str, kinds: tuple[str, ...]) -> None:
        if ref.input_name is not None:
            if ref.input_name not in input_kinds:
                raise DanglingReference(f"{where}: no input '{ref.input_name}'")
            src = input_kinds[ref.input_name]
        else:
            if ref.node_id not in node_by_id:
                raise DanglingReference(f"{where}: no node '{ref.node_id}'")
            src = node_by_id[ref.node_id].op_def.result
        if src not in kinds:
            raise InvalidNode(f"{where}: wants {' or '.join(kinds)}, reference carries {src}")

    for n in nodes:
        for port, ref in n.inputs.items():
            check_ref(ref, f"node '{n.id}' port '{port}'", (dict(n.op_def.ports)[port],))

    outputs: list[WorkflowOutput] = []
    for i, entry in enumerate(_want(doc, "outputs", list, "workflow")):
        where = f"outputs[{i}]"
        _check_entry(entry, where, {"name", "from", "comment"})
        out_name = _want(entry, "name", str, where)
        if not _is_file_name(out_name):
            raise MalformedJson(f"{where}: output name {out_name!r} is not a file name")
        if any(x.name == out_name for x in outputs):
            raise MalformedJson(f"{where}: duplicate output name '{out_name}'")
        ref = Reference.parse(_want(entry, "from", str, where), where)
        check_ref(ref, where, (TABLE, SVG))  # the kinds a file can hold
        outputs.append(WorkflowOutput(out_name, ref))

    spec = WorkflowSpec(name, tuple(inputs), tuple(nodes), tuple(outputs))
    topo_schedule(spec)  # raises CycleDetected
    return spec


def read_columns(w: WorkflowSpec) -> dict[str, frozenset[str] | None]:
    """Per input, the names of the columns it can be read as; None for all.

    A ``table-csv`` input whose readers are all ``relops.select_columns``
    nodes with mode ``keep`` is read as the union of their names (an input
    nothing reads, as none). Any other reader, a workflow output naming
    the input, or the input being a weather document gives None.
    """
    kept: dict[str, set[str]] = {x.name: set() for x in w.inputs}
    whole = {x.name for x in w.inputs if x.kind != "table-csv"}
    whole.update(o.ref.input_name for o in w.outputs if o.ref.input_name is not None)
    for n in w.nodes:
        keeps = n.op == "relops.select_columns" and n.bound_params["mode"] == "keep"
        for ref in n.inputs.values():
            if ref.input_name is None:
                continue
            if keeps:
                kept[ref.input_name].update(n.bound_params["names"])
            else:
                whole.add(ref.input_name)
    return {name: None if name in whole else frozenset(names) for name, names in kept.items()}


def topo_schedule(w: WorkflowSpec) -> list[list[str]]:
    """Stages of mutually independent node ids, by longest-path depth; each
    stage in declaration order."""
    order = {n.id: i for i, n in enumerate(w.nodes)}
    reads = {n.id: {ref.node_id for ref in n.inputs.values()} - {None} for n in w.nodes}
    sorter = TopologicalSorter(reads)
    try:
        sorter.prepare()
    except CycleError as exc:
        raise CycleDetected(
            "cycle through nodes " + " -> ".join(f"'{node_id}'" for node_id in exc.args[1])
        ) from None
    stages = []
    while sorter.is_active():
        stage = sorted(sorter.get_ready(), key=order.__getitem__)
        sorter.done(*stage)
        stages.append(stage)
    return stages


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@record
class NodeReport:
    node_id: str
    op: str
    key: str
    rows: int | None
    wall_ms: float


@record
class RunReport:
    workflow: str
    nodes: tuple[NodeReport, ...]
    total_ms: float
    spill_files: int = 0
    spill_writers: int = 0  # 0: the run spilled nothing
    spill_ms: float = 0.0

    def lines(self) -> list[str]:
        out = [f"workflow '{self.workflow}' ({self.total_ms:.1f} ms)"]
        for n in self.nodes:
            rows = "-" if n.rows is None else str(n.rows)
            out.append(
                f"  {n.node_id:<24} {n.op:<32} {n.key}  rows={rows:<7} {n.wall_ms:.1f} ms"
            )
        if self.spill_writers:
            out.append(
                f"  spill: {_count(self.spill_files, 'file')}, "
                f"{_count(self.spill_writers, 'writer')}, {self.spill_ms:.1f} ms"
            )
        return out


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


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


def encode_result(name: str, value: object) -> tuple[str, bytes]:
    """File name and bytes of a result: a table as ``<name>.csv``, a chart as ``<name>.svg``."""
    if isinstance(value, Table):
        return f"{name}.csv", write_csv(value)
    if isinstance(value, bytes):
        return f"{name}.svg", value
    raise DataError(f"output '{name}' has kind {kind_of_result(value)}; "
                    "only tables and charts can be written")


def write_result(out_dir: Path, name: str, value: object) -> Path:
    """Write ``value`` into ``out_dir`` under its :func:`encode_result` name."""
    file_name, payload = encode_result(name, value)
    path = out_dir / file_name
    write_atomic(path, payload)
    return path


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork, cannot tell, or runs threads.

    A forked child runs only the thread that forked, so a lock that another
    thread held at the fork stays held in the child for good.
    """
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _deal(sizes: Mapping[Hashable, int], held: int = 0) -> list[list]:
    """The keys of ``sizes`` in one share per writer: the process, then each worker.

    Keys are dealt largest first (ties in ``sizes`` order), each to the
    share with the least size so far (ties to the earliest share, so the
    process wins them), among as many shares as usable CPUs but no more than
    keys. The process's share starts at ``held``, the size of the work it
    does beside the keys (``wrangle run``'s weather inputs). A worker's
    share that gets nothing is dropped; the process's stays.
    """
    count = max(1, min(_usable_cpus(), len(sizes)))
    shares: list[list] = [[] for _ in range(count)]
    loads = [held] + [0] * (count - 1)
    for key in sorted(sizes, key=sizes.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(key)
        loads[k] += sizes[key]
    return [shares[0], *filter(None, shares[1:])]


def _fork_map(
    keys: Iterable[Hashable],
    sizes: Mapping[Hashable, int],
    run: Callable[[Any], object],
    work: Callable[[Any], object],
    take: Callable[[Any, Any], object] = lambda key, sent: sent,
    lost: Callable[[int], None] = lambda pid: None,
    held: int = 0,
) -> tuple[dict[Hashable, object], int]:
    """``{key: run(key)}`` over ``keys`` as running them one by one in order gives it,
    and the writers used: this process and each worker it forked.

    The keys of ``sizes`` are dealt by :func:`_deal`, the process's share
    starting at ``held``: the size of the keys not in ``sizes``, which only
    the process runs. One worker is forked for each share past the first;
    with one share nothing is forked. Keys and what ``work`` returns must
    :mod:`marshal`: ``wrangle run``'s keys are ``(input, piece)`` pairs.
    A worker runs ``work`` on each key of its share in turn, stopping at the
    first that raises. It sends back ``(key, work(key))`` for those done
    before, as one :mod:`marshal` blob through a pipe, and leaves by
    ``os._exit``, never returning into the caller's stack. Its collector is
    off, so that no pass touches, and so copies, every page it shares with
    this process. This process meanwhile runs ``run`` on its share and on the
    keys not in ``sizes``, in ``keys`` order, stopping at the first that
    raises. It then reads each worker's blob and keeps ``take(key, value)``
    for each key the blob brings back; ``lost(pid)`` is called for a worker
    that sent nothing whole. Every worker is reaped before this returns, and
    killed first (then handed to ``lost``) if it raises. Last, each key not
    yet done is run here in ``keys`` order, and a key that raised here raises
    again at its place, so the first key that fails raises what it raises
    when run alone.
    """
    keys = list(keys)
    shares = _deal(sizes, held)
    done: dict[Hashable, object] = {}
    failed: dict[Hashable, Exception] = {}
    pipes: dict[int, IO[bytes]] = {}
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no worker: its share is run below, one by one
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                sent = []
                try:
                    try:
                        gc.disable()
                        for fd in (r, *(pipe.fileno() for pipe in pipes.values())):
                            os.close(fd)  # no write may wait on a reader that is gone
                        for key in share:
                            sent.append((key, work(key)))
                    finally:
                        with open(w, "wb") as out:
                            out.write(marshal.dumps(sent))
                finally:
                    os._exit(0)
            os.close(w)
            pipes[pid] = open(r, "rb")
        writers = 1 + len(pipes)
        own = set(shares[0])
        for key in keys:
            if key in own or key not in sizes:
                try:
                    done[key] = run(key)
                except Exception as exc:  # raised below, if no earlier key fails
                    failed[key] = exc
                    break
        for pid in list(pipes):
            with pipes[pid] as pipe:
                blob = pipe.read()
            os.waitpid(pid, 0)
            del pipes[pid]
            try:
                sent = marshal.loads(blob)
            except (EOFError, ValueError, TypeError):  # no whole blob: the worker sent nothing
                sent = []
                lost(pid)
            for key, value in sent:
                done[key] = take(key, value)
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            lost(pid)
    for key in keys:
        if key in failed:
            raise failed[key]
        if key not in done:
            done[key] = run(key)
    return {key: done[key] for key in keys}, writers


def _spill_size(value: object) -> int:
    """What writing ``value`` weighs when spills are dealt: cells of a table, bytes of a chart."""
    return value.row_count * len(value.columns) if isinstance(value, Table) else len(value)


def _spill(spill_dir: Path, spills: list[tuple[str, object]]) -> int:
    """Write each ``(key, result)`` of ``spills`` into ``spill_dir``; returns the writers used.

    The spills are written by :func:`_fork_map`, dealt on :func:`_spill_size`.
    A writer sends back the keys it wrote. The :func:`write_atomic` temp
    files of a writer that sent nothing whole are removed.
    """
    values = dict(spills)

    def write(key: str) -> None:
        write_result(spill_dir, key, values[key])

    def remove_temps(pid: int) -> None:
        for tmp in spill_dir.glob(f".*.{pid}.tmp"):
            tmp.unlink(missing_ok=True)

    sizes = {key: _spill_size(value) for key, value in spills}
    return _fork_map(values, sizes, write, write, lost=remove_temps)[1]


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
    session key by :func:`_spill`, once the last node has run or failed. The
    first spill that fails, in node order, raises as it does when the spills
    are written one by one; the nodes after it have run by then, and other
    spills may be on disk.
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
    keys = {n.id: issue() for n in w.nodes}  # assigned in declaration order
    if len(set(keys.values())) != len(keys):
        raise RegistryError("key issuer produced a duplicate key")
    # Each key is stored once, and topo_schedule runs every node after the
    # nodes it reads, so a lookup always finds its result.
    results: dict[str, object] = {}
    timings: dict[str, float] = {}

    def resolve(ref: Reference) -> object:
        if ref.input_name is not None:
            return inputs[ref.input_name]
        return results[keys[ref.node_id]]  # type: ignore[index]

    def run_node(node_id: str) -> None:
        node = w.node(node_id)
        port_values = {port: resolve(ref) for port, ref in node.inputs.items()}
        started = _time.perf_counter()
        try:
            result = node.op_def.run(port_values, node.bound_params)
        except Exception as exc:
            raise NodeFailed(node_id, exc) from exc
        timings[node_id] = (_time.perf_counter() - started) * 1000.0
        results[keys[node_id]] = result
        if spill_dir is not None:
            spills.append((keys[node_id], result))

    spills: list[tuple[str, object]] = []
    writers = 0
    run_started = _time.perf_counter()
    try:
        for stage in topo_schedule(w):
            for node_id in stage:
                run_node(node_id)
    finally:
        spill_started = _time.perf_counter()
        if spill_dir is not None:
            writers = _spill(spill_dir, spills)
        spill_ms = (_time.perf_counter() - spill_started) * 1000.0

    reports = []
    for n in w.nodes:
        result = results[keys[n.id]]
        rows = result.row_count if hasattr(result, "row_count") else None
        reports.append(NodeReport(n.id, n.op, keys[n.id], rows, timings[n.id]))
    total_ms = (_time.perf_counter() - run_started) * 1000.0

    outputs = {o.name: resolve(o.ref) for o in w.outputs}
    report = RunReport(w.name, tuple(reports), total_ms, len(spills), writers, spill_ms)
    return outputs, report
