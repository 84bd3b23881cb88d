"""Static guards on the import graph.

The package has no runtime dependencies: every absolute import in
``src/wrangle`` names a standard-library module. The independent oracles in
``tests/oracles.py`` import nothing from the package they check. The
package works on whole columns: no module in it iterates a table by rows.
Every slow path kept in ``tests/slowpaths.py`` is used by some test. Each
registered operator's function lives in the module its name's prefix
names. The bundled workflows read only the traffic columns they keep, and
their predicate and mutate texts survive a format/parse round trip.
Every module reads each name it imports. Importing the package loads none
of its modules, and importing the CLI loads no generator, no process-pool
machinery, no ``uuid`` and neither ``dataclasses`` nor ``inspect``. No
module generates code with ``exec``, ``eval`` or ``compile``, and only
``gen`` imports ``dataclasses``. Only ``workflow._fork_map`` forks, opens
pipes or leaves by ``os._exit``. Every field a package record (or
dataclass) declares is read as an attribute somewhere in the package or the
benchmark.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wrangle.expr import format_expr, parse_mutate, parse_predicate
from wrangle.ops import REGISTRY
from wrangle.workflow import parse_workflow, read_columns

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wrangle"
PERFBENCH = ROOT / "perfbench"
ORACLES = ROOT / "tests" / "oracles.py"
SLOWPATHS = ROOT / "tests" / "slowpaths.py"


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(level, module) of every import in ``path``; level 0 is absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.extend((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    absolute = [m for level, m in imported_modules(path) if level == 0]
    outside = [m for m in absolute if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_modules_are_found():
    assert len(list(PACKAGE.glob("*.py"))) > 10


def test_oracles_import_nothing_from_the_package():
    imports = imported_modules(ORACLES)
    assert imports, "oracles.py should import something from the standard library"
    assert [m for level, m in imports if level > 0] == []
    assert [m for _, m in imports if m.split(".")[0] == "wrangle"] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_reads_every_name_it_imports(path):
    # No linter runs here; an import that nothing reads costs every process
    # its load and hides what a module really depends on.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(bound - read) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_iterate_rows(path):
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("row", "rows")
    ]
    assert calls == []


def test_every_public_slow_path_is_named_in_a_test():
    tree = ast.parse(SLOWPATHS.read_text(encoding="utf-8"), str(SLOWPATHS))
    public = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(public) > 10
    tests = " ".join(
        path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("tests/test_*.py"))
    )
    assert [name for name in public if not re.search(rf"\b{name}\b", tests)] == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_op_function_lives_in_the_module_its_name_prefixes(name):
    # A registry that imports an op's module on first use needs only the name.
    assert REGISTRY[name].fn.__module__ == "wrangle." + name.partition(".")[0]


def test_bundled_workflows_read_only_the_traffic_columns_they_keep():
    # An edit that puts another reader on a traffic input turns the narrowing
    # off without changing any answer; this pin makes that visible.
    def plan(name: str) -> dict:
        return read_columns(parse_workflow((PACKAGE / "workflows" / name).read_bytes()))

    dwr1 = frozenset({"Site ID", "Date", "Direction Name", "Speed"})
    assert plan("dwr1.json") == {"ds1_1": dwr1, "ds1_2": dwr1, "ds1_3": None}
    dwr2 = frozenset({"Site ID", "Date", "Speed"})
    assert plan("dwr2.json") == {"ds2_1": dwr2, "ds2_2": None, "ds2_3": None}


@pytest.mark.parametrize("name", ["dwr1.json", "dwr2.json"])
def test_bundled_expressions_survive_a_round_trip(name):
    nodes = json.loads((PACKAGE / "workflows" / name).read_bytes())["nodes"]
    texts = [
        (parse, node["params"][key])
        for node in nodes
        for key, parse in (("predicate", parse_predicate), ("expr", parse_mutate))
        if key in node.get("params", {})
    ]
    assert texts
    for parse, text in texts:
        assert parse(format_expr(parse(text))) == parse(text), text


def modules_after_import(module: str) -> list[str]:
    """The modules a fresh interpreter holds after ``import <module>``."""
    code = f"import sys, {module}\nprint(*sorted(sys.modules))\n"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def modules_after_cli_import() -> list[str]:
    """The modules a fresh interpreter holds after ``import wrangle.cli``."""
    return modules_after_import("wrangle.cli")


def test_package_import_loads_no_module_of_it():
    # The package root exports nothing, so it imports nothing of its own.
    modules = modules_after_import("wrangle")
    assert "wrangle" in modules
    assert [m for m in modules if m.startswith("wrangle.")] == []


def test_cli_import_loads_no_generator():
    # Only ``wrangle gen`` uses the generator; it imports it when it runs.
    modules = modules_after_cli_import()
    assert "wrangle.cli" in modules
    assert "wrangle.gen" not in modules


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Records build their methods from closures (``wrangle.record``);
    # ``dataclasses`` would exec generated source per class and import
    # ``inspect``, ``ast``, ``dis`` and ``tokenize`` in every process.
    modules = modules_after_cli_import()
    assert "wrangle.table" in modules
    assert [m for m in modules if m in ("dataclasses", "inspect")] == []


def test_cli_import_loads_no_process_pool_machinery():
    # ``run`` forks its load and spill workers itself; these packages would
    # add their import time to every process.
    modules = modules_after_cli_import()
    assert "wrangle.cli" in modules
    assert [m for m in modules
            if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures"] == []


def test_cli_import_loads_no_uuid():
    # Session keys come from os.urandom; uuid would import platform as well.
    modules = modules_after_cli_import()
    assert "wrangle.workflow" in modules
    assert "uuid" not in modules


def test_only_the_fork_helper_forks_pipes_or_exits():
    # One protocol forks, feeds and reaps every worker; a hand-rolled copy
    # of it elsewhere would show here.
    calls = {"fork", "pipe", "_exit"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not calls & {alias.name for alias in node.names}, path.name
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((path.name, node.lineno, node.attr))
        if path.name == "workflow.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_fork_map")
    assert {attr for _, _, attr in found} == calls
    assert [(name, line) for name, line, _ in found
            if name != "workflow.py" or not helper.lineno <= line <= helper.end_lineno] == []


def test_no_module_generates_code_and_only_gen_imports_dataclasses():
    # ``gen.GenConfig`` stays a dataclass because the benchmark reads it with
    # ``dataclasses.asdict``; the CLI imports ``gen`` only for ``wrangle gen``.
    importers, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for level, module in imported_modules(path):
            if level == 0 and module.split(".")[0] == "dataclasses":
                importers.append(path.name)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls.extend(
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")
        )
    assert importers == ["gen.py"]
    assert calls == []


def _is_dataclass(decorator: ast.expr) -> bool:
    """Whether ``decorator`` makes a record: ``@record`` or ``@dataclass(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id in ("record", "dataclass")


def test_every_dataclass_field_is_read():
    # A parsed field that nothing reads is built, carried and compared for
    # nothing. The benchmark counts as a reader: it alone reads
    # WeatherDoc.unknown_rep_fields. Fields are matched by name, so a field
    # that shares its name with one that is read passes unseen.
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    classes = [
        (path, cls)
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
    ]
    # 25 records and GenConfig: a renamed decorator would scan none and pass.
    assert len(classes) >= 26
    unread = [
        f"{path.name}: {cls.name}.{item.target.id}"
        for path, cls in classes
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert unread == []
