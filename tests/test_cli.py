"""CLI surface: subcommands, exit codes, file handling."""

from __future__ import annotations

import csv
import gc
import itertools
import json
import marshal
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from datetime import date, datetime
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from wrangle import cli, workflow
from wrangle.chart import render_bar_chart
from wrangle.cli import main
from wrangle.gen import GenConfig, generate
from wrangle.ops import REGISTRY
from wrangle.table import Table, infer_column_types, parse_csv
from wrangle.workflow import parse_workflow, read_columns


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    generate(GenConfig(seed=11, sites=2, rows_per_site=150), out)
    return out


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    """The inputs the benchmark generates for seed 7: two 5 MB exports, 1 MB of weather."""
    out = tmp_path_factory.mktemp("bench_data")
    generate(GenConfig(seed=7, sites=2, rows_per_site=50000, weather_locations=4), out)
    return out


@pytest.fixture(scope="module")
def one_day_weather(tmp_path_factory):
    """A small weather document: one location, one day."""
    out = tmp_path_factory.mktemp("weather")
    day = date(2018, 2, 2)
    generate(GenConfig(rows_per_site=1, date_start=day, date_end=day, weather_locations=1), out)
    return out / "weather.json"


def _refuse_replace(src, dst):
    raise OSError("disk full")


def _edited_copy(dataset, dst, name, edit, only=None):
    """The dataset's dwr1 inputs in ``dst``, with field ``name`` of every data row
    of each file that has it (or of file ``only``) replaced by ``edit(old value, row number)``."""
    dst.mkdir()
    for file in ("site_1.csv", "site_2.csv", "sites.csv"):
        lines = (dataset / file).read_text().split("\n")
        header = [h.strip('"') for h in lines[0].split(",")]
        if name in header and only in (None, file):
            at = header.index(name)
            for r in range(1, len(lines)):
                if lines[r]:
                    fields = lines[r].split(",")
                    fields[at] = edit(fields[at], r)
                    lines[r] = ",".join(fields)
        (dst / file).write_text("\n".join(lines))
    return dst


def run_ok(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured


class TestRun:
    def test_dwr1_end_to_end(self, dataset, tmp_path, capsys):
        out = tmp_path / "o"
        captured = run_ok(
            [
                "run", "dwr1.json",
                "--input", f"ds1_1={dataset}/site_1.csv",
                "--input", f"ds1_2={dataset}/site_2.csv",
                "--input", f"ds1_3={dataset}/sites.csv",
                "--out", str(out),
                "--deterministic-keys",
            ],
            capsys,
        )
        assert (out / "journey_time_s.csv").is_file()
        assert "tbl-000000000001" in captured.out
        assert "spill:" not in captured.out
        t = infer_column_types(parse_csv((out / "journey_time_s.csv").read_bytes()))
        assert t.column("journey_time_s").cells[0] > 0

    def test_bundled_workflows_answer_as_the_oracles_do(self, dataset, tmp_path, capsys):
        d = dataset
        run_ok(["run", "dwr1.json", "--input", f"ds1_1={d}/site_1.csv",
                "--input", f"ds1_2={d}/site_2.csv", "--input", f"ds1_3={d}/sites.csv",
                "--out", str(tmp_path / "o1")], capsys)
        run_ok(["run", "dwr2.json", "--input", f"ds2_1={d}/site_1.csv",
                "--input", f"ds2_2={d}/sites.csv", "--input", f"ds2_3={d}/weather.json",
                "--out", str(tmp_path / "o2")], capsys)
        with open(tmp_path / "o1" / "journey_time_s.csv", newline="") as fh:
            (seconds,) = [float(row["journey_time_s"]) for row in csv.DictReader(fh)]
        with open(tmp_path / "o2" / "avg_speed_by_condition.csv", newline="") as fh:
            means = {row["weatherCond"]: float(row["avg_speed"]) for row in csv.DictReader(fh)}
        want_seconds = oracles.dwr1_journey_time(
            [d / "site_1.csv", d / "site_2.csv"], d / "sites.csv"
        )
        want_means = oracles.dwr2_condition_means(
            d / "site_1.csv", d / "sites.csv", d / "weather.json"
        )
        assert math.isclose(seconds, want_seconds, rel_tol=1e-9)
        assert means.keys() == want_means.keys() == {"wet", "dry"}
        for label, mean in means.items():
            assert math.isclose(mean, want_means[label], rel_tol=1e-9), label

    def test_dwr1_bom_prefixed_inputs_write_same_bytes(self, dataset, tmp_path, capsys):
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            src = tmp_path / f"in{len(bom)}"
            src.mkdir()
            for name in ("site_1.csv", "site_2.csv", "sites.csv"):
                (src / name).write_bytes(bom + (dataset / name).read_bytes())
            out = tmp_path / f"out{len(bom)}"
            run_ok(
                [
                    "run", "dwr1.json",
                    "--input", f"ds1_1={src}/site_1.csv",
                    "--input", f"ds1_2={src}/site_2.csv",
                    "--input", f"ds1_3={src}/sites.csv",
                    "--out", str(out),
                    "--deterministic-keys",
                ],
                capsys,
            )
            outputs.append((out / "journey_time_s.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_dwr1_with_a_column_blank_in_one_export(self, tmp_path, capsys):
        # Headway left empty in every row of one site reads as text, all null.
        # dwr1 keeps no Headway, so its selects drop the column before the
        # union (whose rule for a blank column tests/test_relops.py covers).
        src = tmp_path / "in"
        generate(GenConfig(seed=3, sites=2, rows_per_site=2000), src)
        lines = (src / "site_2.csv").read_text().split("\n")
        at = lines[0].split(",").index('"Headway"')
        for r in range(1, len(lines)):
            if lines[r]:
                fields = lines[r].split(",")
                fields[at] = ""
                lines[r] = ",".join(fields)
        (src / "site_2.csv").write_text("\n".join(lines))
        assert parse_csv((src / "site_2.csv").read_bytes()).column("Headway").cells == (
            (None,) * 2000
        )
        out = tmp_path / "o"
        run_ok(
            [
                "run", "dwr1.json",
                "--input", f"ds1_1={src}/site_1.csv",
                "--input", f"ds1_2={src}/site_2.csv",
                "--input", f"ds1_3={src}/sites.csv",
                "--out", str(out),
                "--deterministic-keys",
            ],
            capsys,
        )
        t = infer_column_types(parse_csv((out / "journey_time_s.csv").read_bytes()))
        assert t.row_count > 0

    def test_dwr1_ignores_an_unused_column_of_another_kind_in_one_export(
        self, dataset, tmp_path, capsys
    ):
        # Each export is narrowed before the union, so Headway, text in one
        # file and real in the other, never meets the union's kind check.
        src = _edited_copy(dataset, tmp_path / "in", "Headway", lambda v, r: "n/a",
                           only="site_2.csv")
        headway = [
            infer_column_types(parse_csv((d / "site_2.csv").read_bytes())).column("Headway")
            for d in (dataset, src)
        ]
        assert [c.ctype.value for c in headway] == ["real", "text"]
        answers = []
        for d in (dataset, src):
            out = tmp_path / f"o_{d.name}"
            run_ok(["run", "dwr1.json", "--input", f"ds1_1={d}/site_1.csv",
                    "--input", f"ds1_2={d}/site_2.csv", "--input", f"ds1_3={d}/sites.csv",
                    "--out", str(out)], capsys)
            answers.append((out / "journey_time_s.csv").read_bytes())
        assert answers[0] == answers[1]

    def test_dwr1_export_without_speed_fails_at_its_select_listing_the_header(
        self, dataset, tmp_path, capsys
    ):
        src = tmp_path / "in"
        src.mkdir()
        for name in ("site_2.csv", "sites.csv"):
            (src / name).write_bytes((dataset / name).read_bytes())
        lines = (dataset / "site_1.csv").read_text().split("\n")
        at = lines[0].split(",").index('"Speed"')
        for r, line in enumerate(lines):
            if line:
                fields = line.split(",")
                del fields[at]
                lines[r] = ",".join(fields)
        (src / "site_1.csv").write_text("\n".join(lines))
        code = main(["run", "dwr1.json", "--input", f"ds1_1={src}/site_1.csv",
                     "--input", f"ds1_2={src}/site_2.csv", "--input", f"ds1_3={src}/sites.csv",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        header = ", ".join(parse_csv((src / "site_1.csv").read_bytes()).column_names)
        assert capsys.readouterr().err == (
            f"workflow error: node 'keep_1' failed: no column 'Speed' (have: {header})\n"
        )

    def test_run_reads_the_planned_columns_and_op_reads_all(self, dataset, tmp_path,
                                                            capsys, monkeypatch):
        # One usable CPU: every read happens in this process, where the spy sees it.
        _cpus(monkeypatch, 1)
        reads = []

        def spy(data, columns=None):
            reads.append(columns)
            return parse_csv(data, columns)

        monkeypatch.setattr(cli, "parse_csv", spy)
        run_ok(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                "--input", f"ds1_2={dataset}/site_2.csv", "--input", f"ds1_3={dataset}/sites.csv",
                "--out", str(tmp_path / "o")], capsys)
        kept = frozenset({"Site ID", "Date", "Direction Name", "Speed"})
        assert reads == [kept, kept, None]
        reads.clear()
        run_ok(["op", "relops.select_columns", "--table", f"{dataset}/site_1.csv",
                "--params", '{"names": ["Speed"]}', "--out", str(tmp_path / "s.csv")], capsys)
        assert reads == [None]

    @pytest.mark.parametrize(
        "cpus, kept_here",
        [
            # The larger export stays here; a worker takes the other and sites.csv,
            # or with three CPUs a worker each.
            (2, [("ds1_2", 0)]),
            (3, [("ds1_2", 0)]),
            # A share is a quarter of the bytes: each export is cut in two.
            (4, [("ds1_1", 0)]),
        ],
        ids=["2", "3", "4"],
    )
    def test_run_workers_send_back_the_planned_columns(
        self, cpus, kept_here, dataset, tmp_path, capsys, monkeypatch
    ):
        _cpus(monkeypatch, cpus)
        process, reads, received = os.getpid(), [], []

        def spy(data, columns=None):
            if os.getpid() == process:
                reads.append(columns)
            return parse_csv(data, columns)

        monkeypatch.setattr(cli, "parse_csv", spy)
        _spy_blobs(monkeypatch, received)
        out = run_ok(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                      "--input", f"ds1_2={dataset}/site_2.csv",
                      "--input", f"ds1_3={dataset}/sites.csv",
                      "--out", str(tmp_path / "o")], capsys).out
        ranges = 2 if cpus == 4 else 1
        keys = [(name, i) for name in ("ds1_1", "ds1_2") for i in range(ranges)]
        # Every piece, a whole file or a range, comes back with the kind proven on each column.
        names = ("Site ID", "Date", "Direction Name", "Speed")
        export = tuple(zip(names, ("text", "timestamp", "text", "real")))
        sent = dict(received)
        assert len(sent) == len(received)
        assert sent.pop(("ds1_3", 0)) == (("Site.ID", "int"), ("SiteName", "text"),
                                          ("Lat", "real"), ("Lon", "real"),
                                          ("LinkLength", "real"))
        assert sorted(sent) == sorted(set(keys) - set(kept_here))
        assert set(sent.values()) == {export}
        # A whole export kept here is read by parse_csv; a range, by the column path.
        kept = frozenset({"Site ID", "Date", "Direction Name", "Speed"})
        assert reads == ([] if cpus == 4 else [kept])
        cut = "2 cut into 4 ranges" if cpus == 4 else "none cut"
        assert re.search(rf"^  load: 3 inputs, {cpus} readers, {cut}, \d+\.\d ms$", out, re.M)

    def test_one_usable_cpu_forks_no_worker(self, dataset, tmp_path, capsys, monkeypatch):
        _cpus(monkeypatch, 1)

        def refuse(*args):
            raise AssertionError("no worker with one usable CPU")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "pipe", refuse)
        run_ok(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                "--input", f"ds1_2={dataset}/site_2.csv", "--input", f"ds1_3={dataset}/sites.csv",
                "--out", str(tmp_path / "o")], capsys)
        assert (tmp_path / "o" / "journey_time_s.csv").is_file()

    def test_repeated_kept_name_is_exit_3_before_any_input_is_read(self, tmp_path, capsys):
        flow = _one_node_flow("relops.select_columns", {"names": ["Speed", "Speed"]})
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(flow))
        code = main(["run", str(path), "--input", f"x={tmp_path}/missing.csv",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "workflow error: node 'n': param 'names' repeats 'Speed'\n"
        )

    def test_repeated_group_summarise_name_is_exit_3_before_any_input_is_read(
        self, tmp_path, capsys
    ):
        flow = _one_node_flow(
            "relops.group_summarise", {"by": ["Speed"], "aggs": ["Speed = count()"]}
        )
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(flow))
        code = main(["run", str(path), "--input", f"x={tmp_path}/missing.csv",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "workflow error: node 'n': param 'aggs' repeats 'Speed'\n"
        )

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_cyclic_collector_as_it_found_it(
        self, enabled, dataset, tmp_path, capsys, monkeypatch
    ):
        during, real_execute = [], cli.execute

        def execute(*args, **kwargs):
            during.append(gc.isenabled())
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(cli, "execute", execute)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            codes = [
                main(
                    [
                        "run", "dwr1.json",
                        "--input", f"ds1_1={dataset}/site_1.csv",
                        "--input", f"ds1_2={dataset}/site_2.csv",
                        "--input", f"ds1_3={dataset}/sites.csv",
                        "--out", str(tmp_path / "o"),
                    ]
                ),
                main(["run", "dwr1.json", "--out", str(tmp_path / "o")]),  # fails
            ]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert codes == [0, 1]
        assert during == [False]  # off while the workflow runs

    @pytest.mark.parametrize("name", ["../escaped", ""], ids=["parent", "empty"])
    def test_an_output_name_that_is_no_file_name_writes_nothing(
        self, name, dataset, tmp_path, capsys
    ):
        flow = _one_node_flow("table.infer_types", {})
        flow["outputs"] = [{"name": name, "from": "n.out"}]
        (tmp_path / "flow.json").write_text(json.dumps(flow))
        code = main(["run", str(tmp_path / "flow.json"), "--input", f"x={dataset}/sites.csv",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: outputs[0]: output name {name!r} is not a file name\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["flow.json"]

    def test_missing_input_is_usage_error(self, dataset, tmp_path, capsys):
        code = main(
            ["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "missing --input" in capsys.readouterr().err

    def test_repeated_input_is_usage_error_and_loads_no_file(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        loaded = []
        monkeypatch.setattr(cli, "_load", lambda *args: loaded.append(args))
        code = main(
            ["run", "dwr1.json",
             "--input", f"ds1_1={dataset}/site_1.csv",
             "--input", f"ds1_2={dataset}/site_2.csv",
             "--input", f"ds1_1={dataset}/sites.csv",
             "--input", f"ds1_3={dataset}/sites.csv",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err == "--input 'ds1_1' given more than once\n"
        assert loaded == []
        assert not (tmp_path / "o").exists()

    def test_corrupt_csv_is_data_error_citing_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"Site ID,Date\na,b,c,d,EXTRA\n")
        code = main(
            ["run", "dwr1.json", "--input", f"ds1_1={bad}",
             "--input", f"ds1_2={bad}", "--input", f"ds1_3={bad}",
             "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.csv" in err and "line 2" in err

    def test_node_failure_is_workflow_error_naming_node(self, tmp_path, dataset, capsys):
        flow = {
            "version": 1,
            "name": "boom",
            "inputs": [{"name": "x", "kind": "table-csv"}],
            "nodes": [
                {
                    "id": "bad_filter",
                    "op": "relops.filter",
                    "inputs": {"in": "$inputs.x"},
                    "params": {"predicate": "no_such_column == 1"},
                }
            ],
            "outputs": [{"name": "y", "from": "bad_filter.out"}],
        }
        path = tmp_path / "boom.json"
        path.write_text(json.dumps(flow))
        code = main(
            ["run", str(path), "--input", f"x={dataset}/sites.csv",
             "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "bad_filter" in err

    def test_invalid_workflow_is_exit_3(self, tmp_path, dataset, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "c",
                    "inputs": [],
                    "nodes": [
                        {"id": "a", "op": "table.infer_types", "inputs": {"in": "b.out"}},
                        {"id": "b", "op": "table.infer_types", "inputs": {"in": "a.out"}},
                    ],
                    "outputs": [],
                }
            )
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_keep_intermediates_spills_per_key(self, dataset, tmp_path, capsys, monkeypatch):
        workspace = tmp_path / "ws"
        monkeypatch.setenv("WRANGLE_WORKSPACE", str(workspace))
        run_ok(
            [
                "run", "dwr1.json",
                "--input", f"ds1_1={dataset}/site_1.csv",
                "--input", f"ds1_2={dataset}/site_2.csv",
                "--input", f"ds1_3={dataset}/sites.csv",
                "--out", str(tmp_path / "o"),
                "--keep-intermediates", "--deterministic-keys",
            ],
            capsys,
        )
        spilled = sorted(p.name for p in workspace.iterdir())
        dwr1 = resources.files("wrangle.workflows").joinpath("dwr1.json").read_bytes()
        assert len(spilled) == len(parse_workflow(dwr1).nodes)
        assert spilled[0] == "tbl-000000000001.csv"

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("flow", ["dwr1.json", "dwr2.json"])
    def test_spills_and_report_equal_those_of_one_writer(
        self, flow, cpus, dataset, tmp_path, capsys, monkeypatch
    ):
        spec = parse_workflow(cli._workflow_bytes(flow))
        argv = ["run", flow, "--deterministic-keys", "--keep-intermediates"]
        for x, file in zip(spec.inputs, _FLOW_FILES[flow]):
            argv += ["--input", f"{x.name}={dataset / file}"]
        runs = []
        for count in (1, cpus):
            _cpus(monkeypatch, count)
            workspace = tmp_path / f"ws{count}"
            monkeypatch.setenv("WRANGLE_WORKSPACE", str(workspace))
            out = run_ok([*argv, "--out", str(tmp_path / f"o{count}")], capsys).out
            spilled = {p.name: p.read_bytes() for p in workspace.iterdir()}
            lines = re.sub(r"\d+\.\d ms", "ms", out.replace(str(tmp_path / f"o{count}"), "OUT"))
            runs.append((spilled, lines.splitlines()))
        (alone, alone_lines), (parallel, parallel_lines) = runs
        assert len(alone) == len(spec.nodes)
        assert parallel == alone
        # The load line follows the first line and the spill line the nodes'; only
        # their reader and writer counts differ.
        n = len(spec.nodes)
        assert alone_lines[1] == "  load: 3 inputs, 1 reader, none cut, ms"
        assert re.fullmatch(r"  load: 3 inputs, [23] readers, none cut, ms", parallel_lines[1])
        spill_line = f"  spill: {n} files, {{}} writer{{}}, ms"
        assert alone_lines[n + 2] == spill_line.format(1, "")
        assert parallel_lines[n + 2] == spill_line.format(cpus, "s")
        for lines in (alone_lines, parallel_lines):
            del lines[n + 2], lines[1]
        assert parallel_lines == alone_lines

    @pytest.mark.parametrize(
        "name, edit, node",
        [
            ("Speed", lambda v, r: "0", "check_links"),
            # Row 2 of sites.csv is site 1084, the one site in the window.
            ("LinkLength", lambda v, r: "" if r == 2 else v, "check_links"),
            ("LinkLength", lambda v, r: "-" + v, "check_links"),
            ("Direction Name", lambda v, r: v.replace("South", "North"), "check_total"),
        ],
        ids=["zero speeds", "null length", "negative length", "empty window"],
    )
    def test_dwr1_refuses_bad_links_and_an_empty_window(
        self, name, edit, node, dataset, tmp_path, capsys
    ):
        src = _edited_copy(dataset, tmp_path / "in", name, edit)
        out = tmp_path / "o"
        code = main(["run", "dwr1.json", "--input", f"ds1_1={src}/site_1.csv",
                     "--input", f"ds1_2={src}/site_2.csv", "--input", f"ds1_3={src}/sites.csv",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"workflow error: node '{node}' failed: row "), err
        assert not (out / "journey_time_s.csv").exists()

    def test_unknown_workflow_file(self, tmp_path, capsys):
        assert main(["run", "nope.json", "--out", str(tmp_path)]) == 1

    def test_failed_write_keeps_old_output_and_leaves_no_temp(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        out.mkdir()
        (out / "journey_time_s.csv").write_bytes(b"old\n")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        code = main(
            [
                "run", "dwr1.json",
                "--input", f"ds1_1={dataset}/site_1.csv",
                "--input", f"ds1_2={dataset}/site_2.csv",
                "--input", f"ds1_3={dataset}/sites.csv",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert (out / "journey_time_s.csv").read_bytes() == b"old\n"
        assert sorted(p.name for p in out.iterdir()) == ["journey_time_s.csv"]

    def test_out_naming_a_file_is_exit_1(self, dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        out.write_bytes(b"old\n")
        loads = _spy_loads(monkeypatch)
        code = main(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                     "--input", f"ds1_2={dataset}/site_2.csv",
                     "--input", f"ds1_3={dataset}/sites.csv", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_bytes() == b"old\n"
        assert loads == []

    def test_workspace_naming_a_file_is_exit_1_before_any_input_is_read(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        workspace = tmp_path / "ws"
        workspace.write_bytes(b"old\n")
        monkeypatch.setenv("WRANGLE_WORKSPACE", str(workspace))
        loads = _spy_loads(monkeypatch)
        code = main(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                     "--input", f"ds1_2={dataset}/site_2.csv",
                     "--input", f"ds1_3={dataset}/sites.csv", "--out", str(tmp_path / "o"),
                     "--keep-intermediates"])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{workspace}'\n"
        assert workspace.read_bytes() == b"old\n"
        assert loads == []
        assert not (tmp_path / "o").exists()

    def test_missing_input_file_is_exit_1_with_the_systems_message(
        self, dataset, tmp_path, capsys
    ):
        gone = tmp_path / "gone.csv"
        code = main(["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
                     "--input", f"ds1_2={gone}", "--input", f"ds1_3={dataset}/sites.csv",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{gone}'\n"
        assert not (tmp_path / "o").exists()


def _cpus(monkeypatch, count: int) -> None:
    """Make ``wrangle run`` see ``count`` usable CPUs."""
    monkeypatch.setattr(workflow, "_usable_cpus", lambda: count)


def _spy_loads(monkeypatch) -> list:
    """The path of each input ``wrangle run`` loads, with one usable CPU so that
    every load is made in this process."""
    _cpus(monkeypatch, 1)
    loads = []
    real_load = cli._load

    def load(path, *args):
        loads.append(path)
        return real_load(path, *args)

    monkeypatch.setattr(cli, "_load", load)
    return loads


def _spy_blobs(monkeypatch, received: list, dumps=marshal.dumps) -> None:
    """Record in ``received`` ``(key, columns)`` for each piece a worker's blob brings
    back whole: ``key`` is ``(input, piece)``; ``columns`` holds ``(name, kind)`` per
    column, with the value of the kind proven on the piece, None for a column of
    nulls. Workers write their blobs with ``dumps``."""

    def loads(payload):
        sent = marshal.loads(payload)
        received.extend((key, tuple(c[:-1] for c in columns)) for key, columns in sent)
        return sent

    monkeypatch.setattr(workflow, "marshal", SimpleNamespace(dumps=dumps, loads=loads))


def _spy_deals(monkeypatch) -> list:
    """Record ``(sizes, shares)`` for each deal of ``wrangle run``'s load: the size of
    each ``(input, range)`` key, and the keys in one share per reader, the process's first."""
    deals, real = [], cli._fork_map

    def fork_map(keys, sizes, *args, **kwargs):
        deals.append((dict(sizes), workflow._deal(sizes, kwargs.get("held", 0))))
        return real(keys, sizes, *args, **kwargs)

    monkeypatch.setattr(cli, "_fork_map", fork_map)
    return deals


def _typed(value):
    """A loaded input with each cell's Python type, for exact comparison."""
    if isinstance(value, Table):
        return [(c.name, c.ctype, [(type(v), v) for v in c.cells]) for c in value.columns]
    return value


_FLOW_FILES = {
    "dwr1.json": ("site_1.csv", "site_2.csv", "sites.csv"),
    "dwr2.json": ("site_1.csv", "sites.csv", "weather.json"),
}


def _bad_csv(kind: str, path, big: bytes | None) -> None:
    """Make ``path`` an input that fails to load in the way ``kind`` names.

    With ``big``, a file longer than ``big``, so that the largest file
    first goes to this process rather than to a worker.
    """
    if kind == "malformed":
        body = big + big.split(b"\n", 1)[1] if big else b"Site ID,Date\n"
        path.write_bytes(body + b"x," * 40 + b"EXTRA\n")
    elif kind == "bom":  # a byte order mark and no header names
        path.write_bytes(b"\xef\xbb\xbf" + b"\n" * (2 * len(big) if big else 1))
    elif kind == "cp1252":  # a spreadsheet's pound sign in the last data row
        path.write_bytes((big or b"Site ID,Date\n") + b"x,\xa34\n")
    else:
        assert kind == "missing"


_BAD_CASES = [
    *(((kind, at),) for kind in ("malformed", "missing", "bom", "cp1252") for at in range(3)),
    *(
        ((first, i), (second, j))
        for first, second in itertools.permutations(("malformed", "missing", "bom"), 2)
        for i, j in itertools.combinations(range(3), 2)
    ),
]


# Per kind, the texts of a run of cells; null is a bare empty field.
_RUN_FIELDS = {
    "int": ["1", "-7", "007"],
    "real": ["1.5", "2e3", "-0.25"],
    "timestamp": ["2018-02-01 00:03:35.23", "2018-02-01 23:59:59"],
    "text": ["a", "'0001083", "NB NS"],
    "null": [""],
}
# Fields a real export may hold now and then: a quoted empty string, a quoted
# comma, a quoted newline, a stray quote, a lone CR and a pound sign that
# ``_cut_csv`` writes as the cp1252 byte.
_ODD_FIELDS = ['""', '"a,b"', '"l1\nl2"', 'a"b', "a\rb", "\u00a3"]


@st.composite
def _cut_csv(draw):
    """CSV bytes of runs of rows, each column of a run of one kind, with odd fields."""
    width = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(width)]
    if draw(st.integers(0, 19)) == 0:
        header[-1] = draw(st.sampled_from(["", "c0"]))  # no name, or a repeated one
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 4))):
        kinds = [draw(st.sampled_from(sorted(_RUN_FIELDS))) for _ in range(width)]
        for _ in range(draw(st.integers(1, 4))):
            fields = [draw(st.sampled_from(_RUN_FIELDS[kind])) for kind in kinds]
            if draw(st.integers(0, 7)) == 0:
                fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD_FIELDS))
            ragged = draw(st.sampled_from([0] * 12 + [-1, 1]))
            fields = fields[:width + ragged] if ragged < 0 else fields + ["x"] * ragged
            lines.append(",".join(fields) + draw(st.sampled_from(["", "", "", ","])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, eol, ""]))
    data = text.encode("utf-8").replace("\u00a3".encode("utf-8"), b"\xa3")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


def _load_outcome(paths, declared, read):
    """The inputs ``_load_inputs`` loads, each cell with its type, or what it raises."""
    try:
        loaded, _ = cli._load_inputs(paths, declared, read)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return {name: _typed(value) for name, value in loaded.items()}


class TestLoadInputs:
    """``wrangle run`` with its CSV inputs parsed in forked workers loads,
    fails and exits as it does loading them one by one, and leaves no
    process behind."""

    def _inputs(self, dataset, flow):
        """``_load_inputs``' arguments for ``flow`` on ``dataset``."""
        spec = parse_workflow(cli._workflow_bytes(flow))
        declared = {x.name: x.kind for x in spec.inputs}
        paths = {name: str(dataset / f) for name, f in zip(declared, _FLOW_FILES[flow])}
        return paths, declared, read_columns(spec)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("flow", sorted(_FLOW_FILES))
    def test_tables_equal_the_one_by_one_load(self, dataset, flow, cpus, monkeypatch):
        paths, declared, read = self._inputs(dataset, flow)
        _cpus(monkeypatch, 1)
        alone, alone_report = cli._load_inputs(paths, declared, read)
        _cpus(monkeypatch, cpus)
        received, deals = [], _spy_deals(monkeypatch)
        _spy_blobs(monkeypatch, received)
        loaded, report = cli._load_inputs(paths, declared, read)
        assert list(loaded) == list(alone)
        assert {k: _typed(v) for k, v in loaded.items()} == {
            k: _typed(v) for k, v in alone.items()
        }
        assert (alone_report.readers, alone_report.cut) == (1, 0)
        ((_, deal),) = deals
        workers = [key for share in deal[1:] for key in share]
        assert sorted(key for key, _ in received) == sorted(workers)
        assert received
        assert report.readers == len(deal)
        dealt = [key for share in deal for key in share]
        cut = {name for name, i in dealt if i}
        assert (report.cut, report.ranges) == (len(cut), len([k for k in dealt if k[0] in cut]))
        assert report.cut == (2 if (cpus, flow) == (4, "dwr1.json") else 0)

    @pytest.mark.parametrize(
        "cpus, process, workers",
        [
            # Largest first, ties in --input order, the unsizable last: b a c d e gone,
            # each to the least-loaded reader, ties to the process.
            (2, ["b", "d", "e"], [["a", "c", "gone"]]),
            (3, ["b"], [["a", "d", "gone"], ["c", "e"]]),
            # A share is 210 / 9 bytes: b is cut into 4 ranges, a and c into 2 each.
            # The process reads them before it forks, and no reader reads a range.
            (9, ["a", "b", "c"], [["d", "e"], ["gone"]]),
        ],
    )
    def test_csv_inputs_are_dealt_largest_first_to_the_least_loaded(
        self, cpus, process, workers, tmp_path, monkeypatch
    ):
        rows = {"a": 24, "b": 44, "c": 24, "d": 4, "e": 4}  # 50, 90, 50, 10 and 10 bytes
        paths = {}
        for name, count in rows.items():
            (tmp_path / name).write_bytes(b"h\n" + b"x\n" * count)
            paths[name] = str(tmp_path / name)
        paths["gone"] = str(tmp_path / "gone")
        log = tmp_path / "reads"
        real_read = cli._read_bytes

        def read_bytes(path):
            with open(log, "a") as fh:  # one short append per read, from any process
                fh.write(f"{os.getpid()} {os.path.basename(path)}\n")
            return real_read(path)

        monkeypatch.setattr(cli, "_read_bytes", read_bytes)
        _cpus(monkeypatch, cpus)
        declared = dict.fromkeys(paths, "table-csv")
        with pytest.raises(FileNotFoundError, match="gone"):
            cli._load_inputs(paths, declared, dict.fromkeys(paths))
        by_pid: dict[str, list[str]] = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            by_pid.setdefault(pid, []).append(name)
        # The process reads its share in --input order, then again what no worker brought back.
        assert by_pid.pop(str(os.getpid())) == [*process, "gone"]
        assert sorted(by_pid.values()) == workers

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
    @pytest.mark.parametrize("bad", _BAD_CASES, ids=str)
    def test_a_bad_input_fails_as_in_a_one_by_one_load(
        self, dataset, tmp_path, bad, big, cpus, capsys, monkeypatch
    ):
        src = tmp_path / "in"
        src.mkdir()
        files = _FLOW_FILES["dwr1.json"]
        for name in files:
            (src / name).write_bytes((dataset / name).read_bytes())
        largest = max((dataset / name).read_bytes() for name in files[:2])
        for kind, at in bad:
            (src / files[at]).unlink()
            _bad_csv(kind, src / files[at], largest if big else None)
        argv = ["run", "dwr1.json", "--out", str(tmp_path / "o")]
        for i, name in enumerate(files, 1):
            argv += ["--input", f"ds1_{i}={src / name}"]
        results = []
        for count in (1, cpus):
            _cpus(monkeypatch, count)
            results.append((main(argv), capsys.readouterr()))
        (code, alone), (parallel_code, parallel) = results
        assert code in (1, 2)
        assert (parallel_code, parallel.out, parallel.err) == (code, alone.out, alone.err)

    @pytest.mark.parametrize("how", ["killed", "raises", "short payload", "no fork"])
    def test_a_failed_worker_leaves_its_inputs_to_the_process(
        self, how, dataset, tmp_path, capsys, monkeypatch
    ):
        argv = ["run", "dwr1.json", "--deterministic-keys"]
        for i, name in enumerate(_FLOW_FILES["dwr1.json"], 1):
            argv += ["--input", f"ds1_{i}={dataset / name}"]
        _cpus(monkeypatch, 1)
        run_ok([*argv, "--out", str(tmp_path / "alone")], capsys)
        _cpus(monkeypatch, 3)
        process = os.getpid()
        real_read = cli._read_piece

        def read_piece(*args):
            if os.getpid() != process:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "raises":
                    raise RuntimeError("worker failed")
            return real_read(*args)

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(cli, "_read_piece", read_piece)
        if how == "no fork":
            monkeypatch.setattr(os, "fork", fork)
        received = []
        if how == "short payload":  # the blob loses its last byte
            _spy_blobs(monkeypatch, received, lambda sent: marshal.dumps(sent)[:-1])
        else:
            _spy_blobs(monkeypatch, received)
        run_ok([*argv, "--out", str(tmp_path / "parallel")], capsys)
        assert received == []
        for out in ("alone", "parallel"):
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["journey_time_s.csv"]
        assert (tmp_path / "parallel" / "journey_time_s.csv").read_bytes() == (
            tmp_path / "alone" / "journey_time_s.csv"
        ).read_bytes()

    def test_a_worker_is_killed_and_reaped_when_the_process_raises(
        self, dataset, monkeypatch
    ):
        _cpus(monkeypatch, 2)
        process = os.getpid()
        real_read = cli._read_piece

        def read_piece(*args):
            if os.getpid() == process:
                raise KeyboardInterrupt
            time.sleep(60)  # never sends its piece
            return real_read(*args)

        monkeypatch.setattr(cli, "_read_piece", read_piece)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._load_inputs(*self._inputs(dataset, "dwr1.json"))
        assert time.monotonic() - started < 30

    def test_two_cpus_cut_the_dwr2_export_in_two_and_nothing_of_dwr1(
        self, bench_dataset, monkeypatch
    ):
        _cpus(monkeypatch, 2)
        deals = _spy_deals(monkeypatch)
        loaded = {}
        for flow in ("dwr2.json", "dwr1.json"):
            loaded[flow], report = cli._load_inputs(*self._inputs(bench_dataset, flow))
            assert (report.readers, report.cut) == (2, 1 if flow == "dwr2.json" else 0)
        (sizes, dwr2), (_, dwr1) = deals
        # A share is half of 5.1 MB of export and 1.0 MB of weather. The worker takes
        # one share of the export; the process the rest of it, beside the weather.
        assert dwr2 == [[("ds2_1", 1), ("ds2_2", 0)], [("ds2_1", 0)]]
        assert 3.0e6 < sizes["ds2_1", 0] < 3.1e6 and 2.0e6 < sizes["ds2_1", 1] < 2.1e6
        assert dwr1 == [[("ds1_1", 0)], [("ds1_2", 0), ("ds1_3", 0)]]
        _cpus(monkeypatch, 1)
        alone, _ = cli._load_inputs(*self._inputs(bench_dataset, "dwr2.json"))
        assert _typed(loaded["dwr2.json"]["ds2_1"]) == _typed(alone["ds2_1"])

    def test_a_worker_sends_cells_that_marshal_typed_and_timestamps_as_text(
        self, bench_dataset, monkeypatch
    ):
        _cpus(monkeypatch, 2)
        sent = []

        def loads(payload):
            pieces = marshal.loads(payload)
            sent.extend(pieces)
            return pieces

        monkeypatch.setattr(workflow, "marshal", SimpleNamespace(dumps=marshal.dumps, loads=loads))
        loaded, _ = cli._load_inputs(*self._inputs(bench_dataset, "dwr1.json"))
        # The worker reads the second export whole (see the test above).
        piece = dict(sent)["ds1_2", 0]
        columns = {name: (kind, {type(v) for v in cells}) for name, kind, cells in piece}
        assert columns == {"Site ID": ("text", {str}), "Date": ("timestamp", {str}),
                           "Direction Name": ("text", {str}), "Speed": ("real", {float})}
        assert {type(v) for v in loaded["ds1_2"].column("Date").cells} == {datetime}

    def test_an_input_loaded_whole_again_is_counted_on_the_load_line(
        self, bench_dataset, tmp_path, capsys, monkeypatch
    ):
        # One quoted comma in row 1 of dwr2's export: the worker's range declines, and
        # so does the process's retry, so the export is loaded whole again, one by one.
        data = (bench_dataset / "site_1.csv").read_bytes()
        (tmp_path / "site_1.csv").write_bytes(data.replace(b'"NB_NS"', b'"NB,NS"', 1))
        _cpus(monkeypatch, 2)
        out = run_ok(["run", "dwr2.json", "--input", f"ds2_1={tmp_path / 'site_1.csv'}",
                      "--input", f"ds2_2={bench_dataset / 'sites.csv'}",
                      "--input", f"ds2_3={bench_dataset / 'weather.json'}",
                      "--out", str(tmp_path / "o")], capsys).out
        assert re.search(r"^  load: 3 inputs, 2 readers, 1 cut into 2 ranges, "
                         r"1 loaded whole again, \d+\.\d ms$", out, re.M), out

    @pytest.mark.parametrize("cpus", [2, 3, 4, 7])
    def test_a_cut_fills_shares_with_ranges_that_end_after_a_newline(self, cpus, bench_dataset):
        path = str(bench_dataset / "site_1.csv")
        size = os.path.getsize(path)
        share = (size + 1_000_000) / cpus
        data, ranges = cli._cut(path, size, share)
        assert len(ranges) == round(size / share)
        assert ranges[0][0] == data.index(b"\n") + 1
        assert ranges[-1][1] == size
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start and data[end - 1:end] == b"\n"
        for k, (_, end) in enumerate(ranges[:-1], 1):
            assert 0 <= end - k * share < 200  # a row is about 100 bytes

    @pytest.mark.parametrize(
        "data, share, ranges",
        [
            (b"h\n" + b"x\n" * 30, 40, [(2, 40), (40, 62)]),  # round(62 / 40) is 2
            (b"h\n" + b"x\n" * 10, 16, None),  # round(22 / 16) is 1
            (b"h\n" + b"x\n" * 3, 2, [(2, 4), (4, 6), (6, 8)]),  # the header fills a share
            (b"h," * 40, 10, None),  # no header line
            (b"h\n" + b"x" * 60, 10, None),  # no newline past the header
        ],
        ids=["two", "one", "header", "no header", "one row"],
    )
    def test_a_cut_ends_each_range_after_a_newline_or_is_none(self, data, share, ranges,
                                                              tmp_path):
        # An input left whole is one piece, which its reader reads.
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        whole = (None, [(0, len(data))])
        assert cli._cut(str(path), len(data), share) == (ranges and (data, ranges) or whole)

    def test_a_cut_reads_nothing_below_a_share_and_a_half_or_of_a_file_gone(
        self, tmp_path, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(cli, "_read_bytes", reads.append)
        assert cli._cut(str(tmp_path / "x.csv"), 149, 100) == (None, [(0, 149)])
        assert cli._cut(str(tmp_path / "x.csv"), 0, 0) == (None, [(0, 0)])
        assert reads == []
        monkeypatch.undo()
        assert cli._cut(str(tmp_path / "gone.csv"), 300, 100) == (None, [(0, 300)])

    @settings(max_examples=150, deadline=None)
    @given(data=_cut_csv(), draw=st.data())
    @example(data=b"c0\n1\n2\n1.5\n2.5\n", draw=None)  # an int range, then a real one
    @example(data=b"c0,c1\n1,x\n2,\na,\nb,\n", draw=None)  # text after int; null-only
    @example(data=b'c0\n"a\n1"\n2\n', draw=None)  # a newline inside quotes
    @example(data=b"c0,c1\r\n1,2,\r\n3,4\r\n", draw=None)  # CRLF, a trailing empty
    @example(data=b"\xef\xbb\xbfc0\n\xa3\n1\n", draw=None)  # a BOM, a cp1252 byte
    @example(data=b'c0,c1\n"",1\n2\n3,4,5\n', draw=None)  # "", ragged rows
    def test_a_load_cut_at_any_newlines_equals_the_one_by_one_load(
        self, data, draw, one_day_weather
    ):
        # Beside the cut input t, a second CSV input u is left whole. The weather
        # starts the process's share, so with two or more CPUs a worker takes u whole.
        newlines = [i + 1 for i in range(data.index(b"\n") + 1, len(data)) if data[i] == 10]
        if draw is None:  # an example: cut at every newline, on two CPUs, u the same bytes
            ends, cpus, plans, names, other = newlines, 2, (None, None), ["t", "u", "w"], data
        else:
            ends = draw.draw(st.sets(st.sampled_from(newlines)) if newlines else st.just(()))
            cpus = draw.draw(st.integers(1, 3), label="cpus")
            plans = draw.draw(st.tuples(*[st.sampled_from(
                [None, frozenset({"c0"}), frozenset({"c1", "zz"})])] * 2))
            names = draw.draw(st.permutations(["t", "u", "w"]))
            other = draw.draw(_cut_csv(), label="u")

        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "t.csv")
            Path(csv_path).write_bytes(data)
            Path(tmp, "u.csv").write_bytes(other)

            def cut(path, size, share):
                if path != csv_path:
                    return None, [(0, size)]
                raw = cli._read_bytes(path)
                bounds = [raw.index(b"\n") + 1, *sorted(ends), len(raw)]
                return raw, [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

            paths = {"t": csv_path, "u": os.path.join(tmp, "u.csv"), "w": str(one_day_weather)}
            paths = {name: paths[name] for name in names}
            declared = {"t": "table-csv", "u": "table-csv", "w": "weather-json"}
            read = {"t": plans[0], "u": plans[1], "w": None}
            with pytest.MonkeyPatch.context() as m:
                m.setattr(workflow, "_usable_cpus", lambda: 1)
                alone = _load_outcome(paths, declared, read)
                m.setattr(workflow, "_usable_cpus", lambda: cpus)
                m.setattr(cli, "_cut", cut)
                assert _load_outcome(paths, declared, read) == alone

    def test_without_fork_or_affinity_or_beside_a_thread_it_loads_one_by_one(
        self, monkeypatch
    ):
        if workflow._usable_cpus() < 2:
            pytest.skip("needs a host where the load can fork workers")
        stop = threading.Event()
        beside = threading.Thread(target=stop.wait, args=(60,))
        beside.start()
        try:
            assert workflow._usable_cpus() == 1
        finally:
            stop.set()
            beside.join(60)
        assert not beside.is_alive()
        assert workflow._usable_cpus() > 1
        for name in ("fork", "sched_getaffinity"):
            with monkeypatch.context() as m:
                m.delattr(os, name)
                assert workflow._usable_cpus() == 1, name


def _one_node_flow(op: str, params: dict) -> dict:
    return {
        "version": 1,
        "name": "one",
        "inputs": [{"name": "x", "kind": "table-csv"}],
        "nodes": [{"id": "n", "op": op, "inputs": {"in": "$inputs.x"}, "params": params}],
        "outputs": [{"name": "y", "from": "n.out"}],
    }


def _edited_flow(edit) -> str:
    """The text of ``_one_node_flow`` for ``table.infer_types`` after ``edit`` mutates it."""
    flow = _one_node_flow("table.infer_types", {})
    edit(flow)
    return json.dumps(flow)


# A workflow refused for its shape is a data error; one refused for what it says, a workflow error.
_BAD_FLOWS = {
    "invalid JSON": ("{not json", 2, "data error: invalid JSON: "),
    "unknown key": (_edited_flow(lambda f: f.update(extra=1)), 2,
                    "data error: unknown workflow keys: ['extra']\n"),
    "missing key": (_edited_flow(lambda f: f.pop("outputs")), 2,
                    "data error: workflow: missing 'outputs'\n"),
    "bad input kind": (_edited_flow(lambda f: f["inputs"][0].update(kind="csv")), 2,
                       "data error: inputs[0]: kind must be one of ('table-csv', 'weather-json')\n"),
    "duplicate input": (_edited_flow(lambda f: f["inputs"].append(f["inputs"][0])), 2,
                        "data error: inputs[1]: duplicate input name 'x'\n"),
    "duplicate output": (_edited_flow(lambda f: f["outputs"].append(f["outputs"][0])), 2,
                         "data error: outputs[1]: duplicate output name 'y'\n"),
    "output name": (_edited_flow(lambda f: f["outputs"][0].update(name="../y")), 2,
                    "data error: outputs[0]: output name '../y' is not a file name\n"),
    "entry key": (_edited_flow(lambda f: f["outputs"][0].update(form="csv")), 2,
                  "data error: outputs[0]: unknown keys: ['form']\n"),
    "unknown op": (_edited_flow(lambda f: f["nodes"][0].update(op="relops.nope")), 3,
                   "workflow error: unknown operator 'relops.nope' (see: chart.bar, "),
    "dangling reference": (_edited_flow(lambda f: f["nodes"][0]["inputs"].update(
        {"in": "$inputs.nope"})), 3, "workflow error: node 'n' port 'in': no input 'nope'\n"),
    # Refused before the unbound input 'w' is noticed, so before any input is read.
    "weather output": (_edited_flow(lambda f: (
        f["inputs"].append({"name": "w", "kind": "weather-json"}),
        f["outputs"].append({"name": "z", "from": "$inputs.w"}))), 3,
        "workflow error: outputs[1]: wants table or svg, reference carries weatherdoc\n"),
}


@pytest.mark.parametrize("text, code, err", _BAD_FLOWS.values(), ids=_BAD_FLOWS.keys())
def test_bad_workflow_file_exit_code_follows_its_fault(text, code, err, dataset, tmp_path, capsys):
    flow = tmp_path / "flow.json"
    flow.write_text(text)
    assert main(["run", str(flow), "--input", f"x={dataset}/sites.csv",
                 "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith(err)
    assert [p.name for p in tmp_path.iterdir()] == ["flow.json"]


@pytest.mark.parametrize(
    "op, params",
    [
        ("relops.filter", {"predicate": "k >="}),
        ("relops.group_summarise", {"aggs": ["bogus(x)"]}),
    ],
)
def test_bad_grammar_param_is_exit_3_in_op_and_run(op, params, dataset, tmp_path, capsys):
    table = f"{dataset}/sites.csv"
    code = main(["op", op, "--table", table, "--params", json.dumps(params)])
    op_err = capsys.readouterr().err
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps(_one_node_flow(op, params)))
    run_code = main(["run", str(flow), "--input", f"x={table}", "--out", str(tmp_path / "o")])
    run_err = capsys.readouterr().err
    assert (code, run_code) == (3, 3)
    assert op_err.startswith("workflow error: ")
    assert run_err.startswith("workflow error: node 'n': ")
    assert op_err.removeprefix("workflow error: ") == run_err.removeprefix(
        "workflow error: node 'n': "
    )


def test_int_literal_past_the_digit_limit_is_exit_3_naming_its_position(dataset, capsys):
    params = {"predicate": "a > " + "1" * 5000}
    code = main(["op", "relops.filter", "--table", f"{dataset}/sites.csv",
                 "--params", json.dumps(params)])
    assert code == 3
    assert capsys.readouterr().err == (
        "workflow error: int literal of 5000 digits is too long at position 4\n"
    )


class TestOp:
    def test_clean_site_id(self, dataset, tmp_path, capsys):
        out = tmp_path / "cleaned.csv"
        run_ok(
            ["op", "traffic.clean_site_id", "--table", f"{dataset}/site_1.csv",
             "--params", '{"col": "Site ID"}', "--out", str(out)],
            capsys,
        )
        t = parse_csv(out.read_bytes())
        assert t.column("Site ID").cells[0] == "1083"

    def test_weather_flatten_writes_18_columns(self, dataset, tmp_path, capsys):
        out = tmp_path / "wx.csv"
        run_ok(
            ["op", "weather.flatten", "--weather", f"{dataset}/weather.json",
             "--out", str(out)],
            capsys,
        )
        t = parse_csv(out.read_bytes())
        assert len(t.column_names) == 18

    def test_unknown_op_lists_registry(self, capsys):
        code = main(["op", "nope.op"])
        err = capsys.readouterr().err
        assert code == 1
        assert "relops.union" in err

    def test_bad_params_json(self, dataset, capsys):
        code = main(
            ["op", "traffic.clean_site_id", "--table", f"{dataset}/site_1.csv",
             "--params", "{bad"]
        )
        assert code == 1

    def test_failed_out_write_keeps_old_file(self, dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cleaned.csv"
        out.write_bytes(b"old\n")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        code = main(["op", "traffic.clean_site_id", "--table", f"{dataset}/site_1.csv",
                     "--params", '{"col": "Site ID"}', "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cleaned.csv"]

    def test_out_naming_a_directory_is_exit_1_and_leaves_no_temp(
        self, dataset, tmp_path, capsys
    ):
        out = tmp_path / "d"
        out.mkdir()
        code = main(["op", "table.infer_types", "--table", f"{dataset}/sites.csv",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "out, error",
        [("d", "[Errno 21] Is a directory"), ("nodir/out.csv", "[Errno 2] No such file or directory")],
        ids=["directory", "missing parent"],
    )
    def test_out_that_cannot_be_written_is_exit_1_before_any_input_is_read(
        self, out, error, dataset, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        loads = _spy_loads(monkeypatch)
        code = main(["op", "table.infer_types", "--table", f"{dataset}/sites.csv", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}: '{out}'\n"
        assert loads == []
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_a_directory_as_table_is_exit_1_naming_the_fault(self, tmp_path, capsys):
        code = main(["op", "table.infer_types", "--table", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_nan_space_buffer_is_exit_3(self, capsys):
        code = main(["op", "spacetime.time_space_join", "--params", '{"space_buffer_m": NaN}'])
        assert code == 3
        assert capsys.readouterr().err == "workflow error: buffers must be positive\n"

    def test_chart_op_writes_svg(self, dataset, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("cond,speed\ndry,30.5\nwet,25.0\n")
        out = tmp_path / "c.svg"
        run_ok(["op", "chart.bar", "--table", str(table), "--out", str(out),
                "--params", '{"category_col": "cond", "value_col": "speed", "title": "t"}'],
               capsys)
        t = infer_column_types(parse_csv(table.read_bytes()))
        assert out.read_bytes() == render_bar_chart(t, "cond", "speed", "t")

    def test_stdout_output(self, dataset, capsys):
        code = main(
            ["op", "table.infer_types", "--table", f"{dataset}/sites.csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Site.ID,")

    def test_infer_types_on_ints_past_the_digit_limit(self, tmp_path, capsys):
        table = tmp_path / "big.csv"
        table.write_text(f"n,m\n{'9' * 4301},{'0' * 4301}7\n1,2\n")
        code = main(["op", "table.infer_types", "--table", str(table)])
        assert code == 0
        # n overflows the float range too, so it stays text.
        assert capsys.readouterr().out == f"n,m\n{'9' * 4301},7\n1,2\n"


class TestGenCommand:
    def test_gen_writes_files(self, tmp_path, capsys):
        run_ok(
            ["gen", "--seed", "5", "--sites", "2", "--rows", "20",
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert (tmp_path / "d" / "site_2.csv").is_file()

    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        assert main(["gen", "--sites", "1", "--out", str(tmp_path)]) == 1
        assert main(["gen", "--date-start", "2018-13-99", "--out", str(tmp_path)]) == 1


class TestOtherCommands:
    # the former `flatten-weather` and `chart` shortcuts, now spelled through `op`
    def test_flatten_weather(self, dataset, tmp_path, capsys):
        out = tmp_path / "wx.csv"
        run_ok(["op", "weather.flatten", "--weather", f"{dataset}/weather.json",
                "--out", str(out)], capsys)
        assert out.read_bytes().startswith(b"SiteID,")

    def test_chart(self, dataset, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_bytes(b"cond,speed\nwet,24.5\ndry,33.1\n")
        out = tmp_path / "c.svg"
        run_ok(
            ["op", "chart.bar", "--table", str(table), "--out", str(out),
             "--params", '{"category_col": "cond", "value_col": "speed", "title": "t"}'],
            capsys,
        )
        assert b"<svg" in out.read_bytes()

    def test_list_ops(self, capsys):
        golden = Path(__file__).parent / "data" / "list_ops.txt"  # the listing, byte for byte
        assert run_ok(["list-ops"], capsys).out == golden.read_text()

    def test_list_ops_shows_every_declared_param(self, capsys):
        lines = {line.split()[0]: line for line in run_ok(["list-ops"], capsys).out.splitlines()}
        assert set(lines) == set(REGISTRY)
        for op in REGISTRY.values():
            shown = [word.partition("=")[0] for word in lines[op.name].split(" -> ")[1].split()[1:]]
            assert shown == [p.name for p in op.params]

    def test_no_command_is_usage(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command", ["chart", "flatten-weather"])
    def test_removed_shortcuts_are_usage_errors(self, command, dataset, capsys):
        # charts and flat weather tables come from `op chart.bar` and `op weather.flatten`
        assert main([command, f"{dataset}/weather.json"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        # one subprocess check that `python -m wrangle` works end to end
        proc = subprocess.run(
            [sys.executable, "-m", "wrangle", "list-ops"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "chart.bar" in proc.stdout
