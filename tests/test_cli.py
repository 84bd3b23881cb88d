"""CLI surface: subcommands, exit codes, file handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from wrangle.cli import main
from wrangle.gen import GenConfig, generate
from wrangle.table import infer_column_types, parse_csv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    generate(GenConfig(seed=11, sites=2, rows_per_site=150), out)
    return out


def _refuse_replace(src, dst):
    raise OSError("disk full")


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
        t = infer_column_types(parse_csv((out / "journey_time_s.csv").read_bytes()))
        assert t.column("journey_time_s").cells[0] > 0

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

    def test_missing_input_is_usage_error(self, dataset, tmp_path, capsys):
        code = main(
            ["run", "dwr1.json", "--input", f"ds1_1={dataset}/site_1.csv",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "missing --input" in capsys.readouterr().err

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
        assert len(spilled) == 10
        assert spilled[0] == "tbl-000000000001.csv"

    def test_unknown_workflow_file(self, tmp_path, capsys):
        assert main(["run", "nope.json", "--out", str(tmp_path)]) == 1

    def test_failed_write_keeps_old_output_and_leaves_no_temp(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        out.mkdir()
        (out / "journey_time_s.csv").write_bytes(b"old\n")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError, match="disk full"):
            main(
                [
                    "run", "dwr1.json",
                    "--input", f"ds1_1={dataset}/site_1.csv",
                    "--input", f"ds1_2={dataset}/site_2.csv",
                    "--input", f"ds1_3={dataset}/sites.csv",
                    "--out", str(out),
                ]
            )
        assert (out / "journey_time_s.csv").read_bytes() == b"old\n"
        assert sorted(p.name for p in out.iterdir()) == ["journey_time_s.csv"]


def _one_node_flow(op: str, params: dict) -> dict:
    return {
        "version": 1,
        "name": "one",
        "inputs": [{"name": "x", "kind": "table-csv"}],
        "nodes": [{"id": "n", "op": op, "inputs": {"in": "$inputs.x"}, "params": params}],
        "outputs": [{"name": "y", "from": "n.out"}],
    }


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
        with pytest.raises(OSError, match="disk full"):
            main(["op", "traffic.clean_site_id", "--table", f"{dataset}/site_1.csv",
                  "--params", '{"col": "Site ID"}', "--out", str(out)])
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cleaned.csv"]

    def test_stdout_output(self, dataset, capsys):
        code = main(
            ["op", "table.infer_types", "--table", f"{dataset}/sites.csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Site.ID,")


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
    def test_flatten_weather(self, dataset, tmp_path, capsys):
        out = tmp_path / "wx.csv"
        run_ok(["flatten-weather", f"{dataset}/weather.json", "--out", str(out)], capsys)
        assert out.read_bytes().startswith(b"SiteID,")

    def test_chart(self, dataset, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_bytes(b"cond,speed\nwet,24.5\ndry,33.1\n")
        out = tmp_path / "c.svg"
        run_ok(
            ["chart", str(table), "--category", "cond", "--value", "speed",
             "--title", "t", "--out", str(out)],
            capsys,
        )
        assert b"<svg" in out.read_bytes()

    def test_list_ops(self, capsys):
        run = run_ok(["list-ops"], capsys)
        assert "spacetime.time_space_join" in run.out

    def test_no_command_is_usage(self, capsys):
        assert main([]) == 1

    def test_console_entry_point(self, tmp_path):
        # one subprocess check that `python -m wrangle` works end to end
        proc = subprocess.run(
            [sys.executable, "-m", "wrangle", "list-ops"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "chart.bar" in proc.stdout
