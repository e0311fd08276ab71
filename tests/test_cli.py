"""CLI subcommands, exit codes, and emitted-file stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bspkit
import bspkit.algorithms as alg
from bspkit.cli import main
from bspkit.model import trace_from_csv, trace_to_csv


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestRun:
    def test_broadcast_report(self, tmp_path):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = main(
            ["run", "--algo", "broadcast", "--p", "4", "--n", "1", "--l", "10",
             "--backend", "simulate", "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        report = read_json(out)
        assert report["trace"]["steps"][0]["h"] == 3
        assert report["trace"]["totals"]["sync_count"] == 1
        assert report["backend"] == "simulate"
        # parse-print-parse stability of the emitted trace CSV
        text = trace.read_text(encoding="utf-8")
        assert trace_to_csv(trace_from_csv(text)) == text

    def test_report_json_parse_print_stable(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--algo", "reduce", "--n", "20", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_empty_samplesort(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "samplesort", "--p", "1", "--n", "0", "--out", str(out)]) == 0

    def test_unknown_algo_exit_2(self, capsys):
        assert main(["run", "--algo", "foo"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_parallel_backend_records_wall_time(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "nbody", "--n", "8", "--backend", "parallel", "--out", str(out)]) == 0
        assert read_json(out)["wall_time"] > 0

    def test_env_overrides_embedded(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "empty", "--out", str(out), "--env", "hardware=lab box", "--env", "course=cosc-471"]) == 0
        env = read_json(out)["environment"]
        assert env["hardware"] == "lab box"
        assert env["course"] == "cosc-471"
        assert all(str(v).strip() for v in env.values())

    def test_bad_env_flag_exit_2(self, capsys):
        assert main(["run", "--algo", "empty", "--env", "novalue"]) == 2

    def test_non_integer_cores_used_exit_2(self, capsys):
        assert main(["run", "--algo", "empty", "--env", "cores_used=abc"]) == 2
        assert "cores_used must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_cores_used_below_one_exit_2(self, capsys, value):
        assert main(["run", "--algo", "empty", "--env", f"cores_used={value}"]) == 2
        assert f"cores_used must be at least 1, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [("{}", "'p'"), ('{"p": 4, "g": "x"}', "'g'"), ("not json", "Expecting value"), ("[1, 2]", "JSON object")],
    )
    def test_malformed_machine_json_exit_2(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "m.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", "--algo", "empty", "--machine", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err

    @pytest.mark.parametrize(
        "flags, machine",
        [(["--l", "nan"], None), (["--g", "inf"], None), ([], '{"p": 2, "g": 1e999}'), ([], '{"children": [{"p": 1}], "l": -1e999}')],
        ids=["l-nan", "g-inf", "file-g-1e999", "file-node-l--1e999"],
    )
    def test_non_finite_machine_parameter_exit_2_and_no_trace(self, tmp_path, capsys, flags, machine):
        if machine is not None:
            (tmp_path / "m.json").write_text(machine, encoding="utf-8")
            flags = ["--machine", str(tmp_path / "m.json")]
        trace = tmp_path / "t.csv"
        assert main(["run", "--algo", "broadcast", "--p", "2", "--n", "3", *flags, "--trace", str(trace)]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not trace.exists()

    def test_machine_json_nested_too_deeply_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"children": [' * 3000 + '{"p": 1}' + "]}" * 3000, encoding="utf-8")
        assert main(["run", "--algo", "empty", "--machine", str(cfg)]) == 2
        assert capsys.readouterr().err == f"usage error: machine JSON {cfg}: nested too deeply\n"

    @pytest.mark.parametrize("depth", [*range(480, 521), 600, 800, 1000])
    def test_machine_tree_too_deep_to_run_exit_2(self, tmp_path, capsys, depth):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"children": [' * depth + '{"p": 1}' + "]}" * depth, encoding="utf-8")
        assert main(["run", "--algo", "empty", "--machine", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")  # from the tree's depth bound or the JSON decoder

    def test_machine_tree_50_levels_deep_runs(self, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"children": [' * 50 + '{"p": 1}' + "]}" * 50, encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "empty", "--machine", str(cfg), "--out", str(out)]) == 0
        assert read_json(out)["machine"]["children"][0]["children"]

    def test_machine_tree_config(self, tmp_path):
        cfg = tmp_path / "tree.json"
        cfg.write_text(json.dumps({"children": [{"p": 2, "g": 1, "l": 10}, {"p": 2, "g": 1, "l": 10}], "g": 2, "l": 20}))
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "broadcast", "--machine", str(cfg), "--n", "1", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["machine"]["children"][0]["p"] == 2

    def test_put_algorithm_on_machine_tree(self, tmp_path):
        cfg = tmp_path / "tree.json"
        cfg.write_text(json.dumps({"children": [{"p": 2, "g": 1, "l": 10}, {"p": 2, "g": 1, "l": 10}], "g": 2, "l": 20}))
        tree_out, flat_out = tmp_path / "tree.json.out", tmp_path / "flat.json.out"
        assert main(["run", "--algo", "samplesort", "--machine", str(cfg), "--n", "50", "--out", str(tree_out)]) == 0
        assert main(["run", "--algo", "samplesort", "--p", "4", "--n", "50", "--out", str(flat_out)]) == 0
        assert read_json(tree_out)["result_digest"] == read_json(flat_out)["result_digest"]

    def test_program_error_exit_1_and_partial_trace(self, tmp_path, monkeypatch):
        def bad_builder(n, seed, distribution):
            from bspkit.bsml import mkpar, put

            def program():
                put(mkpar(lambda i: {}, work=0))
                mkpar(lambda i: 1 // 0)

            return program

        monkeypatch.setitem(alg.ALGORITHMS, "boom", bad_builder)
        out = tmp_path / "r.json"
        trace = tmp_path / "partial.csv"
        code = main(["run", "--algo", "boom", "--out", str(out), "--trace", str(trace)])
        assert code == 1
        assert not out.exists()
        parsed = trace_from_csv(trace.read_text(encoding="utf-8"))
        assert parsed.sync_count == 1  # the put before the failure survived


class TestSweepFitSurface:
    def test_sweep_fit_recovers_l_and_g(self, tmp_path):
        grid = tmp_path / "grid.csv"
        model = tmp_path / "model.json"
        assert main(["sweep", "--algo", "broadcast", "--p-list", "2,4,8", "--n-list", "1,10,100",
                     "--g", "0.5", "--l", "20", "--out", str(grid)]) == 0
        assert main(["fit", "--grid", str(grid), "--basis", "1,n*(p-1)", "--out", str(model)]) == 0
        got = read_json(model)
        assert abs(got["coefficients"][0] - 20.0) <= 1e-9
        assert abs(got["coefficients"][1] - 0.5) <= 1e-9
        assert got["environment"]["software"].startswith("python")

    def test_fit_underdetermined_exit_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        assert main(["sweep", "--algo", "broadcast", "--p-list", "2", "--n-list", "1,10", "--out", str(grid)]) == 0
        assert main(["fit", "--grid", str(grid), "--basis", "1,n,p,n*p", "--out", str(tmp_path / "m.json")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_fit_malformed_grid_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("p,n,metric,value,env_id\n2,oops,cost,1.0,e\n", encoding="utf-8")
        assert main(["fit", "--grid", str(bad), "--out", str(tmp_path / "m.json")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_fit_residual_table_and_crossval(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        res = tmp_path / "residuals.csv"
        main(["sweep", "--algo", "broadcast", "--p-list", "2,4,8", "--n-list", "1,10,100", "--out", str(grid)])
        assert main(["fit", "--grid", str(grid), "--basis", "1,n*(p-1)", "--out", str(tmp_path / "m.json"),
                     "--residuals", str(res), "--crossval", "3"]) == 0
        lines = res.read_text().splitlines()
        assert lines[0] == "p,n,value,predicted,residual"
        assert len(lines) == 10
        assert "crossval k=3" in capsys.readouterr().err

    def test_surface_matrix(self, tmp_path):
        grid = tmp_path / "grid.csv"
        surf = tmp_path / "surface.csv"
        main(["sweep", "--algo", "broadcast", "--p-list", "2,4", "--n-list", "1,10", "--out", str(grid)])
        assert main(["surface", "--grid", str(grid), "--out", str(surf)]) == 0
        lines = surf.read_text().splitlines()
        assert lines[0] == "# surface metric=cost"
        assert lines[1] == ",1,10"

    def test_surface_curve_fallback_warns(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        surf = tmp_path / "surface.csv"
        main(["sweep", "--algo", "broadcast", "--p-list", "4", "--n-list", "1,10,100", "--out", str(grid)])
        assert main(["surface", "--grid", str(grid), "--out", str(surf)]) == 0
        assert "curve" in capsys.readouterr().err
        assert surf.read_text().splitlines()[1] == "n,value"

    def test_missing_grid_file_exit_2(self):
        assert main(["fit", "--grid", "/nonexistent/grid.csv"]) == 2


class TestCheck:
    def test_fast_suites_pass(self, capsys):
        assert main(["check", "--suite", "exact-counts", "--suite", "recosting"]) == 0
        out = capsys.readouterr().out
        assert "exact-counts" in out and "PASS" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--suite", "transpose", "--p", "0"],
            ["--suite", "translate", "--cases", "0"],
            ["--suite", "oracles", "--instances", "0"],
            ["--cases", "-3"],
        ],
    )
    def test_size_below_one_exit_2(self, capsys, flags):
        assert main(["check", *flags]) == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err and flags[-2].lstrip("-") in err

    def test_invalid_suite_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "none"])
        assert exc.value.code == 2

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        from bspkit import checks

        monkeypatch.setitem(
            checks.ALL_SUITES, "exact-counts", lambda: checks.CheckResult("exact-counts", False, "boom")
        )
        assert main(["check", "--suite", "exact-counts"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_raising_suite_fails_and_the_others_still_run(self, capsys, monkeypatch):
        from bspkit import checks
        from bspkit.errors import ProgramError

        def broken():
            raise ProgramError(2, 3, TypeError("boom"))

        monkeypatch.setitem(checks.ALL_SUITES, "nested", broken)
        assert main(["check", "--suite", "exact-counts", "--suite", "nested", "--suite", "recosting"]) == 1
        lines = {line.split()[0]: line.split(None, 2)[1:] for line in capsys.readouterr().out.splitlines()}
        assert lines["exact-counts"][0] == lines["recosting"][0] == "PASS"
        assert lines["nested"][0] == "FAIL"
        assert "ProgramError: program failed at pid 2, superstep 3: TypeError('boom')" in lines["nested"][1]

    def test_suite_names_checked_before_any_suite_runs(self, monkeypatch):
        from bspkit import checks
        from bspkit.errors import UsageError

        ran = []
        monkeypatch.setitem(checks.ALL_SUITES, "exact-counts", lambda: ran.append("exact-counts"))
        with pytest.raises(UsageError, match="unknown suite 'none'"):
            checks.run_suites(["exact-counts", "none"])
        assert ran == []


class TestTranslate:
    @pytest.mark.parametrize("program", ["scatter", "gather", "pipeline"])
    def test_dump_equivalence(self, tmp_path, program):
        out = tmp_path / "dump.json"
        assert main(["translate", "--program", program, "--p", "4", "--out", str(out)]) == 0
        dump = read_json(out)
        assert dump["equivalent"] is True
        assert dump["direct"]["sync_count"] == dump["translated"]["sync_count"]
        assert dump["translated"]["put_plans"]

    def test_unknown_program_exit_2(self):
        assert main(["translate", "--program", "mystery"]) == 2


class TestArgparseContract:
    def test_no_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "broadcast", "--backend", "gpu"])
        assert exc.value.code == 2


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    """scipy.linalg is imported only by a rank-deficient fit."""
    env = dict(os.environ, PYTHONPATH=str(Path(bspkit.__file__).resolve().parents[1]))
    code = "import sys, bspkit.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_dash_m_bspkit_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(bspkit.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "bspkit", "run", "--algo", "total-exchange", "--p", "4", "--n", "1"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trace"]["totals"]["total_words"] == 12
