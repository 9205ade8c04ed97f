import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairctl
from fairctl import __version__
from fairctl.cli import main

import oracles


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


@pytest.fixture()
def half_half_csv(tmp_path):
    return write(tmp_path / "vec.csv", "# one vector per line\n0.5,0.5,0,0\n")


@pytest.fixture()
def c321_csv(tmp_path):
    return write(tmp_path / "obj.csv", "3,2,1\n")


class TestCheck:
    def test_eps_zero_everything_is_member(self, capsys, tmp_path):
        path = write(tmp_path / "v.csv", "1,2,3\n0.1,0.9,0\n5,5,5\n")
        code, doc = run_json(capsys, "check", "--eps", "0", "--p", "2", "--input", path)
        assert code == 0
        assert doc["results"]["all_members"] is True
        assert doc["command"] == "check"
        assert doc["version"] == __version__

    def test_uniform_at_eps_one(self, capsys, tmp_path):
        path = write(tmp_path / "v.csv", "0.25,0.25,0.25,0.25\n")
        code, doc = run_json(capsys, "check", "--eps", "1", "--p", "2", "--input", path)
        assert code == 0

    def test_mixed_membership_gives_exit_one(self, capsys, half_half_csv):
        code, doc = run_json(
            capsys, "check", "--eps", "0.4", "--p", "2,3,inf", "--input", half_half_csv
        )
        assert code == 1
        members = [e["member"] for e in doc["results"]["vectors"][0]["per_p"]]
        assert members == [True, False, False]
        assert doc["results"]["vectors"][0]["cv"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_csv_reports_line_number(self, capsys, tmp_path):
        path = write(tmp_path / "bad.csv", "1,2,3\n1,oops,3\n")
        code, out, err = run(capsys, "check", "--eps", "0.5", "--p", "2", "--input", path)
        assert code == 2
        assert ":2:" in err

    def test_negative_entry_rejected(self, capsys, tmp_path):
        path = write(tmp_path / "neg.csv", "1,-2,3\n")
        code, _, err = run(capsys, "check", "--eps", "0.5", "--p", "2", "--input", path)
        assert code == 2

    def test_inconsistent_dimension_rejected(self, capsys, tmp_path):
        path = write(tmp_path / "dims.csv", "1,2,3\n1,2\n")
        code, _, err = run(capsys, "check", "--eps", "0.5", "--p", "2", "--input", path)
        assert code == 2
        assert ":2:" in err

    def test_eps_out_of_range_rejected(self, capsys, half_half_csv):
        code, _, _ = run(capsys, "check", "--eps", "1.5", "--p", "2", "--input", half_half_csv)
        assert code == 2

    def test_bad_p_token_rejected(self, capsys, half_half_csv):
        code, _, _ = run(capsys, "check", "--eps", "0.5", "--p", "1.2", "--input", half_half_csv)
        assert code == 2


class TestEpsmax:
    def test_unit_vectors_give_zero(self, capsys, tmp_path):
        path = write(tmp_path / "units.csv", "1,0,0\n0,1,0\n0,0,1\n")
        code, doc = run_json(capsys, "epsmax", "--p", "2", "--input", path)
        assert code == 0
        for row in doc["results"]["vectors"]:
            assert row["per_p"][0]["eps_max"] == 0.0

    def test_half_half_thresholds(self, capsys, half_half_csv):
        code, doc = run_json(capsys, "epsmax", "--p", "2,3,inf", "--input", half_half_csv)
        vals = [e["eps_max"] for e in doc["results"]["vectors"][0]["per_p"]]
        assert vals == pytest.approx([0.41421356237309504, 0.38648820956430937, 1 / 3], abs=1e-9)
        assert [e["p"] for e in doc["results"]["vectors"][0]["per_p"]] == [2.0, 3.0, "inf"]


class TestProject:
    def test_projects_vertex(self, capsys, tmp_path):
        path = write(tmp_path / "y.csv", "1,0,0\n")
        code, doc = run_json(
            capsys, "project", "--eps", "0.5", "--p", "inf", "--input", path
        )
        assert code == 0
        point = doc["results"]["points"][0]
        assert point["point"] == pytest.approx([0.5, 0.25, 0.25], abs=1e-8)
        assert point["residual"] <= 1e-8
        assert point["converged"] is True

    def test_negative_query_vectors_rejected(self, capsys, tmp_path):
        # the vector file format is nonnegative; only the library API takes
        # arbitrary real query points
        path = write(tmp_path / "y.csv", "1,-0.2,0\n")
        code, _, _ = run(capsys, "project", "--eps", "0.5", "--p", "2", "--input", path)
        assert code == 2

    @pytest.mark.parametrize("p", ["1e4", "1e6", "1e308"])
    def test_huge_exponents_return_optimal_points(self, tmp_path, p):
        rows = np.random.default_rng(7).standard_exponential((2, 50))
        path = write(tmp_path / "y.csv", "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        out = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        # a child process, so that a hang fails this test instead of stalling the suite
        proc = subprocess.run(
            [sys.executable, "-m", "fairctl", "project", "--eps", "0.5", "--p", p,
             "--input", path, "--out", str(out)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        for y, entry in zip(rows, json.loads(out.read_text())["results"]["points"]):
            assert entry["converged"] is True
            x = np.array(entry["point"])
            if p == "1e308":
                # n^(1/p) rounds to 1: the lp ball is the max-norm ball in floats
                assert np.abs(x - oracles.capped_simplex_projection(y, 0.5)).max() <= 1e-9
            else:
                assert oracles.fair_projection_kkt_residual(x, y, 0.5, float(p)) <= 1e-6


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--eps", "0.5", "--p", "2", "--tol", "-1"),
            ("project", "--eps", "0.5", "--p", "2", "--tol", "0"),
            ("project", "--eps", "0.5", "--p", "2", "--max-iter", "0"),
            ("solve", "--eps", "0.5", "--p", "2", "--tol", "inf"),
            ("solve", "--eps", "0.5", "--p", "2", "--step", "nan"),
            ("solve", "--eps", "0.5", "--p", "2", "--max-iter", "-3"),
            ("verify", "--tol", "nan"),
        ],
    )
    def test_bad_numeric_flag_names_the_flag(self, capsys, tmp_path, argv):
        path = write(tmp_path / "v.csv", "3,2,1\n")
        source = "--objective" if argv[0] == "solve" else "--input"
        extra = () if argv[0] == "verify" else (source, path)
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}" in err
        assert "Traceback" not in err


class TestSolve:
    def test_known_instance(self, capsys, c321_csv):
        code, doc = run_json(
            capsys, "solve", "--objective", c321_csv, "--eps", "0.5", "--p", "inf"
        )
        assert code == 0
        assert doc["results"]["objective_value"] == pytest.approx(2.5, abs=1e-6)
        assert doc["results"]["converged"] is True

    def test_objective_with_many_rows_rejected(self, capsys, tmp_path):
        path = write(tmp_path / "obj2.csv", "3,2,1\n1,1,1\n")
        code, _, _ = run(capsys, "solve", "--objective", path, "--eps", "0.5", "--p", "2")
        assert code == 2


class TestSweep:
    def test_three_point_grid_with_csv(self, capsys, tmp_path, c321_csv):
        out_csv = tmp_path / "front.csv"
        code, doc = run_json(
            capsys,
            "sweep",
            "--objective",
            c321_csv,
            "--p",
            "inf",
            "--eps-grid",
            "0:1:0.5",
            "--emit-csv",
            str(out_csv),
        )
        assert code == 0
        pts = doc["results"]["points"]
        assert [pt["epsilon"] for pt in pts] == [0.0, 0.5, 1.0]
        assert [pt["objective"] for pt in pts] == pytest.approx([3.0, 2.5, 2.0], abs=1e-6)
        assert pts[-1]["cv"] == pytest.approx(0.0, abs=1e-9)
        assert pts[-1]["cv_bound"] == 0.0

        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "epsilon,objective,cv,cv_bound"
        assert len(lines) == 4

    def test_csv_round_trip_precision(self, capsys, tmp_path, c321_csv):
        out_csv = tmp_path / "front.csv"
        _, doc = run_json(
            capsys,
            "sweep",
            "--objective",
            c321_csv,
            "--p",
            "2",
            "--eps-grid",
            "0.1:0.9:0.2",
            "--emit-csv",
            str(out_csv),
        )
        reported = [pt["objective"] for pt in doc["results"]["points"]]
        lines = out_csv.read_text().strip().splitlines()[1:]
        parsed = [float(line.split(",")[1]) for line in lines]
        for a, b in zip(parsed, reported):
            assert abs(a - b) <= 1e-15 * max(abs(b), 1.0)

    def test_bad_grid_rejected(self, capsys, c321_csv):
        for grid in ("0:1", "0.5:0.1:0.1", "0:1.5:0.5", "a:b:c"):
            code, _, _ = run(
                capsys, "sweep", "--objective", c321_csv, "--p", "2", "--eps-grid", grid
            )
            assert code == 2

    def test_objective_may_have_negative_coefficients(self, capsys, tmp_path):
        path = write(tmp_path / "neg_obj.csv", "-1,2,0.5\n")
        code, doc = run_json(
            capsys, "sweep", "--objective", path, "--p", "inf", "--eps-grid", "0:1:0.5"
        )
        assert code == 0
        assert doc["results"]["points"][0]["objective"] == pytest.approx(2.0, abs=1e-6)


class TestVerify:
    def test_small_clean_run(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "corner,eps-nesting", "--samples", "200",
            "--seed", "5",
        )
        assert code == 0
        assert doc["seed"] == 5
        assert doc["results"]["all_passed"] is True
        assert [s["name"] for s in doc["results"]["suites"]] == ["corner", "eps-nesting"]

    def test_unknown_suite_name(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_output_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "verify", "--suite", "f-decreasing", "--samples", "300",
                "--seed", "11", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FAIRCTL_SEED", "123")
        _, doc = run_json(capsys, "verify", "--suite", "corner", "--samples", "50")
        assert doc["seed"] == 123
        # explicit flag wins over the environment
        _, doc = run_json(
            capsys, "verify", "--suite", "corner", "--samples", "50", "--seed", "9"
        )
        assert doc["seed"] == 9

    def test_empty_dimension_list_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--n-values", "", "--samples", "10")
        assert code == 2
        assert out == ""
        assert "dimension" in err

    def test_suites_with_nothing_checked_do_not_pass(self, capsys):
        # with p = inf alone, suites that need a finite exponent or a pair check nothing
        code, doc = run_json(capsys, "verify", "--p-chain", "inf", "--samples", "10")
        assert code == 1
        suites = doc["results"]["suites"]
        assert any(s["checked"] == 0 for s in suites)
        assert all(s["passed"] == (s["checked"] > 0 and s["failures"] == 0) for s in suites)
        assert doc["results"]["all_passed"] is False

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FAIRCTL_SEED", "not-a-number")
        code, _, _ = run(capsys, "verify", "--suite", "corner", "--samples", "50")
        assert code == 2


class TestReportShape:
    def test_top_level_key_order(self, capsys, half_half_csv):
        code, out, _ = run(
            capsys, "check", "--eps", "0.3", "--p", "2", "--input", half_half_csv
        )
        doc = json.loads(out)
        assert list(doc) == ["command", "inputs", "results", "version"]

    def test_verify_includes_seed_key(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "corner", "--samples", "50")
        doc = json.loads(out)
        assert list(doc) == ["command", "inputs", "results", "seed", "version"]

    def test_out_flag_writes_file(self, capsys, tmp_path, half_half_csv):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "--eps", "0", "--p", "2", "--input", half_half_csv,
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "check"

    def test_json_floats_round_trip(self, capsys, half_half_csv):
        _, out, _ = run(
            capsys, "epsmax", "--p", "2,3", "--input", half_half_csv
        )
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        a = doc["results"]["vectors"][0]["per_p"][0]["eps_max"]
        b = again["results"]["vectors"][0]["per_p"][0]["eps_max"]
        assert a == b

    def test_missing_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["check", "--nope"]) == 2
