import dataclasses
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairctl
from fairctl import __version__
from fairctl import cli
from fairctl.cli import MAX_GRID_POINTS, main

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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1,2,3\n1,-2,3\n1,nan,3\n", 2, "nonnegative"),
            ("1,2,3\n1,inf,3\n1,-2,3\n", 2, "finite"),
            ("1,2,3\n1,-2,3\n1,oops,3\n", 2, "nonnegative"),
            ("1,2,3\n1,2,3\n1,nan\n", 3, "finite"),
            ("1,2,3\n1,oops,3\n1,-2,3\n", 2, "malformed"),
            ("1,2,3\n0,0,0\n1,-2,3\n", 2, "zero vector"),
        ],
    )
    def test_first_bad_line_is_named(self, capsys, tmp_path, text, line, message):
        # two bad lines of different kinds: the error names the earlier one
        path = write(tmp_path / "bad.csv", text)
        code, _, err = run(capsys, "check", "--eps", "0.5", "--p", "2", "--input", path)
        assert code == 2
        assert f"bad.csv:{line}: " in err
        assert message in err

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

    @pytest.mark.parametrize("argv", [["check", "--eps", "0.3"], ["epsmax"]], ids=lambda argv: argv[0])
    def test_row_whose_sum_overflows_reads_as_its_scaled_self(self, capsys, tmp_path, argv):
        reports = []
        for name, text in (("huge.csv", "1e308,1e308,1\n"), ("small.csv", "1,1,0\n")):
            code, out, err = run(capsys, *argv, "--p", "2,3.5,inf", "--input", write(tmp_path / name, text))
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["results"]["vectors"][0])
        huge, small = reports
        assert huge.keys() == small.keys()
        for key in {"cv", "mean"} & small.keys():
            assert huge[key] == pytest.approx(small[key], abs=1e-15)
        for got, want in zip(huge["per_p"], small["per_p"], strict=True):
            assert got["eps_max"] == pytest.approx(want["eps_max"], abs=1e-15)
            assert {**got, "eps_max": 0} == {**want, "eps_max": 0}


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


class TestBatchedRows:
    @pytest.mark.parametrize("command", [["check", "--eps", "0.5"], ["epsmax"]])
    def test_zero_row_names_its_line(self, capsys, tmp_path, command):
        path = write(tmp_path / "z.csv", "1,2,3\n# comment\n0,0,0\n4,5,6\n")
        code, out, err = run(capsys, *command, "--p", "2", "--input", path)
        assert code == 2
        assert out == ""
        assert "z.csv:3: the zero vector is not accepted" in err

    def test_reports_equal_the_scalar_functions_bit_for_bit(self, capsys, tmp_path):
        rng = np.random.default_rng(2024)
        dense = rng.standard_exponential((150, 7))
        sparse = np.where(rng.random((150, 7)) < 0.4, 0.0, dense)
        sparse[:, 3] += 0.5
        wide = 10.0 ** rng.uniform(-12.0, 3.0, size=(150, 7))
        rows = np.vstack([dense, sparse, wide])
        path = write(tmp_path / "rows.csv", "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        ps = [2.0, 3.0, 4.0, math.inf]
        _, check = run_json(capsys, "check", "--eps", "0.35", "--p", "2,3,4,inf", "--input", path)
        _, epsmax = run_json(capsys, "epsmax", "--p", "2,3,4,inf", "--input", path)
        verdicts = set()
        pairs = zip(rows, check["results"]["vectors"], epsmax["results"]["vectors"])
        for row, checked, thresholds in pairs:
            x = fairctl.SimplexVector(row / row.sum())
            assert checked["cv"] == fairctl.coefficient_of_variation(x)
            for p, entry, threshold in zip(ps, checked["per_p"], thresholds["per_p"]):
                spec = fairctl.FairnessSpec(0.35, p)
                assert entry["eps_max"] == threshold["eps_max"] == fairctl.eps_max(x, p)
                assert entry["member"] is fairctl.is_fair(x, spec)
                assert entry["cv_bound"] == fairctl.cv_bound(x.n, spec)
                verdicts.add(entry["member"])
        assert verdicts == {True, False}


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

    @pytest.mark.parametrize("p", ["2", "4", "inf"])
    def test_entries_past_2_53_project(self, capsys, tmp_path, p):
        path = write(tmp_path / "y.csv", "1e17,0,0\n")
        code, doc = run_json(capsys, "project", "--eps", "0.5", "--p", p, "--input", path)
        assert code == 0
        assert doc["results"]["points"][0]["converged"] is True

    def test_row_offset_by_1e8_converges_in_few_evaluations(self, capsys, tmp_path):
        path = write(tmp_path / "y.csv", "100000000.5,100000000.1,100000000.9,100000000.3\n")
        code, doc = run_json(capsys, "project", "--eps", "0.5", "--p", "10", "--input", path)
        assert code == 0
        point = doc["results"]["points"][0]
        assert point["converged"] is True
        assert point["iterations"] <= 50

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
            ("solve", "--eps", "0.5", "--p", "2", "--tol", "nan"),
            ("solve", "--eps", "0.5", "--p", "2", "--max-iter", "-3"),
            ("verify", "--tol", "nan"),
            ("check", "--p", "2", "--eps", "1.5"),
            ("check", "--eps", "0.5", "--p", "1.2"),
            ("epsmax", "--p", ""),
            ("sweep", "--p", "2", "--eps-grid", "0:2:0.5"),
            ("verify", "--n-values", "1,x"),
            ("verify", "--p-chain", "nan"),
            ("verify", "--samples", "0"),
            ("verify", "--n-values", "1"),
            ("verify", "--suite", "bogus"),
            ("verify", "--suite", ","),
            ("verify", "--seed", "-1"),
            ("verify", "--p-chain", "2,2,inf"),
            ("verify", "--p-chain", ","),
        ],
    )
    def test_bad_numeric_flag_names_the_flag(self, capsys, tmp_path, argv):
        path = write(tmp_path / "v.csv", "3,2,1\n")
        source = "--objective" if argv[0] in ("solve", "sweep") else "--input"
        extra = () if argv[0] == "verify" else (source, path)
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["project", "solve"])
    def test_valid_tolerance_and_cap_are_used_and_echoed(self, capsys, tmp_path, command):
        path = write(tmp_path / "v.csv", "3,2,1\n")
        source = "--objective" if command == "solve" else "--input"
        code, doc = run_json(
            capsys, command, "--eps", "0.5", "--p", "4", source, path, "--tol", "1e-6", "--max-iter", "50"
        )
        assert code == 0
        assert doc["inputs"]["tol"] == 1e-6
        assert doc["inputs"]["max_iter"] == 50

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (None, ("check", "--eps", "0.5", "--p", "2"), "cannot read"),
            ("# only a comment\n", ("check", "--eps", "0.5", "--p", "2"), "no vectors found"),
            ("5\n", ("check", "--eps", "0.5", "--p", "2"), "vectors need at least 2 entries"),
            ("3,2,1\n", ("sweep", "--p", "2", "--eps-grid", "0:1:0.00001"), "more than 10000 points"),
        ],
    )
    def test_input_errors_name_their_file_or_flag(self, capsys, tmp_path, text, argv, message):
        path = str(tmp_path / "in.csv") if text is None else write(tmp_path / "in.csv", text)
        source = "--objective" if argv[0] == "sweep" else "--input"
        code, out, err = run(capsys, *argv, source, path)
        assert code == 2
        assert out == ""
        assert message in err
        assert ("argument --eps-grid" if argv[0] == "sweep" else "in.csv") in err
        assert "Traceback" not in err


class TestSolve:
    def test_known_instance(self, capsys, c321_csv):
        code, doc = run_json(
            capsys, "solve", "--objective", c321_csv, "--eps", "0.5", "--p", "inf"
        )
        assert code == 0
        assert doc["results"]["objective_value"] == pytest.approx(2.5, abs=1e-6)
        assert doc["results"]["converged"] is True

    def test_report_carries_the_duality_gap(self, capsys, c321_csv):
        code, doc = run_json(
            capsys, "solve", "--objective", c321_csv, "--eps", "0.5", "--p", "4"
        )
        assert code == 0
        res = doc["results"]
        assert res["converged"] is True
        assert 0.0 <= res["duality_gap"] <= doc["inputs"]["tol"] + 1e-15
        assert "step" not in doc["inputs"]

    @pytest.mark.parametrize("p", ["2", "4", "inf"])
    def test_large_objective_converges_relative_to_its_size(self, capsys, tmp_path, p):
        # a gap of about 56 is 6e-16 of this objective
        path = write(tmp_path / "obj.csv", "1e17,0,0,3\n")
        code, doc = run_json(capsys, "solve", "--objective", path, "--eps", "0.5", "--p", p)
        assert code == 0
        assert doc["results"]["converged"] is True
        assert abs(doc["results"]["duality_gap"]) <= 1e-8 * 1e17

    def test_finite_p_converges_just_below_eps_one(self, capsys, tmp_path):
        path = write(tmp_path / "obj.csv", "0.3,-1,0.8,0.1\n")
        code, doc = run_json(capsys, "solve", "--objective", path, "--eps", "0.999999999999", "--p", "4")
        assert code == 0
        assert doc["results"]["converged"] is True
        bound = oracles.linear_max_dual_bound([0.3, -1.0, 0.8, 0.1], 0.999999999999, 4.0)
        assert abs(doc["results"]["objective_value"] - bound) <= 1e-8

    def test_step_flag_is_gone(self, capsys, c321_csv):
        code, out, err = run(
            capsys, "solve", "--objective", c321_csv, "--eps", "0.5", "--p", "2", "--step", "0.1"
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --step" in err

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

    @pytest.mark.parametrize("p", ["2", "4", "inf"])
    def test_large_objective_converges_relative_to_its_size(self, capsys, tmp_path, p):
        path = write(tmp_path / "obj.csv", "1e17,0,0,3\n")
        code, doc = run_json(capsys, "sweep", "--objective", path, "--p", p, "--eps-grid", "0:1:0.25")
        assert code == 0
        assert all(pt["converged"] for pt in doc["results"]["points"])

    def test_bad_grid_rejected(self, capsys, c321_csv):
        for grid in ("0:1", "0.5:0.1:0.1", "0:1.5:0.5", "a:b:c"):
            code, _, _ = run(
                capsys, "sweep", "--objective", c321_csv, "--p", "2", "--eps-grid", grid
            )
            assert code == 2

    def test_oversized_grid_rejected_before_it_is_built(self, tmp_path, c321_csv):
        # 0:1:1e-9 is a billion values; the child may map at most 1 GiB, so
        # building the list fails there instead of exhausting this machine
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from fairctl.cli import main\n"
            f"sys.exit(main(['sweep', '--objective', {c321_csv!r}, '--p', '2', "
            "'--eps-grid', '0:1:1e-9']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 2, proc.stderr
        assert f"more than {MAX_GRID_POINTS} points" in proc.stderr

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

    def test_suites_echoed_in_the_order_they_ran(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "lemma-a1,corner,corner", "--samples", "50")
        assert code == 0
        assert doc["inputs"]["suite"] == ["corner", "lemma-a1"]
        assert [s["name"] for s in doc["results"]["suites"]] == doc["inputs"]["suite"]

    def test_unknown_suite_name(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "bogus" in err
        code, out, err = run(capsys, "verify", "--suite", ",")
        assert code == 2
        assert out == ""
        assert "suite" in err

    def test_output_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "verify", "--suite", "f-decreasing", "--samples", "300",
                "--seed", "11", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("42", "e97a60e408177c8e69dd8778f1ce665d7a319f1c1b34ce5ddbd655c3563d22ea"),
            ("7", "92cebea0b617268f0e7fefbadbe93aba9b70186995baedd2afe32176adbb2093"),
        ],
    )
    def test_full_report_bytes_are_pinned(self, capsys, tmp_path, seed, digest):
        # a change to the row kernels, the suites or the JSON writer must keep these bytes
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "10000", "--seed", seed,
            "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_negative_env_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FAIRCTL_SEED", "-1")
        code, out, err = run(capsys, "verify", "--suite", "corner", "--samples", "50")
        assert code == 2
        assert out == ""
        assert "FAIRCTL_SEED: seed must be >= 0" in err
        assert "Traceback" not in err

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

    def test_parser_is_built_on_first_call_and_reused(self, tmp_path, half_half_csv):
        # not at import, so start-up pays nothing for it; errors and --version
        # leave the shared parser fit for the next call
        out = tmp_path / "report.json"
        code = (
            "import fairctl.cli as cli\n"
            "assert cli._shared_parser.cache_info().currsize == 0\n"
            "assert cli.main(['--version']) == 0\n"
            "assert cli.main(['check', '--nope']) == 2\n"
            f"assert cli.main(['epsmax', '--p', '2', '--input', {half_half_csv!r}, '--out', {str(out)!r}]) == 0\n"
            "assert cli.main(['--version']) == 0\n"
            "info = cli._shared_parser.cache_info()\n"
            "assert (info.misses, info.currsize) == (1, 1), info\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"fairctl {__version__}\n" * 2
        assert json.loads(out.read_text())["command"] == "epsmax"

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["check", "--nope"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--eps", "0.3", "--p", "2", "--input", "{vec}", "--out", "{bad}"],
            ["epsmax", "--p", "2", "--input", "{vec}", "--out", "{bad}"],
            ["project", "--eps", "0.5", "--p", "2", "--input", "{vec}", "--out", "{bad}"],
            ["solve", "--eps", "0.5", "--p", "2", "--objective", "{obj}", "--out", "{bad}"],
            ["sweep", "--p", "2", "--eps-grid", "0:1:0.5", "--objective", "{obj}", "--out", "{bad}"],
            ["sweep", "--p", "2", "--eps-grid", "0:1:0.5", "--objective", "{obj}", "--emit-csv", "{bad}"],
            ["verify", "--suite", "corner", "--samples", "50", "--out", "{bad}"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_unwritable_output_exits_two(self, capsys, tmp_path, half_half_csv, c321_csv, argv):
        bad = str(tmp_path / "missing" / "report")
        code, out, err = run(capsys, *(a.format(vec=half_half_csv, obj=c321_csv, bad=bad) for a in argv))
        assert (code, out) == (2, "")
        assert f"cannot write {bad!r}" in err
        assert "Traceback" not in err


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


# report-like values: every scalar json writes, nested in dicts, lists and tuples
_text = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", "p", 'a "quoted" key', "back\\slash", "\x00\x1f\t\n\x7f", "\u00e9\u4e2d\U0001f600", "\ud800"]
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = (
    _text
    | _finite
    | _finite.map(np.float64)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e308, -1e308, 0.1, 1 / 3])
    | st.integers()
    | st.sampled_from([0, -1, 2**70, -(2**70), _Level.LOW, _Level.HIGH])
    | st.booleans()
    | st.none()
)
_reports = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_text, inner, max_size=5),
    max_leaves=40,
)


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


class TestJsonWriter:
    @settings(max_examples=300)
    @given(_reports)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json_text(value) == _dumps(value)

    def test_non_str_keys_are_written_as_json_writes_them(self):
        # 1, 1.0 and True are equal keys with three different texts
        value = [{1: "a"}, {True: "b"}, {1.0: "c"}, {None: "d"}, {"1": "e"}, {False: [1]}, {2**70: {}}]
        assert cli._json_text(value) == _dumps(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize(
        "place", [lambda v: v, lambda v: [1, v], lambda v: {"a": [{"b": v}]}, lambda v: ({"k": (v,)},), lambda v: {v: 1}]
    )
    def test_nan_and_inf_raise_value_error(self, bad, place):
        with pytest.raises(ValueError):
            _dumps(place(bad))
        with pytest.raises(ValueError):
            cli._json_text(place(bad))

    @pytest.mark.parametrize(
        "value",
        [object(), {"a": [1, object()]}, [{1, 2}], {"a": np.int64(3)}, [b"bytes"], {(1, 2): 3}, {"a": np.bool_(True)}],
    )
    def test_unsupported_objects_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_report_with_nan_exits_two(self, capsys, monkeypatch, half_half_csv):
        monkeypatch.setitem(cli._COMMANDS, "epsmax", lambda args: ({"value": math.nan}, 0))
        code, out, err = run(capsys, "epsmax", "--p", "2", "--input", half_half_csv)
        assert (code, out) == (2, "")
        assert "not JSON compliant" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--eps", "0.3", "--p", "2,4,inf", "--input", "{vec}"],
            ["epsmax", "--p", "2,3.5,inf", "--input", "{vec}"],
            ["project", "--eps", "0.5", "--p", "4", "--input", "{vec}"],
            ["solve", "--eps", "0.5", "--p", "4", "--objective", "{obj}"],
            ["sweep", "--p", "inf", "--eps-grid", "0:1:0.25", "--objective", "{obj}"],
            ["verify", "--suite", "corner,inclusion", "--samples", "50", "--seed", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_bytes_equal_indented_json_dumps(self, capsys, tmp_path, argv):
        vec = write(tmp_path / "vec.csv", "0.5,0.5,0,0\n1e-12,3,2.5,7\n1,1,1,1.000001\n")
        obj = write(tmp_path / "obj.csv", "3,-2.5,1e-9,0.7\n")
        argv = [a.format(vec=vec, obj=obj) for a in argv]
        target = tmp_path / "report.json"
        code_file, out, _ = run(capsys, *argv, "--out", str(target))
        assert out == ""
        code_stdout, out, _ = run(capsys, *argv)
        assert code_file == code_stdout
        data = target.read_bytes()
        assert out.encode() == data
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()

    @pytest.mark.parametrize("p", ["2", "inf", "2,3.5,10,inf"])
    @pytest.mark.parametrize("command", ["check", "epsmax"])
    @pytest.mark.parametrize(
        "name, text, all_members",
        [
            ("vec.csv", "0.5,0.5,0,0\n1e-12,3,2.5,7\n1,1,1,1.000001\n", False),
            ("one.csv", "0.5,0.5,0,0\n", False),
            ("flat.csv", "1,1,1,1\n2,2,2,2.000000001\n0.5,0.5,0.5,0.25\n", True),
            ("50%s é.csv", "0.5,0.5,0,0\n1e-12,3,2.5,7\n1,1,1,1.000001\n", False),
        ],
        ids=["rows", "single-row", "all-member", "odd-path"],
    )
    def test_vector_rows_are_json_dumps_of_the_reports_arrays(
        self, capsys, tmp_path, p, command, name, text, all_members
    ):
        """The vectors list has the bytes json.dumps writes for one dict per row of dispersion_report."""
        path = write(tmp_path / name, text)
        eps = 0.5 if command == "check" else 0.0
        argv = [command, "--p", p, "--input", path] + (["--eps", str(eps)] if command == "check" else [])
        code, out, err = run(capsys, *argv)
        report = fairctl.dispersion_report(np.loadtxt(path, delimiter=",", ndmin=2), cli._exponents(p), eps)
        vectors = []
        for i in range(len(report.cv)):
            per_p = [{"p": "inf" if math.isinf(e.p) else e.p, "eps_max": float(e.eps_max[i])} for e in report.per_p]
            if command == "epsmax":
                vectors.append({"index": i, "per_p": per_p})
                continue
            for entry, e in zip(per_p, report.per_p):
                entry.update(member=bool(e.member[i]), cv_bound=e.cv_bound)
            member = all(entry["member"] for entry in per_p)
            cv, mean = float(report.cv[i]), float(report.mean[i])
            vectors.append({"index": i, "cv": cv, "mean": mean, "per_p": per_p, "member_all_p": member})
        expected = json.loads(out)
        assert expected["inputs"]["input"] == path
        expected["results"]["vectors"] = vectors
        assert (out, err) == (json.dumps(expected, indent=2) + "\n", "")
        assert code == (0 if command == "epsmax" or all_members else 1)

    @pytest.mark.parametrize("argv", [["check", "--eps", "0.3"], ["epsmax"]], ids=lambda argv: argv[0])
    def test_nan_eps_max_exits_two(self, capsys, monkeypatch, tmp_path, argv):
        real = cli.dispersion_report

        def planted(*args, **kwargs):
            report = real(*args, **kwargs)
            entry = report.per_p[-1]
            eps_max = entry.eps_max.copy()
            eps_max[1] = math.nan
            return dataclasses.replace(report, per_p=(*report.per_p[:-1], dataclasses.replace(entry, eps_max=eps_max)))

        monkeypatch.setattr(cli, "dispersion_report", planted)
        path = write(tmp_path / "vec.csv", "1,2,3\n4,5,6\n7,8,9\n")
        code, out, err = run(capsys, *argv, "--p", "2,inf", "--input", path)
        assert (code, out) == (2, "")
        assert "not JSON compliant: nan" in err
