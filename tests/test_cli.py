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
    def test_zero_row_names_its_index(self, capsys, tmp_path, command):
        path = write(tmp_path / "z.csv", "1,2,3\n# comment\n0,0,0\n4,5,6\n")
        code, out, err = run(capsys, *command, "--p", "2", "--input", path)
        assert code == 2
        assert out == ""
        assert "vector 1" in err

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

    def test_report_carries_the_duality_gap(self, capsys, c321_csv):
        code, doc = run_json(
            capsys, "solve", "--objective", c321_csv, "--eps", "0.5", "--p", "4"
        )
        assert code == 0
        res = doc["results"]
        assert res["converged"] is True
        assert 0.0 <= res["duality_gap"] <= doc["inputs"]["tol"] + 1e-15
        assert "step" not in doc["inputs"]

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
