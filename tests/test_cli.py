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
from fairctl.core import _row_fault

import oracles


_DATA = Path(__file__).resolve().parent / "data"

#: check and epsmax at --p 4,2,inf,2 on tests/data/dispersion.csv: the command, its exit status and the
#: sha256 of its report
_SCREEN_PINS = [
    (["check", "--eps", "0.45"], 1, "020094be1ba48c4f54d3adc41e3c2f69450d3af9bd5e0fa593d65060eef1ab99"),
    (["epsmax"], 0, "3e0ca2ec751bd41dec4d10b43c53caef9f2a5d75e46e9269e8ed0567639e6126"),
]
_SCREEN_ARGS = ["--p", "4,2,inf,2", "--input", "tests/data/dispersion.csv"]
#: project on tests/data/points.csv, and solve and sweep on tests/data/objective.csv: the command and the
#: sha256 of its report
_OPTIMIZE_IDS = ["project", "project-p2", "project-p4", "solve", "sweep", "sweep-p2", "solve-pinf"]
_OPTIMIZE_PINS = [
    (
        ["project", "--eps", "0.5", "--p", "inf", "--input", "tests/data/points.csv"],
        "45e5164c5ea7035ec06ec0508ae4234dda0d6a0eb819bb3d2bb35375c6ef431e",
    ),
    (
        ["project", "--eps", "0.5", "--p", "2", "--input", "tests/data/points.csv"],
        "ce155c134c31893b638393f8d3b6fdf6de56f420bc3daf2e370974480b50b5ad",
    ),
    (
        ["project", "--eps", "0.5", "--p", "4", "--input", "tests/data/points.csv"],
        "6bd935d2118dba0abdf553d085a00a81c54050e7d4b5dd659f86163f2677f5e9",
    ),
    (
        ["solve", "--eps", "0.5", "--p", "2", "--objective", "tests/data/objective.csv"],
        "e7b78d6ebb0dec837a965351b7499f5985048280f699b5a0264c51dfc1b3e5da",
    ),
    (
        ["sweep", "--p", "inf", "--eps-grid", "0:1:0.125", "--objective", "tests/data/objective.csv"],
        "d621364db638f8a0543b66869b6878c1af71fe37ea776b993418d95707ee6551",
    ),
    (
        ["sweep", "--p", "2", "--eps-grid", "0:1:0.125", "--objective", "tests/data/objective.csv"],
        "de64fa1aca1a3f83548d02a5f01fe7aa3e0c0b8a41d5cc042b39e5fba84a4288",
    ),
    (
        ["solve", "--eps", "0.5", "--p", "inf", "--objective", "tests/data/objective.csv"],
        "0f6f150735f368c293acfc464532f66188db54a26e7d8ba208ba5f2a942aa411",
    ),
]


def _copy_inputs(root, edit):
    """root, holding copies of the pinned inputs with each line, its ending dropped, written as edit(line).

    The reports echo --input and --objective, so the copies sit at the same
    relative path, tests/data.
    """
    folder = root / "tests" / "data"
    folder.mkdir(parents=True)
    for name in ("dispersion.csv", "points.csv", "objective.csv"):
        lines = (_DATA / name).read_text(encoding="utf-8").splitlines()
        (folder / name).write_bytes("".join(map(edit, lines)).encode("utf-8"))
    return root


def _comment_free(line):
    return "" if line.startswith("#") else line + "\n"


def _crlf_variant(line):
    """CI's copy: CRLF endings, indented comments, and a blank and a whitespace-only line after each line."""
    return ("  \t" if line.startswith("#") else "") + line + "\r\n\r\n \t \r\n"


#: where each pinned input set is read from, by id: the repository itself, or copies made under a folder
_INPUT_SETS = {
    "commented": lambda folder: Path(__file__).resolve().parents[1],
    "comment-free": lambda folder: _copy_inputs(folder, _comment_free),
    "crlf-variant": lambda folder: _copy_inputs(folder, _crlf_variant),
}


def _assert_the_pins_hold(capsys, monkeypatch, tmp_path, root):
    """The nine check, epsmax, project, solve and sweep reports, run from root, have their pinned bytes."""
    monkeypatch.chdir(root)
    runs = [([*command, *_SCREEN_ARGS], status, digest) for command, status, digest in _SCREEN_PINS]
    runs += [(argv, 0, digest) for argv, digest in _OPTIMIZE_PINS]
    for argv, status, digest in runs:
        out = tmp_path / "report.json"
        assert run(capsys, *argv, "--out", str(out)) == (status, "", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def _forbid_the_line_reader(monkeypatch):
    def line_reader(path, *args):
        raise AssertionError(f"{path} went to the line reader")

    monkeypatch.setattr(cli, "_parse_lines", line_reader)


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

    @pytest.mark.parametrize("command, status, digest", _SCREEN_PINS)
    def test_report_bytes_are_pinned(self, capsys, tmp_path, monkeypatch, command, status, digest):
        # dense, sparse, near-uniform, nine-decade, vertex and uniform rows and
        # one whose sum overflows, at an unsorted chain with a repeated
        # exponent; the report echoes --input, so it is the same path from the
        # repository root wherever the tests run
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, *command, *_SCREEN_ARGS, "--out", str(out))
        assert code == status
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", _OPTIMIZE_PINS, ids=_OPTIMIZE_IDS)
    def test_optimize_report_bytes_are_pinned(self, capsys, tmp_path, monkeypatch, argv, digest):
        # spread, vertex, uniform and six-decade rows, and one objective with
        # negative and tied coefficients; the sort and closed-form paths, and
        # the p = 4 Newton iteration, whose bytes rest on pow as the verify pins do
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_comment_free_copies_give_the_pinned_reports(self, capsys, tmp_path, monkeypatch):
        # copies of the pinned inputs without their comment lines, which numpy's
        # reader reads as they are, must give the pinned bytes without the line reader
        _forbid_the_line_reader(monkeypatch)
        _assert_the_pins_hold(capsys, monkeypatch, tmp_path, _INPUT_SETS["comment-free"](tmp_path))

    @pytest.mark.parametrize("inputs", ["commented", "crlf-variant"])
    def test_numpy_reads_commented_inputs_to_the_pinned_reports(self, capsys, tmp_path, monkeypatch, inputs):
        # the pinned inputs, and CI's copy with CRLF endings, indented comments and
        # blank and whitespace-only lines, lose those lines before numpy's reader
        _forbid_the_line_reader(monkeypatch)
        _assert_the_pins_hold(capsys, monkeypatch, tmp_path, _INPUT_SETS[inputs](tmp_path))

    @pytest.mark.parametrize("inputs", list(_INPUT_SETS))
    def test_line_reader_gives_the_pinned_reports(self, capsys, tmp_path, monkeypatch, inputs):
        # numpy refuses every text, so every input goes to the line reader
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(cli.np, "loadtxt", refuse)
        _assert_the_pins_hold(capsys, monkeypatch, tmp_path, _INPUT_SETS[inputs](tmp_path))


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
            ("verify", "--n-values", "3,3"),
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

    def test_objective_near_the_float_limit_in_a_child_process(self):
        # a child process, so that numpy's warnings would reach its stderr; c - mu overflowed here
        wide = str(Path(__file__).parent / "data" / "wide_objective.csv")
        argvs = [f"solve --eps {eps} --p {p}" for p in ("2", "4", "10", "inf") for eps in ("0.5", "0.75")]
        argvs += [f"sweep --eps-grid 0:1:0.25 --p {p}" for p in ("2", "4", "inf")]
        code = "import sys\nfrom fairctl.cli import main\nsys.exit(max(main(line.split()) for line in sys.stdin))\n"
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input="".join(f"{argv} --objective {wide}\n" for argv in argvs),
            env=env, capture_output=True, text=True, timeout=60,
        )
        # exit 0: every solve and every sweep point converged, and every report was finite
        assert (proc.returncode, proc.stderr) == (0, "")

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
            ("42", "3b2c047a23f30ad3a4779d3b8edce41932ef4538cab22cdea2d63088bd07d349"),
            ("7", "553a1daa1a7540a1e1b9c11d4d8ca9059af4ef08fe8eb8e97ffce72f7ffb9647"),
        ],
    )
    def test_full_report_bytes_are_pinned(self, capsys, tmp_path, seed, digest):
        # the suites of each dimension check one shared plain and one shared excluded block;
        # a change to the row kernels, the sampling, the suites or the JSON writer must keep these bytes
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "10000", "--seed", seed,
            "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_report_bytes_are_pinned_at_an_odd_shape(self, capsys, tmp_path):
        # rows longer than the column kernels take, a two-entry dimension, a
        # fractional exponent and an unsorted dimension list
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "3000", "--n-values", "130,2,7",
            "--p-chain", "2,3.5,60,inf", "--seed", "42", "--out", str(out),
        )
        assert code == 0
        digest = "99162227eca4de2f594175c08f29b753e1e0c6f79887e27408b9e38518cb22ca"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_nan_margins_fail_without_warnings(self, capsys, recwarn):
        # x^1000 underflows to 0 in 200 dimensions, so weights are 0/0
        code, doc = run_json(
            capsys, "verify", "--suite", "entropy-identity,entropy-sandwich", "--samples", "200",
            "--n-values", "200", "--p-chain", "2,1000",
        )
        assert code == 1
        assert doc["results"]["all_passed"] is False
        margins = [e["margin"] for s in doc["results"]["suites"] for e in s["counterexamples"]]
        assert None in margins
        assert all(s["failures"] > 0 for s in doc["results"]["suites"])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

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

    def test_a_workspace_too_large_to_allocate_exits_two(self, capsys):
        # (10^15 + 1) * 2 float64 slots are 16 PB each, past a 2^47-byte address space: nothing is reserved
        code, out, err = run(capsys, "verify", "--suite", "corner", "--samples", "1000000000000000", "--n-values", "2")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("fairctl: error: Unable to allocate ")


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

    @pytest.mark.parametrize("command", ["epsmax-1", "epsmax-2000", "verify"])
    def test_a_reader_that_closes_first_gets_one_error_line(self, tmp_path, command):
        # fairctl ... | head -1: the pipe's read end is closed before the command writes. A report of a
        # few kB fails at the flush, a long one inside the write, and neither may fail again at exit
        if command == "verify":
            argv = ["verify", "--samples", "50"]
        else:
            rows = int(command.split("-")[1])
            argv = ["epsmax", "--p", "2", "--input", write(tmp_path / "v.csv", "0.5,0.5,0,0\n" * rows)]
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        read, sink = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fairctl", *argv], stdout=sink, stderr=subprocess.PIPE,
                env=env, text=True, timeout=60,
            )
        finally:
            os.close(sink)
        assert proc.returncode == 2
        assert proc.stderr == "fairctl: error: cannot write the report to stdout: [Errno 32] Broken pipe\n"

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
    ["", "p", 'a "quoted" key', "back\\slash", "\x00\x1f\t\n\x7f", "\u00e9\u4e2d\U0001f600", "\ud800", 'ends "\x00']
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


# a report that holds a _Table cannot hold the string that marks a table's place
_plain_text = _text.filter(lambda s: s != cli._SLOT)
_plain = _scalars.filter(lambda v: v != cli._SLOT)


def _column(k):
    """The columns a _Table takes for k rows: a range, a 1-D int, float or bool array, or a (k, m) float array."""
    floats = lambda size: st.lists(_finite, min_size=size, max_size=size).map(np.array)
    return st.one_of(
        st.integers(-3, 3).map(lambda start: range(start, start + k)),
        floats(k),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=k, max_size=k).map(lambda v: np.array(v, np.int64)),
        st.lists(st.booleans(), min_size=k, max_size=k).map(np.array),
        st.integers(1, 4).flatmap(lambda m: floats(k * m).map(lambda a: a.reshape(k, m))),
    )


def _row_at(row, i):
    """Row i of a _Table's row: each column replaced by its i-th item."""
    if isinstance(row, dict):
        return {key: _row_at(item, i) for key, item in row.items()}
    if isinstance(row, list):
        return [_row_at(item, i) for item in row]
    if isinstance(row, range):
        return row[i]
    return row[i].tolist() if isinstance(row, np.ndarray) else row


def _table_rows(k):
    """_Table rows for k rows: dicts of constants and columns, nested in lists and dicts, with at least one column."""
    leaves = _plain | _column(k) | _column(k)
    nested = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_plain_text, inner, max_size=3),
        max_leaves=6,
    )
    return st.tuples(st.dictionaries(_plain_text, nested, max_size=5), _plain_text, _column(k)).map(
        lambda drawn: {**drawn[0], drawn[1]: drawn[2]}
    )


_TABLE_ROWS = {k: _table_rows(k) for k in range(1, 5)}


@st.composite
def _tables(draw):
    """A _Table of k rows, with the k dicts json.dumps should write for it."""
    k = draw(st.integers(1, 4))
    row = draw(_TABLE_ROWS[k])
    return cli._Table(row), [_row_at(row, i) for i in range(k)]


def _pairs(inner):
    """Lists, tuples and dicts of (document, expanded document) pairs, as one such pair."""
    unzip = lambda pairs: ([a for a, _ in pairs], [b for _, b in pairs])
    return (
        st.lists(inner, max_size=5).map(unzip)
        | st.lists(inner, max_size=3).map(lambda pairs: tuple(map(tuple, unzip(pairs))))
        | st.dictionaries(_plain_text, inner, max_size=5).map(
            lambda d: tuple(dict(zip(d, half)) for half in unzip(list(d.values())))
        )
    )


# documents with _Tables at any depth, each beside the document json.dumps should write for it
_documents = st.recursive(_plain.map(lambda v: (v, v)) | _tables() | _tables(), _pairs, max_leaves=12).filter(
    lambda pair: pair[0] != pair[1]  # a _Table never equals its rows, so each document kept holds one
)


class TestJsonWriter:
    @settings(max_examples=300)
    @given(_reports)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json_text(value) == _dumps(value)

    @settings(max_examples=150, deadline=None)
    @given(_documents)
    def test_tables_anywhere_give_json_dumps_text(self, pair):
        document, expanded = pair
        assert cli._json_text(document) == _dumps(expanded)

    @pytest.mark.parametrize("place", [lambda s: [s], lambda s: {s: 1}], ids=["value", "key"])
    def test_a_string_holding_the_marker_text_beside_a_table(self, place):
        # the string's JSON text ends in the marker's, after the backslash of its escaped quote
        quoted = 'ends "\x00'
        table = cli._Table({"a": range(2), "b": [quoted]})
        rows = [{"a": i, "b": [quoted]} for i in range(2)]
        assert cli._json_text([table, place(quoted)]) == _dumps([rows, place(quoted)])

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

    @pytest.mark.parametrize("p", ["2", "4", "inf"])
    @pytest.mark.parametrize("command", ["project", "sweep"])
    def test_point_rows_are_json_dumps_of_the_results(self, capsys, tmp_path, command, p):
        """The points list has the bytes json.dumps writes for one dict per project_fair_region or sweep point."""
        if command == "project":
            path = write(tmp_path / "50%s é.csv", "0.5,0.5,0,0\n1e-12,3,2.5,7\n1,1,1,1.000001\n")
            argv = ["project", "--eps", "0.5", "--p", p, "--input", path]
            spec = fairctl.FairnessSpec(0.5, float(p))
            results = [fairctl.project_fair_region(y, spec) for y in np.loadtxt(path, delimiter=",", ndmin=2)]
            points = [
                {
                    "index": i,
                    "point": res.point.values.tolist(),
                    "iterations": res.iterations,
                    "residual": res.residual,
                    "converged": res.converged,
                }
                for i, res in enumerate(results)
            ]
        else:
            path = write(tmp_path / "obj %s.csv", "3,-2.5,1e-9,0.7\n")
            argv = ["sweep", "--p", p, "--eps-grid", "0:1:0.25", "--objective", path]
            objective = fairctl.ObjectiveSpec(np.array([3, -2.5, 1e-9, 0.7]))
            points = [
                {
                    "epsilon": pt.epsilon,
                    "objective": pt.objective_value,
                    "cv": pt.cv,
                    "cv_bound": pt.cv_bound,
                    "converged": pt.converged,
                }
                for pt in fairctl.pareto_sweep(objective, float(p), eps_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
            ]
        code, out, err = run(capsys, *argv)
        expected = json.loads(out)
        expected["results"]["points"] = points
        assert (code, out, err) == (0, json.dumps(expected, indent=2) + "\n", "")

    @pytest.mark.parametrize("command", ["project", "sweep"])
    def test_nan_in_a_point_exits_two(self, capsys, monkeypatch, tmp_path, command):
        # a NaN residual of the second projected row, or a NaN cv of the second sweep point
        if command == "project":
            real = cli.project_fair_region

            def planted(*args, **kwargs):
                res = real(*args, **kwargs)
                residuals = res.residuals.copy()
                residuals[1] = math.nan
                return dataclasses.replace(res, residuals=residuals)

            path = write(tmp_path / "vec.csv", "1,2,3\n4,5,6\n7,8,9\n")
            argv = ["project", "--eps", "0.5", "--p", "inf", "--input", path]
        else:
            real = cli.pareto_sweep

            def planted(*args, **kwargs):
                points = real(*args, **kwargs)
                return [dataclasses.replace(pt, cv=math.nan) if k == 1 else pt for k, pt in enumerate(points)]

            path = write(tmp_path / "obj.csv", "3,2,1\n")
            argv = ["sweep", "--p", "inf", "--eps-grid", "0:1:0.5", "--objective", path]
        monkeypatch.setattr(cli, real.__name__, planted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "not JSON compliant: nan" in err


def _reference_read_rows(path, nonneg=True, positive=False):
    """A line-by-line reader written apart from cli's, kept as the reference for _read_rows' results and messages.

    It reads lines with readlines, stops at the first line of a bad shape,
    and checks the rows before it as one array before that line's own entries.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}")
    rows = []
    linenos = []
    shape_error = None  # (line number, message, its values if it parsed)
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError:
            shape_error = (lineno, "malformed CSV row", None)
            break
        if len(values) < 2:
            shape_error = (lineno, "vectors need at least 2 entries", values)
            break
        if rows and len(values) != len(rows[0]):
            message = f"inconsistent dimension {len(values)} (expected {len(rows[0])})"
            shape_error = (lineno, message, values)
            break
        rows.append(values)
        linenos.append(lineno)
    array = np.array(rows, dtype=float)
    found = _row_fault(array, nonneg, positive) if rows else None
    if found is not None:
        raise ValueError(f"{path}:{linenos[found[0]]}: {found[1]}")
    if shape_error is not None:
        lineno, message, values = shape_error
        found = None if values is None else _row_fault(np.array(values), nonneg, positive)
        raise ValueError(f"{path}:{lineno}: {message if found is None else found[1]}")
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return array


def _read_outcome(read, path, nonneg, positive):
    try:
        rows = read(path, nonneg, positive)
    except ValueError as exc:
        return str(exc)
    return rows.dtype, rows.shape, rows.strides, rows.flags.c_contiguous, rows.tobytes()


def _assert_read_like_the_line_reader(path):
    # (nonneg, positive) of check and epsmax, of project, and of an objective
    for mode in [(True, True), (True, False), (False, False)]:
        assert _read_outcome(cli._read_rows, path, *mode) == _read_outcome(_reference_read_rows, path, *mode)


# whitespace that str.strip removes but that does not end a line of a text file
_blank = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028"), max_size=3)
_valid_entry = st.sampled_from(["0", "1", "2.5", "1e-300", "1.7e308", " 7 ", "\x0c3", "4\u2028", "1_0"])
_entry = st.one_of(
    _valid_entry,
    _valid_entry,
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", "-1", "-0", "0x1", "oops", "1e999"]),
)
# a UTF-8 file cannot hold a lone surrogate (category Cs); undecodable bytes have their own test
_comment = st.text(st.characters(exclude_characters="\r\n", exclude_categories=["Cs"]), max_size=6).map(
    "#".__add__
)
_line_kinds = st.sampled_from(["row", "row", "row", "ragged", "zero", "comment", "blank"])


@st.composite
def _csv_texts(draw):
    """Texts of rows of one width, ragged rows, zero rows, comments and blank or whitespace-only lines,
    each line ended by LF, CRLF or a lone CR, the last ones maybe by nothing."""
    n = draw(st.sampled_from([1, 2, 3, 3, 4]))
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(_line_kinds)
        width = draw(st.integers(1, 5)) if kind == "ragged" else n
        if kind in ("row", "ragged"):
            body = ",".join(draw(_entry) for _ in range(width))
        else:
            body = {"zero": ",".join(["0"] * n), "comment": draw(_comment), "blank": ""}[kind]
        text += draw(_blank) + body + draw(_blank) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


class TestReadRows:
    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("read") / "rows.csv"

    @settings(max_examples=400)
    @given(text=_csv_texts())
    def test_same_rows_or_message_as_the_line_reader(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        _assert_read_like_the_line_reader(str(csv_path))

    @pytest.mark.parametrize(
        "text",
        [
            "1_0,2\n",  # float() reads both, numpy refuses them
            "\uff11,\uff12\n",
            "1,2 # note\n",
            "1,2\n# a comment\n",
            "",
            " \t\n  \n",
            "1\n2\n",
            "nan,1\n",
            "1,2\n3,4,5\n",
            "1,2,\n",
            "1,2\n# c\n3,4\n",
            "# c\n1,2 # note\n",
            "# c\n1\n2\n",
            "# c\n1,2\n3,4,5\n",
        ],
        ids=[
            "underscore",
            "fullwidth",
            "trailing-comment",
            "comment-line",
            "empty",
            "blank",
            "one-column",
            "nan",
            "ragged",
            "trailing-comma",
            "comment-between-rows",
            "comment-then-trailing-comment",
            "comment-then-one-column",
            "comment-then-ragged",
        ],
    )
    def test_texts_numpy_refuses_or_never_sees(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8")
        _assert_read_like_the_line_reader(str(csv_path))

    @pytest.mark.parametrize(
        "text", ["", "\n\n", " \t\n\n", "# c\n  # d\n\n"], ids=["empty", "newlines-only", "blank", "comments-only"]
    )
    def test_empty_file_writes_only_its_error(self, capfd, recwarn, tmp_path, text):
        path = write(tmp_path / "empty.csv", text)
        assert main(["check", "--eps", "0.5", "--p", "2", "--input", path]) == 2
        assert capfd.readouterr() == ("", f"fairctl: error: {path}: no vectors found\n")
        assert not recwarn.list

    @pytest.mark.parametrize(
        "source, argv",
        [("--input", ("check", "--eps", "0.5", "--p", "2")), ("--objective", ("solve", "--eps", "0.5", "--p", "2"))],
        ids=["check", "solve"],
    )
    def test_undecodable_file_is_named(self, capsys, tmp_path, source, argv):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1,2,3\n\xff,4,5\n")
        code, out, err = run(capsys, *argv, source, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"fairctl: error: cannot read {str(path)!r}: ")
        assert "can't decode byte 0xff" in err

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, monkeypatch):
        # the report echoes --input, so both files are read by the same relative name
        original = _DATA / "dispersion.csv"
        reports = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / f"bom{len(prefix)}"
            folder.mkdir()
            (folder / "dispersion.csv").write_bytes(prefix + original.read_bytes())
            monkeypatch.chdir(folder)
            code, out, err = run(capsys, "check", "--eps", "0.45", "--p", "4,2,inf,2", "--input", "dispersion.csv")
            assert (code, err) == (1, "")
            reports.append(out)
        assert reports[0] == reports[1]
