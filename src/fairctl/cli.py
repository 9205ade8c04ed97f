"""Command-line front end: CSV vectors in, JSON reports out.

Exit codes are a stable contract: 0 for success or an all-pass verdict, 1
for a semantic negative (a non-member vector, a failed suite, a
non-converged solve), 2 for usage or input errors. Every report carries the
package version; the verify command echoes its seed, which can also be set
through the FAIRCTL_SEED environment variable.

Input errors exit 2 with a message on stderr. Flag values are judged while
the arguments are parsed, by the library's own checks, so the message names
the flag in the library's words; verify's flags and FAIRCTL_SEED are judged
by a VerifyConfig built from each alone. Defaults are the library's. A bad
CSV row, zero rows included, is named as file:line, and an input file that
cannot be read or an output file (--out, --emit-csv) that cannot be written
is named by its path.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .core import CONVERGENCE_TOL, _row_fault, check_exponent, check_iterations, check_tolerance
from .fairness import MEMBERSHIP_TOL, FairnessSpec, check_epsilon, dispersion_report
from .geometry import PROJECTION_MAX_ITER, project_fair_region
from .solver import SOLVE_MAX_ITER, ObjectiveSpec, pareto_sweep, solve
from .verifier import DEFAULT_N_VALUES, DEFAULT_P_CHAIN, SUITE_NAMES, VerifyConfig, _p_token, run_suite

#: Most epsilon values a sweep grid may hold; each one is a full solve.
MAX_GRID_POINTS = 10000


def _flag(parse):
    """An argparse type from parse: its ValueError becomes argparse's error, which names the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


@_flag
def _exponents(text: str) -> list[float]:
    ps = [check_exponent(token) for token in text.split(",") if token.strip()]
    if not ps:
        raise ValueError("exponent list is empty")
    return ps


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in _tokens(text))


def _suites(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return SUITE_NAMES
    return _tokens(text)


def _config_field(name: str, parse):
    """argparse type for one VerifyConfig field: parse reads the text, and a config built from it judges it."""
    return _flag(lambda text: getattr(VerifyConfig(**{name: parse(text)}), name))


_seed = _config_field("seed", int)


@_flag
def _eps_grid(text: str) -> list[float]:
    """start:stop:step as the epsilon values from start to stop, each within [0, 1]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"invalid grid {text!r}: expected start:stop:step")
    start, stop, step = (float(t) for t in parts)
    if not (step > 0 and stop >= start):
        raise ValueError(f"invalid grid {text!r}: need step > 0 and stop >= start")
    check_epsilon(start)
    check_epsilon(stop)
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"invalid grid {text!r}: more than {MAX_GRID_POINTS} points")
    return [min(start + k * step, 1.0) for k in range(math.floor(span) + 1)]


def _read_rows(path: str, nonneg: bool = True, positive: bool = False) -> np.ndarray:
    """Parse a vector CSV into a (rows, n) array: one vector per line, '#' lines are comments.

    The file is read once as UTF-8 (a leading byte-order mark dropped); one that
    cannot be opened or decoded is named by its path. Its data lines, blank and
    comment lines dropped from a text with a '#', go to numpy's C parser, whose
    float parse gives float's bits; the result stands when it has n >= 2 columns
    and no row breaks a rule. Else _parse_lines gives the result or the message.
    With positive, a row needs a positive entry.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path!r}: {exc}")
    data = text
    if "#" in text:
        data = "\n".join(line for line in text.split("\n") if (kept := line.strip()) and kept[0] != "#")
    # a blank text would only make numpy warn that it holds no data
    if data and not data.isspace():
        try:
            rows = np.loadtxt(io.StringIO(data), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape[1] >= 2 and _row_fault(rows, nonneg, positive) is None:
                return rows
    return _parse_lines(path, text, nonneg, positive)


def _parse_lines(path: str, text: str, nonneg: bool, positive: bool) -> np.ndarray:
    """_read_rows on the file's text, line by line: blank and comment lines skipped, the first bad line named.

    A line's error, path:line, names an entry float cannot read, else a rule
    its row breaks, else fewer than 2 entries or another count than the first
    row's. The loop reads lines up to the first that float cannot read or whose
    count is bad; the rules are then judged with one _row_fault call over the
    rows read.
    """
    rows: list[list[float]] = []
    numbers: list[int] = []
    stop = None  # the first line float cannot read or of a bad count: its number, its row and its message
    for lineno, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if not line or line[0] == "#":
            continue
        try:
            row = [float(token) for token in line.split(",")]
        except ValueError:
            stop = lineno, None, "malformed CSV row"
            break
        if len(row) < 2:
            stop = lineno, row, "vectors need at least 2 entries"
            break
        if rows and len(row) != len(rows[0]):
            stop = lineno, row, f"inconsistent dimension {len(row)} (expected {len(rows[0])})"
            break
        rows.append(row)
        numbers.append(lineno)
    # the rows before that line, of one count, are judged at once; that line's own row after them
    array = np.array(rows)
    fault = _row_fault(array, nonneg, positive) if rows else None
    if fault is not None:
        raise ValueError(f"{path}:{numbers[fault[0]]}: {fault[1]}")
    if stop is not None:
        lineno, row, message = stop
        fault = None if row is None else _row_fault(np.array(row), nonneg, positive)
        raise ValueError(f"{path}:{lineno}: {message if fault is None else fault[1]}")
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return array


def _read_objective(path: str) -> ObjectiveSpec:
    rows = _read_rows(path, nonneg=False)
    if len(rows) != 1:
        raise ValueError(f"{path}: objective file must contain exactly one row, found {len(rows)}")
    return ObjectiveSpec(rows[0])


def _document(command: str, inputs: dict, results: dict, seed: int | None = None) -> dict:
    doc = {"command": command, "inputs": inputs, "results": results}
    if seed is not None:
        doc["seed"] = seed
    doc["version"] = __version__
    return doc


#: A varying place in a _Table's sample row, or a _Table's place in a report. No report that holds a table
#: holds this string, since argv cannot carry a NUL and open refuses a path with one before any report is
#: written
_SLOT = "\x00"
#: _SLOT's JSON text as a whole value: with an indent, json.dumps starts every value at the text's start or
#: after a space (an indent or ": "), while a quote inside a string is escaped and so follows a backslash
_PLACE = re.compile(r'(?<![^ \n])"\\u0000"')
_BOOL_TEXT = ("false", "true")


def _column(values) -> list | range:
    """A range, or an int, float or bool array of k rows, as a sequence of k items whose str text is their JSON text.

    A (k, m) float array is its k rows, each a list of m floats, whose text
    depends on the indent of its place.
    """
    if isinstance(values, range):
        return values
    if values.dtype == bool:
        return [_BOOL_TEXT[v] for v in values.tolist()]
    finite = np.isfinite(values)
    if not finite.all():
        _json_text(values[~finite].tolist())  # raises json's ValueError, which names the value
    return values.tolist()


def _line_break(text: str) -> str:
    """A newline and the indent of the last line of text."""
    line = text[text.rfind("\n") + 1 :]
    return "\n" + " " * (len(line) - len(line.lstrip(" ")))


class _Table:
    """A JSON list of k dicts that differ only in some leaves, written from one sample row.

    row is the dict with each varying leaf given as its column: a range, a
    1-D int, float or bool array of k >= 1 values, or a (k, m >= 1) float
    array whose rows are list leaves. json.dumps writes the row with _SLOT
    at each column's place, and the text between the places is put between
    the columns' texts for all k rows.
    """

    def __init__(self, row: dict):
        self.columns: list = []
        self.row = self._sample(row)

    def _sample(self, value):
        if isinstance(value, dict):
            return {key: self._sample(item) for key, item in value.items()}
        if isinstance(value, list):
            return [self._sample(item) for item in value]
        if isinstance(value, (range, np.ndarray)):
            self.columns.append(_column(value))
            return _SLOT
        return value

    def text(self, nl: str) -> str:
        """The table's JSON text at a place whose line starts with nl, a newline and that line's indent.

        The sample row, cut at its places, gives the literal segments, and the
        columns' texts go between them, one slice per column, in one list that
        is joined once. A column's text is each item's str text; a row of a
        (k, m) column is one join of its floats' texts at its place's indent.
        """
        inner = nl + "  "
        # json escapes a newline inside a string, so each "\n" ends a line of the sample
        sample = json.dumps(self.row, indent=2, allow_nan=False).replace("\n", inner)
        segments = _PLACE.split(sample)
        first, *middle, last = segments
        k, width = len(self.columns[0]), 2 * len(self.columns)
        # row i is texts[1 + i * width :][:width]: each place's text, then the segment after it
        texts = [None] * (1 + k * width)
        texts[0] = "[" + inner + first
        texts[2::2] = (middle + [last + "," + inner + first]) * k
        for j, column in enumerate(self.columns):
            if isinstance(column[0], list):  # the rows of a (k, m) column
                at = _line_break(segments[j])
                head, sep = "[" + at + "  ", "," + at + "  "
                texts[1 + 2 * j :: width] = [head + sep.join(map(float.__repr__, row)) + at + "]" for row in column]
            else:
                texts[1 + 2 * j :: width] = map(str, column)
        texts[-1] = last + nl + "]"
        return "".join(texts)


def _json_pieces(value) -> list[str]:
    """The text of json.dumps(value, indent=2, allow_nan=False) in pieces, each _Table one piece at its place."""
    tables: list[_Table] = []

    def place(item):
        if not isinstance(item, _Table):
            raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
        tables.append(item)
        return _SLOT

    text = json.dumps(value, indent=2, allow_nan=False, default=place)
    if not tables:  # a report without a table may hold the string _SLOT itself
        return [text]
    pieces = _PLACE.split(text)
    out = [pieces[0]]
    for table, before, piece in zip(tables, pieces, pieces[1:]):
        out += [table.text(_line_break(before)), piece]
    return out


def _json_text(value) -> str:
    """json.dumps(value, indent=2, allow_nan=False), with each _Table written at its place."""
    return "".join(_json_pieces(value))


def _write_file(path: str, pieces: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}")


def _emit(doc: dict, out_path: str | None) -> None:
    """Write doc as json.dumps(doc, indent=2) writes it, its tables included; NaN or inf: exit 2.

    The pieces are written one by one, so the report is never joined into one
    string. A reader that closes stdout first (fairctl ... | head -1) ends the
    command with exit 2 too.
    """
    pieces = _json_pieces(doc) + ["\n"]
    if out_path is not None:
        _write_file(out_path, pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # what is left in stdout's buffer goes to the null device, so the flush at exit cannot fail again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise ValueError(f"cannot write the report to stdout: {exc}")


def _assess(args, eps: float, tol: float = MEMBERSHIP_TOL):
    """The CSV's rows as one array, with one dispersion_report call over them all."""
    rows = _read_rows(args.input, positive=True)
    return dispersion_report(rows, args.p, eps, tol=tol)


def _cmd_check(args) -> tuple[dict, int]:
    report = _assess(args, args.eps, args.tol)
    members = np.logical_and.reduce([e.member for e in report.per_p])
    vectors = _Table(
        {
            "index": range(len(report.cv)),
            "cv": report.cv,
            "mean": report.mean,
            "per_p": [
                {"p": _p_token(e.p), "eps_max": e.eps_max, "member": e.member, "cv_bound": e.cv_bound}
                for e in report.per_p
            ],
            "member_all_p": members,
        }
    )
    all_members = bool(members.all())
    doc = _document(
        "check",
        {
            "input": args.input,
            "eps": args.eps,
            "p": [_p_token(p) for p in args.p],
            "tol": args.tol,
        },
        {"vectors": vectors, "all_members": all_members},
    )
    return doc, 0 if all_members else 1


def _cmd_epsmax(args) -> tuple[dict, int]:
    report = _assess(args, 0.0)
    vectors = _Table(
        {
            "index": range(len(report.cv)),
            "per_p": [{"p": _p_token(e.p), "eps_max": e.eps_max} for e in report.per_p],
        }
    )
    doc = _document(
        "epsmax",
        {"input": args.input, "p": [_p_token(p) for p in args.p]},
        {"vectors": vectors},
    )
    return doc, 0


def _cmd_project(args) -> tuple[dict, int]:
    spec = FairnessSpec(args.eps, args.p)
    res = project_fair_region(_read_rows(args.input), spec, tol=args.tol, max_iter=args.max_iter)
    points = _Table(
        {
            "index": range(len(res.points)),
            "point": res.points,
            "iterations": res.evaluations,
            "residual": res.residuals,
            "converged": res.converged,
        }
    )
    doc = _document(
        "project",
        {
            "input": args.input,
            "eps": args.eps,
            "p": _p_token(args.p),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {"points": points},
    )
    return doc, 0 if res.converged.all() else 1


def _cmd_solve(args) -> tuple[dict, int]:
    obj = _read_objective(args.objective)
    res = solve(obj, FairnessSpec(args.eps, args.p), tol=args.tol, max_iter=args.max_iter)
    doc = _document(
        "solve",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "eps": args.eps,
            "p": _p_token(args.p),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {
            "x_opt": res.x_opt.values.tolist(),
            "objective_value": res.objective_value,
            "iterations": res.iterations,
            "converged": res.converged,
            "duality_gap": res.duality_gap,
            "eps_max_at_opt": res.eps_max_at_opt,
            "cv_at_opt": res.cv_at_opt,
        },
    )
    return doc, 0 if res.converged else 1


def _cmd_sweep(args) -> tuple[dict, int]:
    obj = _read_objective(args.objective)
    points = pareto_sweep(obj, args.p, eps_grid=args.eps_grid)
    converged = np.array([pt.converged for pt in points])
    rows = _Table(
        {
            "epsilon": np.array([pt.epsilon for pt in points]),
            "objective": np.array([pt.objective_value for pt in points]),
            "cv": np.array([pt.cv for pt in points]),
            "cv_bound": np.array([pt.cv_bound for pt in points]),
            "converged": converged,
        }
    )
    if args.emit_csv is not None:
        lines = [f"{pt.epsilon!r},{pt.objective_value!r},{pt.cv!r},{pt.cv_bound!r}\n" for pt in points]
        _write_file(args.emit_csv, ["epsilon,objective,cv,cv_bound\n", *lines])
    doc = _document(
        "sweep",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "p": _p_token(args.p),
            "eps_grid": args.eps_grid,
            "emit_csv": args.emit_csv,
        },
        {"points": rows},
    )
    return doc, 0 if converged.all() else 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _seed(os.environ.get("FAIRCTL_SEED", str(VerifyConfig.seed)))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FAIRCTL_SEED: {exc}")


def _cmd_verify(args) -> tuple[dict, int]:
    cfg = VerifyConfig(
        suites=args.suite,
        samples=args.samples,
        n_values=args.n_values,
        p_values=args.p_chain,
        seed=_resolve_seed(args),
        tol=args.tol,
    )
    report = run_suite(cfg)
    return _document("verify", **report.to_dict()), 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairctl",
        description="Dispersion-control fairness constraints: membership, projection, solving, sweeps, verification.",
    )
    parser.add_argument("--version", action="version", version=f"fairctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    epsilon = _flag(check_epsilon)
    exponent = _flag(check_exponent)
    tolerance = _flag(check_tolerance)
    cap = _flag(check_iterations)

    check = sub.add_parser("check", help="membership and thresholds for vectors in a CSV file")
    check.add_argument("--input", required=True, help="CSV file, one vector per line")
    check.add_argument("--eps", type=epsilon, required=True, help="fairness level in [0, 1]")
    check.add_argument("--p", type=_exponents, required=True, help="comma-separated exponents, each >= 2 or 'inf'")
    check.add_argument(
        "--tol", type=tolerance, default=MEMBERSHIP_TOL, help="relative membership tolerance"
    )
    check.add_argument("--out", default=None, help="write the JSON report to a file")

    epsmax = sub.add_parser("epsmax", help="maximal fairness threshold per vector")
    epsmax.add_argument("--input", required=True)
    epsmax.add_argument("--p", type=_exponents, required=True, help="comma-separated exponents")
    epsmax.add_argument("--out", default=None)

    project = sub.add_parser("project", help="project vectors onto the fair region")
    project.add_argument("--input", required=True)
    project.add_argument("--eps", type=epsilon, required=True)
    project.add_argument("--p", type=exponent, required=True, help="a single exponent >= 2 or 'inf'")
    project.add_argument("--tol", type=tolerance, default=CONVERGENCE_TOL)
    project.add_argument("--max-iter", type=cap, default=PROJECTION_MAX_ITER)
    project.add_argument("--out", default=None)

    solve_cmd = sub.add_parser("solve", help="maximize a linear objective over the fair region")
    solve_cmd.add_argument("--objective", required=True, help="CSV file with one coefficient row")
    solve_cmd.add_argument("--eps", type=epsilon, required=True)
    solve_cmd.add_argument("--p", type=exponent, required=True)
    solve_cmd.add_argument("--tol", type=tolerance, default=CONVERGENCE_TOL)
    solve_cmd.add_argument("--max-iter", type=cap, default=SOLVE_MAX_ITER)
    solve_cmd.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="trace the efficiency-vs-fairness frontier over epsilon")
    sweep.add_argument("--objective", required=True)
    sweep.add_argument("--p", type=exponent, required=True)
    sweep.add_argument("--eps-grid", type=_eps_grid, required=True, help="start:stop:step within [0, 1]")
    sweep.add_argument(
        "--emit-csv", default=None, help="also write epsilon,objective,cv,cv_bound rows; cv_bound bounds cv squared"
    )
    sweep.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the sampling-based theorem suites")
    suites = _config_field("suites", _suites)
    verify.add_argument("--suite", type=suites, default="all", help="'all' or comma-separated suite names")
    verify.add_argument("--samples", type=_config_field("samples", int), default=VerifyConfig.samples)
    verify.add_argument(
        "--seed", type=_seed, default=None, help=f"defaults to FAIRCTL_SEED or {VerifyConfig.seed}"
    )
    dimensions = _config_field("n_values", _ints)
    verify.add_argument("--n-values", type=dimensions, default=DEFAULT_N_VALUES, help="comma-separated dimensions")
    verify.add_argument(
        "--p-chain",
        type=_config_field("p_values", _tokens),
        default=DEFAULT_P_CHAIN,
        help="comma-separated distinct exponents",
    )
    verify.add_argument("--tol", type=tolerance, default=VerifyConfig.tol)
    verify.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "epsmax": _cmd_epsmax,
    "project": _cmd_project,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


#: The parser, built on the first call of main and reused by later ones.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, status = _COMMANDS[args.command](args)
        _emit(doc, args.out)
    except ValueError as exc:
        print(f"fairctl: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
