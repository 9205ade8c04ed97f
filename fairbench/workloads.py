"""Seeded inputs and the fixed list of operations for each workload.

A workload is a list of operations, each one call of ``fairctl.cli.main``
with the arguments given here plus ``--out``. The benchmark repeats whole
passes over the list, so the mix of operations never depends on where a
run stops. Inputs are written as CSV files into a work directory; the
program sees only those files, never the seed.

Why the inputs look the way they do is in README.md. In short: ``screen``
rows are fresh random draws, because the per-row cost barely depends on
the values; the iterative solvers behind ``optimize`` take between a few
and a few thousand iterations depending on the values, so their inputs are
seeded permutations of fixed value profiles, which changes the answers
with the seed but not the work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

#: Screen rows are kept at least this far from the membership boundary
#: eps_max = eps at every exponent, far beyond any round-off.
SCREEN_MARGIN = 1e-6
SCREEN_DIM = 10
SCREEN_ROWS = 2000
SCREEN_PS = [2.0, 4.0, math.inf]
VERIFY_SAMPLES = 10000
FINITE_P = 4.0


@dataclass
class Op:
    """One benchmark operation: CLI arguments and how to check the report."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    status: int = 0
    #: Set when a known fault makes the operation fail on every pass: the
    #: text of the one problem that fault causes. Only problems containing
    #: it are excused; any other problem is still a wrong answer.
    known_fault: str | None = None
    #: Reports must repeat byte for byte on every pass.
    deterministic: bool = False

    def problems(self, status: int, data: bytes | None) -> list[str]:
        """Everything wrong with one call: its exit status and its report."""
        if data is None:
            return [f"exit status {status}, no report written"]
        found = [] if status == self.status else [f"exit status {status}, want {self.status}"]
        try:
            found += self.check(json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            found.append(f"malformed report: {exc!r}")
        return found

    def unexplained(self, problems: list[str]) -> list[str]:
        """The problems that the operation's known fault does not account for."""
        if self.known_fault is None:
            return problems
        return [p for p in problems if self.known_fault not in p]


def _write_csv(path: Path, rows: np.ndarray) -> str:
    rows = np.atleast_2d(rows)
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return str(path)


def _p_arg(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


# ---------------------------------------------------------------- screen


def _screen_rows(rng: np.random.Generator, count: int, eps: float | None) -> np.ndarray:
    """Rows mixing four vector families, none near the membership boundary at eps.

    dense: unit-exponential entries; sparse: the same with about half the
    entries zeroed (at least one kept); near-uniform: 1 + 1e-3 * normal;
    wide: 10^u with u uniform on [-12, 3], fifteen orders of magnitude.
    """
    n = SCREEN_DIM
    out = []
    kept = 0
    while kept < count:
        k = count - kept + 16
        family = rng.integers(0, 4, size=k)
        dense = rng.standard_exponential((k, n))
        mask = rng.random((k, n)) < 0.5
        mask[np.arange(k), rng.integers(0, n, size=k)] = False
        sparse = np.where(mask, 0.0, dense)
        near = 1.0 + 1e-3 * rng.standard_normal((k, n))
        wide = 10.0 ** rng.uniform(-12.0, 3.0, size=(k, n))
        rows = np.choose(family[:, None], [dense, sparse, near, wide])
        if eps is not None:
            far = np.ones(k, dtype=bool)
            for p in SCREEN_PS:
                far &= np.abs(ref.eps_max(rows, p) - eps) > SCREEN_MARGIN
            rows = rows[far]
        rows = rows[: count - kept]
        out.append(rows)
        kept += rows.shape[0]
    return np.vstack(out)


def screen(seed: int, work: Path) -> list[Op]:
    """Two epsmax and three check operations, each over its own CSV of 2000 rows.

    check runs at eps = 0.3, 0.45 and 0.6. A check costs a little more than
    an epsmax; with three of them in five, the run's median operation falls
    inside the check samples, never in the gap between the two.
    """
    rng = np.random.default_rng([seed, 1])
    ps = ",".join(_p_arg(p) for p in SCREEN_PS)
    ops = []
    for k, (name, eps) in enumerate(
        (("epsmax", None), ("check", 0.3), ("epsmax", None), ("check", 0.45), ("check", 0.6))
    ):
        rows = _screen_rows(rng, SCREEN_ROWS, eps)
        path = _write_csv(work / f"{name}-{k}.csv", rows)
        if eps is None:
            argv = ["epsmax", "--input", path, "--p", ps]
            status = 0
        else:
            argv = ["check", "--input", path, "--eps", repr(eps), "--p", ps]
            members = np.ones(SCREEN_ROWS, dtype=bool)
            for p in SCREEN_PS:
                members &= ref.eps_max(rows, p) >= eps
            status = 0 if members.all() else 1

        def check(doc, rows=rows, eps=eps):
            return ref.check_screen(doc, rows, SCREEN_PS, eps)

        ops.append(Op(f"{name}-{k}", argv, check, status=status))
    return ops


# ---------------------------------------------------------------- verify


def verify(seed: int, work: Path) -> list[Op]:
    """verify --suite all at 10000 samples, default dimensions and chain.

    Two verifier seeds per pass, drawn from the benchmark seed; every pass
    repeats them, so each report must come back byte-identical.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, vseed in enumerate(rng.integers(0, 2**31 - 1, size=2)):
        argv = ["verify", "--suite", "all", "--samples", str(VERIFY_SAMPLES), "--seed", str(int(vseed))]
        ops.append(Op(f"verify-{k}", argv, ref.check_verify, deterministic=True))
    return ops


# ---------------------------------------------------------------- optimize


def _y_profile(n: int) -> np.ndarray:
    """Unit-exponential quantiles: a fixed nonnegative point to project."""
    return -np.log1p(-(np.arange(n) + 0.5) / n)


def _c_profile(n: int) -> np.ndarray:
    """Evenly spaced objective coefficients in [-1, 1]."""
    return np.linspace(-1.0, 1.0, n)


def _project_op(name, rows, eps, p, work, **kw) -> Op:
    path = _write_csv(work / f"{name}.csv", rows)
    argv = ["project", "--input", path, "--eps", repr(eps), "--p", _p_arg(p)]

    def check(doc):
        return ref.check_project(doc, rows, eps, p)

    return Op(name, argv, check, **kw)


def _solve_op(name, c, eps, p, work) -> Op:
    path = _write_csv(work / f"{name}.csv", c)
    argv = ["solve", "--objective", path, "--eps", repr(eps), "--p", _p_arg(p)]

    def check(doc):
        return ref.check_solve(doc, c, eps, p)

    return Op(name, argv, check)


def _sweep_op(name, c, p, work) -> Op:
    path = _write_csv(work / f"{name}.csv", c)
    grid = [k / 8 for k in range(9)]
    argv = ["sweep", "--objective", path, "--p", _p_arg(p), "--eps-grid", "0:1:0.125"]

    def check(doc):
        return ref.check_sweep(doc, c, p, grid)

    return Op(name, argv, check)


def optimize(seed: int, work: Path) -> list[Op]:
    """project, solve and sweep at p = 2, p = 4 and p = infinity.

    Twelve of the eighteen operations are projections of similar cost
    (about a quarter second today), so the run's median operation always
    falls among many samples.

    The p = 2 projection of a fixed 1000-dimensional unit-exponential draw
    at eps = 0.5 is kept although it fails: Dykstra stops at its
    5000-iteration cap with feasibility residual 0, the report says
    converged, and the point is 4.9e-5 (max norm) from the exact
    projection. It does not depend on the seed, so it fails on every pass.
    Only that distance is excused: a non-zero exit, a missing or malformed
    report or an infeasible point is still a wrong answer.
    """
    rng = np.random.default_rng([seed, 3])

    def perm(profile: np.ndarray, count: int = 1) -> np.ndarray:
        return np.array([rng.permutation(profile) for _ in range(count)])

    fault_y = np.random.default_rng(20251027).standard_exponential(1000)
    ops = [
        _solve_op("solve-p4", perm(_c_profile(4))[0], 0.25, FINITE_P, work),
        _project_op(
            "project-p2-n1000",
            fault_y[None, :],
            0.5,
            2.0,
            work,
            known_fault=ref.FAR_FROM_EXACT,
        ),
        _solve_op("solve-p2", perm(_c_profile(50))[0], 0.5, 2.0, work),
        _solve_op("solve-pinf", perm(_c_profile(20))[0], 0.5, math.inf, work),
        _sweep_op("sweep-p2", perm(_c_profile(20))[0], 2.0, work),
        _sweep_op("sweep-pinf", perm(_c_profile(20))[0], math.inf, work),
    ]
    for k in range(4):
        ops += [
            _project_op(f"project-p4-{k}", perm(_y_profile(6)), 0.5, FINITE_P, work),
            _project_op(f"project-p2-{k}", perm(_y_profile(50), 4), 0.5, 2.0, work),
            _project_op(f"project-pinf-{k}", perm(_y_profile(50), 15), 0.5, math.inf, work),
        ]
    return ops


#: Workload name -> function of (seed, work directory) returning its operations.
WORKLOADS = {"screen": screen, "verify": verify, "optimize": optimize}
