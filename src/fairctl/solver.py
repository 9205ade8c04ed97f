"""Exact maximisation of a linear objective over the fair region, and Pareto sweeps in epsilon.

The fair region is Delta_n intersected with the lp ball of radius
r = 1 / (1 + eps D_p). Dualizing sum(x) = 1 with a multiplier mu leaves
max (c - mu) . x over the nonnegative ball, which is r ||a||_q, reached at
x(mu) = r (a / ||a||_q)^(1/(p-1)) with a = (c - mu)_+ and 1/p + 1/q = 1
(the optimality, or KKT, conditions). So g(mu) = mu + r ||(c - mu)_+||_q
bounds the optimum from above for every mu, and the sum of x(mu) never
increases with mu: one bracketed monotone root finds the mu where it is 1.
The returned point mixes the two points that bracket the root so that it
sums to 1; both lie on the ball, so the mix stays in it. Its duality gap
g(mu) - c . x certifies optimality.

Closed forms cover the rest: at eps = 1 the region is the single point e/n;
when the uniform point on the argmax ties of c fits in the ball (always at
eps = 0) it is optimal; at p = infinity x(mu) puts r on every c_i > mu, so
the root is water-filling in sorted c order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, SimplexVector, _as_vector, _pnorm_rows
from .fairness import FairnessSpec, coefficient_of_variation, cone_constraint, cv_bound, eps_max

# project_fair_region has no caller here, but the benchmark's fairbench/tracing.py
# wraps solver.project_fair_region and binds its max_iter argument by name
from .geometry import project_fair_region


@dataclass(frozen=True)
class ObjectiveSpec:
    """A linear objective c . x to maximize; coefficients may be any finite reals."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coefficients)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


@dataclass(frozen=True)
class SolveResult:
    """Optimum and its diagnostics: evaluations of x(mu) and the duality gap."""

    x_opt: SimplexVector
    objective_value: float
    iterations: int
    converged: bool
    eps_max_at_opt: float
    cv_at_opt: float
    duality_gap: float


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep sample: epsilon against achieved objective, CV, and the CV bound."""

    epsilon: float
    objective_value: float
    cv: float
    cv_bound: float
    converged: bool = True


def _water_fill(c: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """p = infinity: r on the largest c_i in turn, the mass left spread over the first tied level that does not fit.

    Returns the point and the dual bound at its multiplier mu, the value of
    that level.
    """
    levels, counts = np.unique(-c, return_counts=True)  # c's distinct values, largest first
    filled = np.cumsum(counts) * radius
    j = min(int(np.searchsorted(filled, 1.0)), levels.size - 1)
    mu = -float(levels[j])
    x = np.where(c > mu, radius, 0.0)
    x[c == mu] = (1.0 - (filled[j - 1] if j else 0.0)) / counts[j]
    return x, mu + radius * float(np.maximum(c - mu, 0.0).sum())


def _decreasing_root(f, a: float, fa: float, step: float, tol: float, max_evals: int, xtol: float = 0.0):
    """Root of a nonincreasing f from a point a with f(a) = fa; step has the sign of fa.

    Trials step on from a, doubling the step, until f changes sign; then
    Illinois secant steps (bisection when one leaves the bracket) run until
    |f| <= tol, the bracket shrinks to adjacent floats or to xtol, or
    max_evals evaluations are spent. Returns f at the last point evaluated
    (fa if none) and the evaluation count; callers read the root from state
    that f keeps, which belongs to that last point.
    """
    if abs(fa) <= tol or max_evals < 1:
        return fa, 0
    b = a + step
    fb = f(b)
    evals = 1
    while abs(fb) > tol and (fb > 0.0) == (fa > 0.0) and evals < max_evals:
        step *= 2.0
        a, fa, b = b, fb, b + step
        fb = f(b)
        evals += 1
    fc = fb
    side = 0
    while abs(fc) > tol and evals < max_evals and abs(b - a) > xtol:
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
            if not min(a, b) < c < max(a, b):
                break
        fc = f(c)
        evals += 1
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if side == 1:
                fa *= 0.5  # Illinois damping keeps the secant moving
            side = 1
        else:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
    return fc, evals


def _kkt_root(c: np.ndarray, p: float, radius: float, tol: float, max_evals: int):
    """Finite p: the root on mu of sum x(mu) = 1.

    Each side of the bracket keeps its latest (x(mu), sum, g(mu)); the ends
    of the domain start them: mu = max c, where x(mu) is the uniform point
    on the ties scaled onto the ball, and mu = -infinity, where it is e/n
    scaled onto the ball. When the first already sums to 1 or more, the
    ball is inactive and the uniform point on the ties is the answer. The
    search stops once the bracket is narrower than tol / 100, which bounds
    the duality gap of the mix even where x(mu) jumps (at huge p it is
    almost a step function). Returns the point, the smaller dual bound and
    the evaluation count.
    """
    n = c.size
    power = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    top = float(c.max())
    ties = c == top
    k = int(np.count_nonzero(ties))
    high = [ties * (radius * k ** (-1.0 / p)), radius * k ** (1.0 / q), top]
    if high[1] >= 1.0:
        return ties / k, top, 0
    low = [np.full(n, radius * n ** (-1.0 / p)), radius * n ** (1.0 / q), math.inf]

    def sum_gap(mu: float) -> float:
        a = np.maximum(c - mu, 0.0)
        norm = float(_pnorm_rows(a, q))
        with np.errstate(under="ignore"):
            # mask 0^0: at huge p the power rounds to 0
            x = radius * np.where(a > 0.0, (a / norm) ** power, 0.0)
        s = float(x.sum())
        (low if s >= 1.0 else high)[:] = x, s, mu + radius * norm
        return s - 1.0

    step = -(top - float(c.min()))
    _, evals = _decreasing_root(sum_gap, top, high[1] - 1.0, step, 1e-2 * tol, max_evals, 1e-2 * tol)
    (x_low, s_low, g_low), (x_high, s_high, g_high) = low, high
    theta = (1.0 - s_high) / (s_low - s_high)
    x = theta * x_low + (1.0 - theta) * x_high
    return x / x.sum(), min(g_low, g_high), evals


def _maximize(c: np.ndarray, spec: FairnessSpec, tol: float, max_evals: int):
    """The maximiser of c . x over the fair region, its duality gap and the evaluations of x(mu)."""
    n = c.size
    if spec.epsilon == 1.0:
        return np.full(n, 1.0 / n), 0.0, 0
    radius = cone_constraint(n, spec).radius
    if spec.p == INFINITY:
        x, dual, evals = *_water_fill(c, radius), 0
    else:
        x, dual, evals = _kkt_root(c, spec.p, radius, tol, max_evals)
    return x, dual - float(c @ x), evals


def solve(
    obj: ObjectiveSpec,
    spec: FairnessSpec,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SolveResult:
    """Maximize obj over the fair region by its optimality conditions.

    iterations counts evaluations of x(mu), at most max_iter (0 where a
    closed form applies); converged means the duality gap is at most tol.
    """
    c = obj.coefficients
    x, gap, iterations = _maximize(c, spec, tol, max_iter)
    point = SimplexVector(x)
    return SolveResult(
        x_opt=point,
        objective_value=float(c @ x),
        iterations=iterations,
        converged=gap <= tol,
        eps_max_at_opt=eps_max(point, spec.p),
        cv_at_opt=coefficient_of_variation(point),
        duality_gap=gap,
    )


def pareto_sweep(
    obj: ObjectiveSpec,
    p: float,
    eps_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> list[ParetoPoint]:
    """Trace the efficiency-vs-fairness frontier by solving at each epsilon.

    The grid must be ascending within [0, 1]. A point whose duality gap
    exceeds tol is flagged on that point, not raised.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid must be non-empty")
    if any(e < 0.0 or e > 1.0 for e in grid):
        raise ValueError("epsilon grid values must lie in [0, 1]")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    c = obj.coefficients
    points = []
    for eps in grid:
        spec = FairnessSpec(eps, p)
        x, gap, _ = _maximize(c, spec, tol, max_iter)
        points.append(
            ParetoPoint(
                epsilon=eps,
                objective_value=float(c @ x),
                cv=coefficient_of_variation(SimplexVector(x)),
                cv_bound=cv_bound(c.size, spec),
                converged=gap <= tol,
            )
        )
    return points
