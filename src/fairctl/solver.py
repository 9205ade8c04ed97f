"""Exact maximisation of a linear objective over the fair region, and Pareto sweeps in epsilon.

On the fair region, Delta_n and the lp ball of radius r = 1 / (1 + eps D_p),
dualizing sum(x) = 1 with a multiplier mu leaves max (c - mu) . x over the
nonnegative ball: r ||(c - mu)_+||_q with 1/p + 1/q = 1, at x(mu) proportional
to (c - mu)_+^(1/(p-1)). So g(mu) = mu + r ||(c - mu)_+||_q bounds the optimum
from above, and g - c . x at the point's own mu is its duality gap.

The maximiser is the limit of the projection of t c as t grows, so it has
the shape of geometry.project_fair_region: e/n at eps = 1; the uniform point
on the argmax ties of c when it fits in the ball; else the sphere point of c
at p = 2 and the capped-simplex point of 2 r rank(c) at p = infinity. Only at
2 < p < infinity is mu a root of the falling sum of x(mu); the point mixes
the two points on the ball that bracket it, so that it sums to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, SimplexVector, _as_vector, _pnorm_rows
from .fairness import FairnessSpec, coefficient_of_variation, cone_constraint, cv_bound, eps_max

# project_fair_region has no caller here, but the benchmark's fairbench/tracing.py
# wraps solver.project_fair_region and binds its max_iter argument by name
from .geometry import _capped_point, _sphere_point, project_fair_region


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
    scaled onto the ball. The search stops once the bracket is narrower
    than tol / 100, which bounds the duality gap of the mix even where x(mu)
    jumps (at huge p it is almost a step function). Returns the point, the
    smaller dual bound and the evaluation count.
    """
    n = c.size
    power = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    top = float(c.max())
    ties = c == top
    k = int(np.count_nonzero(ties))
    high = [ties * (radius * k ** (-1.0 / p)), radius * k ** (1.0 / q), top]
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
    """The maximiser of c . x over the fair region, its duality gap, convergence and x(mu) evaluations.

    The gap converges at tol max(1, max |c|), the size of the values it is a difference of.
    """
    n = c.size
    radius = cone_constraint(n, spec).radius
    if spec.epsilon == 1.0 or (spec.p == 2.0 and radius * radius <= 1.0 / n):
        # the single point e/n; at p = 2 just below eps = 1, r^2 can round onto its norm 1/n
        return np.full(n, 1.0 / n), 0.0, True, 0
    top = float(c.max())
    ties = c == top
    k = int(np.count_nonzero(ties))
    evals = 0
    if radius * k ** (1.0 - 1.0 / spec.p) >= 1.0:
        x, dual = ties / k, top
    elif spec.p == 2.0:
        x, mu = _sphere_point(c, radius)
        dual = mu + radius * float(_pnorm_rows(np.maximum(c - mu, 0.0), 2.0))
    elif spec.p == INFINITY:
        x = _capped_point(2.0 * radius * np.unique(c, return_inverse=True)[1], radius)
        mu = float(c[x > 0.0].min())
        dual = mu + radius * float(np.maximum(c - mu, 0.0).sum())
    else:
        x, dual, evals = _kkt_root(c, spec.p, radius, tol, max_evals)
    gap = dual - float(c @ x)
    return x, gap, gap <= tol * max(1.0, float(np.abs(c).max())), evals


def solve(
    obj: ObjectiveSpec,
    spec: FairnessSpec,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SolveResult:
    """Maximize obj over the fair region by its optimality conditions.

    iterations counts evaluations of x(mu), at most max_iter (0 where a sort
    or closed form applies); converged: a duality gap of at most tol max(1, max |c|).
    """
    c = obj.coefficients
    x, gap, converged, iterations = _maximize(c, spec, tol, max_iter)
    point = SimplexVector(x)
    return SolveResult(
        x_opt=point,
        objective_value=float(c @ x),
        iterations=iterations,
        converged=converged,
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
    exceeds tol max(1, max |c|) is flagged on that point, not raised.
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
        x, _, converged, _ = _maximize(c, spec, tol, max_iter)
        points.append(
            ParetoPoint(
                epsilon=eps,
                objective_value=float(c @ x),
                cv=coefficient_of_variation(SimplexVector(x)),
                cv_bound=cv_bound(c.size, spec),
                converged=converged,
            )
        )
    return points
