"""Exact maximisation of a linear objective over the fair region, and Pareto sweeps in epsilon.

On the fair region, Delta_n and the lp ball of radius r = 1 / (1 + eps D_p),
dualizing sum(x) = 1 with a multiplier mu leaves max (c - mu) . x over the
nonnegative ball: r ||(c - mu)_+||_q with 1/p + 1/q = 1, at x(mu) proportional
to (c - mu)_+^(1/(p-1)). So g(mu) = mu + r ||(c - mu)_+||_q bounds the optimum
from above, and g - c . x at the point's own mu is its duality gap.

The maximiser is the limit of the projection of t c as t grows, so it has
the shape of geometry.project_fair_region: e/n when r is at most its norm
n^(1/p - 1), which holds at eps = 1 and can hold just below it by rounding;
the uniform point on the argmax ties of c when it fits in the ball; else the
sphere point of c at p = 2 and the capped-simplex point of 2 r rank(c) at
p = infinity. Only at 2 < p < infinity is mu a root of the falling sum of
x(mu): a bracket on it closes until the mix of its two ends, the point on the
ball that sums to 1, has a duality gap against the smaller end's g far below
tol. The sum's range shrinks with 1 - eps, so no test on the sum could stop
the search at every eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CONVERGENCE_TOL, INFINITY, SimplexVector, _as_vector, _pnorm_rows, check_iterations, check_tolerance
from .fairness import FairnessSpec, check_epsilon, coefficient_of_variation, cone_constraint, cv_bound, eps_max

# project_fair_region has no caller here, but the benchmark's fairbench/tracing.py
# wraps solver.project_fair_region and binds its max_iter argument by name
from .geometry import _capped_point, _sphere_point, project_fair_region

#: Default cap on evaluations of x(mu) per solve.
SOLVE_MAX_ITER = 20000

#: An objective with max |c| above this is solved as c times a power of two, so that the search's
#: differences c - mu and its doubling steps stay finite; the maximiser of a c . x is the same for a > 0
SCALE_BOUND = 2.0**512


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
    cv_at_opt: float
    duality_gap: float
    #: the exponent of the fair region, which eps_max_at_opt reads
    p: float

    @functools.cached_property
    def eps_max_at_opt(self) -> float:
        """The largest eps the optimum meets at p; computed on first read, since sweeps never read it."""
        return eps_max(self.x_opt, self.p)


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep sample: epsilon against achieved objective, CV, and the CV bound."""

    epsilon: float
    objective_value: float
    cv: float
    cv_bound: float
    converged: bool


def _kkt_root(c: np.ndarray, top: float, ties: np.ndarray, k: int, p: float, radius: float, tol: float, max_evals: int):
    """Finite p: the mix of two points x(mu) on the ball that bracket the root of sum x(mu) = 1.

    Each end of the bracket keeps (mu, x(mu), sum - 1, g(mu)). The upper end
    starts at mu = top = max c, where x(mu) is the uniform point on the k ties
    (the mask _maximize found) scaled onto the ball, and the lower end at
    mu = -infinity, where it is e/n scaled onto the ball. Trials step down
    from max c, doubling, until the lower end is finite; then Illinois secant
    steps run, with bisection when one leaves the bracket. Each iteration
    mixes the two ends into the point that sums to 1. The search stops once
    that point's duality gap against the smaller g is at most tol / 100 of
    max(1, max |c|), once the bracket reaches adjacent floats, or after
    max_evals evaluations. Returns the point, that g and the evaluation count.
    """
    n = c.size
    power = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    # the sums _maximize tested, r k^(1 - 1/p) < 1 < r n^(1 - 1/p), so the mix never divides by zero
    high = (top, ties * (radius * k ** (-1.0 / p)), radius * k ** (1.0 - 1.0 / p) - 1.0, top)
    low = (-math.inf, np.full(n, radius * n ** (-1.0 / p)), radius * n ** (1.0 - 1.0 / p) - 1.0, math.inf)
    f_low, f_high = low[2], high[2]  # the secant's values, Illinois-damped
    stop = 1e-2 * tol * max(1.0, float(np.abs(c).max()))
    step = -(top - float(c.min()))
    side = 0
    evals = 0
    while True:
        theta = high[2] / (high[2] - low[2])
        x = theta * low[1] + (1.0 - theta) * high[1]
        x /= x.sum()
        dual = min(low[3], high[3])
        if dual - float(c @ x) <= stop or evals >= max_evals:
            return x, dual, evals
        if low[0] == -math.inf:
            mu = top + step
            step *= 2.0
        else:
            mu = high[0] - f_high * (high[0] - low[0]) / (f_high - f_low)
            if not low[0] < mu < high[0]:
                mu = 0.5 * (low[0] + high[0])
                if not low[0] < mu < high[0]:
                    return x, dual, evals
        a = np.maximum(c - mu, 0.0)
        norm = float(_pnorm_rows(a, q))
        with np.errstate(under="ignore"):
            # mask 0^0: at huge p the power rounds to 0
            point = radius * np.where(a > 0.0, (a / norm) ** power, 0.0)
        end = (mu, point, float(point.sum()) - 1.0, mu + radius * norm)
        evals += 1
        if end[2] >= 0.0:
            if side < 0:
                f_high *= 0.5  # Illinois damping keeps the secant moving
            low, f_low, side = end, end[2], -1
        else:
            if side > 0:
                f_low *= 0.5
            high, f_high, side = end, end[2], 1


def _maximize(c: np.ndarray, spec: FairnessSpec, tol: float, max_evals: int):
    """The maximiser of c . x over the fair region, its duality gap, convergence and x(mu) evaluations.

    The gap converges at tol max(1, max |c|), the size of the values it is a difference of.
    """
    n = c.size
    radius = cone_constraint(n, spec).radius
    if spec.epsilon == 1.0 or radius * n ** (1.0 - 1.0 / spec.p) <= 1.0:
        # the single point e/n: just below eps = 1 the radius can round onto its norm
        return np.full(n, 1.0 / n), 0.0, True, 0
    top = float(c.max())
    ties = c == top
    k = int(np.count_nonzero(ties))
    evals = 0
    if radius * k ** (1.0 - 1.0 / spec.p) >= 1.0:
        x, dual = ties / k, top
    elif spec.p == 2.0:
        x, mu = _sphere_point(c, radius)
        mu = float(mu)
        dual = mu + radius * float(_pnorm_rows(np.maximum(c - mu, 0.0), 2.0))
    elif spec.p == INFINITY:
        # the dense rank of c, from one stable sort: equal entries (-0.0 and 0.0 too) share it
        order = c.argsort(kind="stable")
        ascending = c[order]
        rises = np.zeros(n)
        rises[1:] = ascending[1:] != ascending[:-1]
        rank = np.empty(n)
        rank[order] = rises.cumsum()
        x = _capped_point(2.0 * radius * rank, radius)
        mu = float(c[x > 0.0].min())
        dual = mu + radius * float(np.maximum(c - mu, 0.0).sum())
    else:
        x, dual, evals = _kkt_root(c, top, ties, k, spec.p, radius, tol, max_evals)
    gap = dual - float(c @ x)
    return x, gap, gap <= tol * max(1.0, float(np.abs(c).max())), evals


def solve(
    obj: ObjectiveSpec,
    spec: FairnessSpec,
    tol: float = CONVERGENCE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> SolveResult:
    """Maximize obj over the fair region by its optimality conditions.

    iterations counts evaluations of x(mu), at most max_iter (0 where a sort
    or closed form applies); converged: a duality gap of at most tol max(1, max |c|).
    The search on mu at 2 < p < infinity stops on that gap, at a hundredth of
    the bound, so it converges at every eps up to 1 unless max_iter cuts it.
    Every finite c is accepted: above SCALE_BOUND the search runs on c 2^s
    with max |c 2^s| in [1, 2), and its gap is scaled back by 2^-s.
    """
    tol = check_tolerance(tol)
    max_iter = check_iterations(max_iter)
    c = obj.coefficients
    big = float(np.abs(c).max())
    shift = 1 - math.frexp(big)[1] if big > SCALE_BOUND else 0
    x, gap, converged, iterations = _maximize(np.ldexp(c, shift), spec, tol, max_iter)
    point = SimplexVector(x)
    return SolveResult(
        x_opt=point,
        objective_value=float(c @ x),
        iterations=iterations,
        converged=converged,
        cv_at_opt=coefficient_of_variation(point),
        duality_gap=math.ldexp(gap, -shift),
        p=spec.p,
    )


def pareto_sweep(
    obj: ObjectiveSpec,
    p: float,
    eps_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
) -> list[ParetoPoint]:
    """Trace the efficiency-vs-fairness frontier: one solve at each epsilon.

    The grid must be ascending within [0, 1]. A point whose duality gap
    exceeds the default tolerance of solve is flagged on that point, not raised.
    """
    grid = [check_epsilon(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid must be non-empty")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    points = []
    for eps in grid:
        spec = FairnessSpec(eps, p)
        res = solve(obj, spec)
        points.append(
            ParetoPoint(
                epsilon=eps,
                objective_value=res.objective_value,
                cv=res.cv_at_opt,
                cv_bound=cv_bound(obj.coefficients.size, spec),
                converged=res.converged,
            )
        )
    return points
