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

Only the radius depends on eps, so a sweep solves its grid as a (k, n) stack
of the same c: at p = 2 and p = infinity one sort-kernel call with a radius
per row gives every point, bit for bit as solve gives it alone, since solve
is the one-row case of the same body.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENCE_TOL,
    INFINITY,
    SimplexVector,
    _as_vector,
    _check_simplex_sums,
    _pnorm_rows,
    _row_fault,
    _row_sum,
    check_exponent,
    check_iterations,
    check_tolerance,
)

# coefficient_of_variation and cv_bound have no caller here, but the benchmark's
# fairbench/tracing.py wraps both by name
from .fairness import (
    FairnessSpec,
    _cv2_rows,
    _cv_bound_rows,
    _radius_rows,
    check_epsilon,
    coefficient_of_variation,
    cv_bound,
    eps_max,
)

# project_fair_region has no caller here, but the benchmark's fairbench/tracing.py
# wraps solver.project_fair_region and binds its max_iter argument by name
from .geometry import _capped_point, _sphere_point, project_fair_region

#: Default cap on evaluations of x(mu) per solve.
SOLVE_MAX_ITER = 20000

#: An objective with max |c| above this is solved as c times a power of two, so that the search's
#: differences c - mu and its doubling steps stay finite; the maximiser of a c . x is the same for a > 0
SCALE_BOUND = 2.0**512

#: Most entries, grid points times n, that a sweep solves in one stacked call; a longer grid is
#: solved block by block, so its memory does not grow with the grid
SWEEP_BLOCK_ENTRIES = 2**12


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


def _maximize(c: np.ndarray, p: float, eps: np.ndarray, tol: float, max_evals: int):
    """The maximisers of c . x over the fair regions at each eps of a 1-D array, as a (k, n) stack.

    Returns the points, c . x and the duality gap of each, and the
    evaluations of x(mu) per point. Rows where r is at most the norm of e/n
    are e/n, with gap 0, and rows where the argmax ties fit in the ball are
    their uniform point, whose bound is max c. At p = 2 and p = infinity
    every other row comes from one call of the sort kernel over the stack;
    at 2 < p < infinity each runs its own _kkt_root.
    """
    n = c.size
    radius = _radius_rows(n, p, eps)
    x = np.full((eps.size, n), 1.0 / n)
    evals = np.zeros(eps.size, dtype=int)
    # the single point e/n: just below eps = 1 the radius can round onto its norm
    mean = (eps == 1.0) | (radius * n ** (1.0 - 1.0 / p) <= 1.0)
    top = float(c.max())
    ties = c == top
    k = int(np.count_nonzero(ties))
    tied = ~mean & (radius * k ** (1.0 - 1.0 / p) >= 1.0)
    x[tied] = ties / k
    dual = np.full(eps.size, top)
    rows = np.flatnonzero(~(mean | tied))
    r = radius[rows, None]
    if p == 2.0:
        x[rows], mu = _sphere_point(c[None].repeat(rows.size, 0), r)
        dual[rows] = mu + r[:, 0] * _pnorm_rows(np.maximum(c - mu[:, None], 0.0), 2.0)
    elif p == INFINITY:
        # the dense rank of c, from one stable sort: equal entries (-0.0 and 0.0 too) share it
        order = c.argsort(kind="stable")
        ascending = c[order]
        rises = np.zeros(n)
        rises[1:] = ascending[1:] != ascending[:-1]
        rank = np.empty(n)
        rank[order] = rises.cumsum()
        x[rows] = _capped_point(2.0 * r * rank, r)
        mu = np.where(x[rows] > 0.0, c, math.inf).min(axis=-1)
        dual[rows] = mu + r[:, 0] * _row_sum(np.maximum(c - mu[:, None], 0.0))
    else:
        for i in rows.tolist():
            x[i], dual[i], evals[i] = _kkt_root(c, top, ties, k, p, float(radius[i]), tol, max_evals)
    # row by row: the product of the stack, x @ c, need not round as c @ x does
    value = np.array([c @ point for point in x])
    return x, value, np.where(mean, 0.0, dual - value), evals


def _solve_rows(c: np.ndarray, p: float, eps: np.ndarray, tol: float, max_iter: int):
    """solve at each eps of a 1-D array, in one body.

    Returns the (k, n) maximisers and, per point, c . x, the CV, the duality
    gap, convergence and evaluations. Every finite c is accepted: above
    SCALE_BOUND the maximisers are found for c 2^s with max |c 2^s| in
    [1, 2), and the gaps are scaled back by 2^-s. A gap converges at
    tol max(1, max |c 2^s|), the size of the values it is a difference of.
    The points pass the checks of SimplexVector, all at once.
    """
    big = float(np.abs(c).max())
    shift = 1 - math.frexp(big)[1] if big > SCALE_BOUND else 0
    scaled = np.ldexp(c, shift)
    x, value, gap, evals = _maximize(scaled, p, eps, tol, max_iter)
    fault = _row_fault(x)
    if fault is not None:
        raise ValueError(fault[1])
    _check_simplex_sums(_row_sum(x))
    if shift:
        value = np.array([c @ point for point in x])
    cv = np.sqrt(np.maximum(_cv2_rows(_pnorm_rows(x, 2.0), c.size), 0.0))
    converged = gap <= tol * max(1.0, float(np.abs(scaled).max()))
    return x, value, cv, np.ldexp(gap, -shift), converged, evals


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
    with max |c 2^s| in [1, 2), and its gap is scaled back by 2^-s. A solve
    is a sweep of one point: both run _solve_rows.
    """
    tol = check_tolerance(tol)
    max_iter = check_iterations(max_iter)
    x, value, cv, gap, converged, evals = _solve_rows(
        obj.coefficients, spec.p, np.array([spec.epsilon]), tol, max_iter
    )
    return SolveResult(
        x_opt=SimplexVector(x[0]),
        objective_value=float(value[0]),
        iterations=int(evals[0]),
        converged=bool(converged[0]),
        cv_at_opt=float(cv[0]),
        duality_gap=float(gap[0]),
        p=spec.p,
    )


def pareto_sweep(
    obj: ObjectiveSpec,
    p: float,
    eps_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
) -> list[ParetoPoint]:
    """Trace the efficiency-vs-fairness frontier: solve's answer at each epsilon.

    The grid must be ascending within [0, 1]. Each point equals solve at its
    eps with the default tolerance and cap, bit for bit, but the grid is
    solved in blocks of SWEEP_BLOCK_ENTRIES entries: at p = 2 and p = infinity
    eps changes only the radius, so a block is one sort-kernel call. A point
    whose duality gap exceeds the tolerance is flagged on that point, not raised.
    """
    grid = [check_epsilon(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid must be non-empty")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    p = check_exponent(p)
    c = obj.coefficients
    step = max(1, SWEEP_BLOCK_ENTRIES // c.size)
    points = []
    for start in range(0, len(grid), step):
        block = grid[start : start + step]
        eps = np.array(block)
        _, value, cv, _, converged, _ = _solve_rows(c, p, eps, CONVERGENCE_TOL, SOLVE_MAX_ITER)
        bound = _cv_bound_rows(c.size, p, eps)
        points += map(ParetoPoint, block, value.tolist(), cv.tolist(), bound.tolist(), converged.tolist())
    return points
