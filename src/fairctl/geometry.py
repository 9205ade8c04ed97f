"""Euclidean projections onto the simplex and onto the fair region.

The fair region on the simplex is Delta_n intersected with the nonnegative
lp ball of radius r = 1 / (1 + eps D_p). When the simplex projection of y
lies in the ball it is the answer; otherwise the projection lies on the
ball and is exact. At p = 2 it is the point of the sphere ||x||_2 = r on
the support of the k largest y, and at p = infinity the capped-simplex
projection clip(y - mu, 0, r) (Wang & Lu 2015, arXiv:1503.01002); one sort
finds either. At finite p > 2 one safeguarded Newton iteration solves for
the multiplier mu of sum(x) = 1 and the ball multiplier kappa together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENCE_TOL,
    INFINITY,
    NonNegVector,
    SimplexVector,
    _as_vector,
    _pnorm_rows,
    check_iterations,
    check_tolerance,
)
from .fairness import FairnessSpec, cone_constraint


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point with iteration count and worst remaining constraint violation."""

    point: NonNegVector
    iterations: int
    residual: float
    #: the residual is at most the tolerance the projection was asked for
    converged: bool


#: Default cap on evaluations of x per fair-region projection.
PROJECTION_MAX_ITER = 5000
#: Cap on safeguarded Newton steps per coordinate root.
_MAX_INNER = 100
#: Relative gap to the ball within which the fair-region projection meets it;
#: the ball is met far more tightly than the sum.
_BALL_TOL = 1e-13


def _simplex_point(y: np.ndarray) -> tuple[np.ndarray, float]:
    """The simplex projection max(y - tau, 0) and its threshold tau, by sort and threshold.

    The projection is unchanged by a shift of y, so it runs on y - max y:
    the entries it keeps lie within 1 of max y and round by at most half an
    ulp of 1, and entries past 2^53 no longer round the threshold away.
    """
    top = float(y.max())
    shifted = y - top
    u = np.sort(shifted)[::-1]
    levels = (np.cumsum(u) - 1.0) / np.arange(1, y.size + 1)
    # u[0] - levels[0] = 1, so the index set is never empty
    level = float(levels[np.nonzero(u - levels > 0)[0][-1]])
    return np.maximum(shifted - level, 0.0), top + level


def project_simplex(y) -> SimplexVector:
    """Euclidean projection of a real vector onto the probability simplex."""
    x, _ = _simplex_point(_as_vector(y))
    return SimplexVector(x / x.sum())


def _sphere_point(y: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """p = 2, ball active: x = 1/k + s (y - mean) on the support of the k largest y, and its mu.

    On the support x = s (y - mu) with s = 1 / (1 + ball multiplier), so
    sum(x) = 1 fixes mu and ||x||^2 = 1/k + s^2 S_k, with S_k the squared
    deviations of those k entries from their mean, fixes s. Cumsums give
    every k at once; the k whose point is most clearly positive on its
    support and nonpositive past it is kept, and s is recomputed from that
    support alone. The point is unchanged by y -> a y + b (a > 0), so y is
    mapped onto [-1, 0] first, which keeps the squares finite. Where r^2
    rounds onto 1/n, s = 0, x = e/n and mu is its limit, -infinity.
    """
    top = float(y.max())
    v = (y - top) / (top - float(y.min()))  # y is not constant: e/n never comes here
    u = np.sort(v)[::-1]
    k = np.arange(1, y.size + 1)
    square = max(radius * radius, 1.0 / y.size)  # r^2 >= 1/n, but can round below it near eps = 1
    mean = np.cumsum(u) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        # nan where no point on that support reaches the sphere (r^2 < 1/k, or S_k = 0)
        s = np.sqrt((square - 1.0 / k) / (np.cumsum(u * u) - k * mean * mean))
        inside = 1.0 / k + s * (u - mean)  # x at the smallest entry of the support
        past = np.append(-1.0 / k[:-1] - s[:-1] * (u[1:] - mean[:-1]), math.inf)  # -x at the next
    size = int(np.nanargmax(np.minimum(inside, past))) + 1  # k = n is never nan: S_n > 0
    support = u[:size]
    centre = float(support.mean())
    scale = math.sqrt((square - 1.0 / size) / float(((support - centre) ** 2).sum()))
    mu = top + (centre - 1.0 / (size * scale)) * (top - float(y.min())) if scale > 0.0 else -math.inf
    return np.maximum(1.0 / size + scale * (v - centre), 0.0), mu


def _capped_point(y: np.ndarray, radius: float) -> np.ndarray:
    """p = infinity, ball active: clip(y - mu, 0, r) with sum 1, by sorted breakpoints.

    The sum f(mu) falls piecewise linearly, with breakpoints at the y_i and
    y_i - r. Cumsums give f at every breakpoint, and mu follows from the
    free entries (y_i - r < mu < y_i) of the piece where f crosses 1. All of
    it runs on v, the sorted y with each gap wider than 2r cut to 2r: no
    free set spans such a gap, so the point is the same, and v lies in
    [0, 2 r n], so its sums keep every entry however large or wide y is.
    """
    order = np.argsort(y, kind="stable")
    v = np.concatenate(([0.0], np.cumsum(np.minimum(np.diff(y[order]), 2.0 * radius))))
    both = np.concatenate((v - radius, v))
    rank = np.argsort(both, kind="stable")
    t = both[rank]
    low = np.cumsum(rank >= v.size)  # entries with v <= t: x = 0 once mu > t
    free_end = np.arange(1, t.size + 1) - low  # entries with v - r <= t: x < r once mu > t
    sums = np.concatenate(([0.0], np.cumsum(v)))
    f = (v.size - free_end) * radius + (sums[free_end] - sums[low]) - (free_end - low) * t
    j = max(int(np.count_nonzero(f >= 1.0)), 1) - 1  # f falls from n r >= 1 to 0: mu is in [t[j], t[j+1]]
    lo, hi = low[j], free_end[j]  # the free entries there
    mu = t[j] if lo == hi else ((v.size - hi) * radius + float(v[lo:hi].sum()) - 1.0) / (hi - lo)
    x = np.empty_like(y)
    x[order] = np.clip(v - mu, 0.0, radius)
    return x


def _coordinate_roots(w: np.ndarray, p: float, kappa: float) -> np.ndarray:
    """Solve z + (kappa z)^(p-1) = w_i per coordinate on [0, w_i].

    Newton from min(w, w^(1/(p-1)) / kappa), an upper bound on the root: the
    left side is convex in z, so the iterates fall monotonically onto it.
    Steps that overflow at large p fall back to bisection of the bracket.
    """
    lo = np.zeros_like(w)
    hi = w.copy()
    scale = float(hi.max())
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.minimum(w, w ** (1.0 / (p - 1.0)) / kappa)
        for _ in range(_MAX_INNER):
            kz = kappa * z
            g = z + kz ** (p - 1.0) - w
            lo = np.where(g < 0, z, lo)
            hi = np.where(g > 0, z, hi)
            cand = z - g / (1.0 + (p - 1.0) * kappa * kz ** (p - 2.0))
            bad = ~np.isfinite(cand) | (cand < lo) | (cand > hi)
            cand = np.where(bad, 0.5 * (lo + hi), cand)
            done = np.abs(cand - z).max() <= 1e-16 * max(scale, 1.0)
            z = cand
            if done:
                break
    return z


def _fair_newton(y: np.ndarray, p: float, radius: float, tau: float, tol: float, max_evals: int):
    """Finite p > 2 with the ball active: Newton on (mu, kappa) for sum z = 1 and ||z||_p = radius.

    z(mu, kappa) solves z + (kappa z)^(p-1) = (y - mu)_+ per coordinate;
    both conditions fall in mu and in kappa, and the implicit-function
    derivatives dz/dw = 1 / (1 + (p-1) kappa^(p-1) z^(p-2)) and
    dz/dkappa = -dz/dw (p-1) kappa^(p-2) z^(p-1) give the Jacobian. The
    point is unchanged by a shift of y, so it runs on y - min y, where the
    steps of mu resolve however far y is offset (on y - max y they need not). The
    start mu = min(tau, min y) - 1/n puts every coordinate in the support
    (the Jacobian is singular when the z on it are equal), and
    kappa = 1 / radius is the scale of the root.

    mu moves only from a point where the sign of the sum gap at the ball's
    own kappa is settled: the point is on the ball, the two gaps have
    opposite signs (then the sign is exact), or the first-order kappa
    correction of the sum gap is under a quarter of it. Such points narrow
    a bracket on mu whose upper end starts at the smaller of tau and the
    second-largest y (fewer than two coordinates cannot sum to 1 on a ball
    of radius < 1); a step out of it bisects it, or doubles down while its
    lower end is open. Elsewhere kappa alone takes a Newton step. Returns
    z, both gaps and the evaluation count.
    """
    n = y.size
    y, tau = y - y.min(), tau - float(y.min())
    mu = min(tau, 0.0) - 1.0 / n
    kappa = 1.0 / radius
    lo, hi = -math.inf, min(tau, float(np.partition(y, n - 2)[n - 2]))
    evals = 0
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        while True:
            support = y > mu
            z = _coordinate_roots(np.where(support, y - mu, 0.0), p, kappa)
            evals += 1
            norm = float(_pnorm_rows(z, p))
            sum_gap, ball_gap = float(z.sum()) - 1.0, norm / radius - 1.0
            if (abs(sum_gap) <= 1e-2 * tol and abs(ball_gap) <= _BALL_TOL) or evals >= max_evals:
                return z, sum_gap, ball_gap, evals
            # 1 / ((p-1) (kappa z)^(p-2)), inf where the power term vanishes, keeps huge p finite
            u = 1.0 / ((p - 1.0) * (kappa * z) ** (p - 2.0))
            dz_dw = np.where(support, 1.0 / (1.0 + kappa / u), 0.0)
            dz_dkappa = -z / (kappa + u)
            weight = (z / norm) ** (p - 1.0) / radius  # gradient of norm / radius
            # numpy scalars, so that a singular Jacobian gives inf or nan, not an exception
            s_mu, s_kappa = -dz_dw.sum(), dz_dkappa.sum()
            b_mu, b_kappa = -(weight @ dz_dw), weight @ dz_dkappa
            settled = (
                sum_gap * ball_gap < 0.0
                or abs(ball_gap) <= _BALL_TOL
                or abs(s_kappa * ball_gap / b_kappa) <= 0.25 * abs(sum_gap)
            )
            if settled:
                if sum_gap > 0.0:
                    lo = mu
                else:
                    hi = mu
                det = s_mu * b_kappa - s_kappa * b_mu
                step = (ball_gap * s_kappa - sum_gap * b_kappa) / det
                if lo < mu + step < hi:
                    new_kappa = kappa + (sum_gap * b_mu - ball_gap * s_mu) / det
                else:
                    step = (0.5 * (lo + hi) if lo > -math.inf else hi - 2.0 * max(hi - mu, 1.0 / n)) - mu
                    new_kappa = kappa - (ball_gap + b_mu * step) / b_kappa
                mu += step
            else:
                new_kappa = kappa - ball_gap / b_kappa
            kappa = new_kappa if 0.0 < new_kappa < math.inf else 0.5 * kappa


def project_fair_region(
    y,
    spec: FairnessSpec,
    tol: float = CONVERGENCE_TOL,
    max_iter: int = PROJECTION_MAX_ITER,
) -> ProjectionResult:
    """Euclidean projection onto Delta_n intersected with the fair lp ball.

    When the simplex projection of y, the point at the simplex threshold
    tau, lies in the ball, it is the answer. Otherwise, at p = 2 and
    p = infinity, the exact sort-based forms give the point on the ball;
    at finite p > 2 one Newton iteration on the multiplier mu of
    sum(x) = 1 and the ball multiplier kappa (``_fair_newton``) meets both
    the sum and the ball. iterations counts evaluations of x, at most
    max_iter, and is 1 at eps = 1, at p = 2 and at p = infinity. The point
    is x / sum x; its residual, the larger of the remaining sum and ball
    gaps and the point's violation of sum = 1, x >= 0 and the ball,
    certifies optimality, and a residual above tol is the failure signal.
    """
    arr = _as_vector(y)
    tol = check_tolerance(tol)
    max_iter = check_iterations(max_iter)
    n = arr.size

    if spec.epsilon == 1.0:
        # the feasible set is the single point e/n
        return ProjectionResult(point=SimplexVector.uniform(n), iterations=1, residual=0.0, converged=True)

    p = spec.p
    radius = cone_constraint(n, spec).radius
    x, tau = _simplex_point(arr)
    gap = ball_gap = 0.0
    evals = 0
    if float(_pnorm_rows(x, p)) > radius and x.min() < x.max():  # e/n is fair even where r rounds below it
        if p == 2.0:
            x, _ = _sphere_point(arr, radius)
        elif p == INFINITY:
            x = _capped_point(arr, radius)
        elif max_iter > 1:
            x, gap, ball_gap, evals = _fair_newton(arr, p, radius, tau, tol, max_iter - 1)
    point = x / x.sum()
    residual = max(
        abs(gap),
        abs(ball_gap),
        abs(float(point.sum()) - 1.0),
        -float(point.min()),
        float(_pnorm_rows(point, p)) / radius - 1.0,
    )
    return ProjectionResult(
        point=SimplexVector(point), iterations=1 + evals, residual=residual, converged=residual <= tol
    )
