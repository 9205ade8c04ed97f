"""Euclidean projections: simplex, nonnegative lp ball, and their intersection.

The fair region on the simplex is Delta_n intersected with the nonnegative
lp ball of radius 1 / (1 + eps D_p). Its projection is exact. Dualizing
sum(x) = 1 with a multiplier mu leaves x(mu), the lp-ball projection of
y - mu e, whose sum never increases with mu. At p = 2 x(mu) is a radial
scaling and at p = infinity a clip, so one monotone root on mu finds the
optimum; at p = infinity that root is the capped-simplex projection (Wang &
Lu 2015, arXiv:1503.01002). At finite p > 2 x(mu) needs the ball
multiplier kappa as well, so one safeguarded Newton iteration solves for
mu and kappa together. The lp-ball projection alone is a monotone root on
kappa, and the monotone roots share one bracketed secant search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    check_exponent,
    _as_vector,
    _pnorm_rows,
)
from .fairness import FairnessSpec, cone_constraint


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point with iteration count and worst remaining constraint violation."""

    point: NonNegVector
    iterations: int
    residual: float


#: Cap on multiplier evaluations in one lp-ball projection.
_MAX_OUTER = 200
#: Cap on safeguarded Newton steps per coordinate root.
_MAX_INNER = 100
#: Relative gap to the ball within which the fair-region projection meets it;
#: the ball is met far more tightly than the sum.
_BALL_TOL = 1e-13


def _simplex_threshold(y: np.ndarray) -> float:
    """The tau with sum(max(y - tau, 0)) = 1, by sort and threshold."""
    u = np.sort(y)[::-1]
    shifted = (np.cumsum(u) - 1.0) / np.arange(1, y.size + 1)
    # u[0] - shifted[0] = 1, so the index set is never empty
    return float(shifted[np.nonzero(u - shifted > 0)[0][-1]])


def project_simplex(y) -> SimplexVector:
    """Euclidean projection of a real vector onto the probability simplex."""
    arr = _as_vector(y)
    x = np.maximum(arr - _simplex_threshold(arr), 0.0)
    return SimplexVector(x / x.sum())


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


def _project_lp_ball_arr(
    y: np.ndarray, p: float, radius: float, tol: float
) -> tuple[np.ndarray, int, float]:
    """Projection of a real vector onto {z >= 0 : ||z||_p <= radius}.

    Negative inputs clip to zero first (their optimal coordinate is 0).
    At finite p > 2, stationarity z + lam p z^(p-1) = w becomes
    z + (kappa z)^(p-1) = w with kappa = (lam p)^(1/(p-1)), which is on the
    scale of 1 / radius for every p (the root as p -> infinity), so the
    search on kappa, where the norm falls, starts there.
    """
    base = np.maximum(y, 0.0)
    if p == INFINITY:
        return np.minimum(base, radius), 0, 0.0
    norm = float(_pnorm_rows(base, p)) if base.any() else 0.0
    if norm <= radius:
        return base, 0, 0.0
    if p == 2.0:
        z = base * (radius / norm)
        return z, 0, max(0.0, float(np.linalg.norm(z)) - radius)

    pos = base > 0
    w = z = base[pos]  # z(0) = w: no shrinkage

    def gap(kappa: float) -> float:
        nonlocal z
        z = _coordinate_roots(w, p, kappa)
        return float(_pnorm_rows(z, p)) - radius

    last_gap, iterations = _decreasing_root(gap, 0.0, norm - radius, 1.0 / radius, tol, _MAX_OUTER)
    out = np.zeros_like(base)
    out[pos] = z
    return out, iterations, max(0.0, last_gap)


def project_lp_ball(y: NonNegVector, p: float, radius: float, tol: float = 1e-10) -> ProjectionResult:
    """Euclidean projection onto the nonnegative lp ball of the given radius.

    p = 2 is radial scaling and p = infinity a coordinate clip; finite p > 2
    searches the ball multiplier until |norm - radius| <= tol.
    Non-convergence within the iteration caps shows as a residual above
    tol, never an exception.
    """
    p = check_exponent(p)
    radius = float(radius)
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius!r}")
    z, iterations, residual = _project_lp_ball_arr(y.values, p, radius, tol)
    return ProjectionResult(point=NonNegVector(z), iterations=iterations, residual=residual)


def _fair_newton(y: np.ndarray, p: float, radius: float, tau: float, tol: float, max_evals: int):
    """Finite p > 2 with the ball active: Newton on (mu, kappa) for sum z = 1 and ||z||_p = radius.

    z(mu, kappa) solves z + (kappa z)^(p-1) = (y - mu)_+ per coordinate;
    both conditions fall in mu and in kappa, and the implicit-function
    derivatives dz/dw = 1 / (1 + (p-1) kappa^(p-1) z^(p-2)) and
    dz/dkappa = -dz/dw (p-1) kappa^(p-2) z^(p-1) give the Jacobian. The
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
    mu = min(tau, float(y.min())) - 1.0 / n
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
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> ProjectionResult:
    """Euclidean projection onto Delta_n intersected with the fair lp ball.

    When the simplex projection of y, the point at the simplex threshold
    tau, lies in the ball, it is the answer. Otherwise, at p = 2 and
    p = infinity, x(mu), the nonnegative lp-ball projection of y - mu e,
    meets every optimality condition but sum = 1, and its sum never
    increases with mu, so a monotone search down from tau finds
    |sum x(mu) - 1| <= tol / 100; at finite p > 2 one Newton iteration on
    mu and the ball multiplier kappa (``_fair_newton``) meets both the sum
    and the ball. iterations counts evaluations of x, at most max_iter. The
    point is x / sum x; its residual, the larger of the remaining sum and
    ball gaps and the point's violation of sum = 1, x >= 0 and the ball,
    certifies optimality, and a residual above tol is the failure signal.
    """
    arr = _as_vector(y)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n = arr.size

    if spec.epsilon == 1.0:
        # the feasible set is the single point e/n
        return ProjectionResult(point=SimplexVector.uniform(n), iterations=0, residual=0.0)

    p = spec.p
    radius = cone_constraint(n, spec).radius
    tau = _simplex_threshold(arr)
    ball_gap = 0.0
    if p == 2.0 or p == INFINITY:
        x = arr  # set by every call of sum_gap

        def sum_gap(mu: float) -> float:
            nonlocal x
            x, _, _ = _project_lp_ball_arr(arr - mu, p, radius, _BALL_TOL * radius)
            return float(x.sum()) - 1.0

        gap0 = sum_gap(tau)
        gap, evals = _decreasing_root(sum_gap, tau, gap0, gap0, 1e-2 * tol, max_iter - 1)
    else:
        x, gap, evals = np.maximum(arr - tau, 0.0), 0.0, 0
        if max_iter > 1 and float(_pnorm_rows(x, p)) > radius:
            x, gap, ball_gap, evals = _fair_newton(arr, p, radius, tau, tol, max_iter - 1)
    point = x / x.sum()
    residual = max(
        abs(gap),
        abs(ball_gap),
        abs(float(point.sum()) - 1.0),
        -float(point.min()),
        float(_pnorm_rows(point, p)) / radius - 1.0,
    )
    return ProjectionResult(point=SimplexVector(point), iterations=1 + evals, residual=residual)
