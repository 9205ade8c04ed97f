"""Euclidean projections: simplex, nonnegative lp ball, and their intersection.

The fair region on the simplex is Delta_n intersected with the nonnegative
lp ball of radius 1 / (1 + eps D_p). Its projection is exact: dualizing
sum(x) = 1 with a multiplier mu leaves x(mu), the lp-ball projection of
y - mu e, whose sum never increases with mu, so one monotone root on mu
finds the optimum. At p = infinity x(mu) is a clip and the root is the
capped-simplex projection (Wang & Lu 2015, arXiv:1503.01002). The lp-ball
projection itself is a monotone root on the ball multiplier, and both
roots share one bracketed secant search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    check_exponent,
    dispersion_constant,
    _pnorm_rows,
)
from .fairness import FairnessSpec


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


def _simplex_threshold(y: np.ndarray) -> float:
    """The tau with sum(max(y - tau, 0)) = 1, by sort and threshold."""
    u = np.sort(y)[::-1]
    shifted = (np.cumsum(u) - 1.0) / np.arange(1, y.size + 1)
    # u[0] - shifted[0] = 1, so the index set is never empty
    return float(shifted[np.nonzero(u - shifted > 0)[0][-1]])


def project_simplex(y) -> SimplexVector:
    """Euclidean projection of a real vector onto the probability simplex."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"expected a 1-D vector of dimension >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    x = np.maximum(arr - _simplex_threshold(arr), 0.0)
    return SimplexVector(x / x.sum())


def _decreasing_root(f, a: float, fa: float, step: float, tol: float, max_evals: int):
    """Root of a nonincreasing f from a point a with f(a) = fa; step has the sign of fa.

    Trials step on from a, doubling the step, until f changes sign; then
    Illinois secant steps (bisection when one leaves the bracket) run until
    |f| <= tol, the bracket shrinks to adjacent floats, or max_evals
    evaluations are spent. Returns f at the last point evaluated (fa if
    none) and the evaluation count; callers read the root from state that
    f keeps, which belongs to that last point.
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
    while abs(fc) > tol and evals < max_evals:
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


def project_fair_region(
    y,
    spec: FairnessSpec,
    n: int | None = None,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> ProjectionResult:
    """Euclidean projection onto Delta_n intersected with the fair lp ball.

    x(mu), the nonnegative lp-ball projection of y - mu e, meets every
    optimality condition but sum = 1, and its sum never increases with mu.
    At the simplex threshold of y the sum is at most 1, so a monotone
    search down from there finds |sum x(mu) - 1| <= tol / 100 in at most
    max_iter evaluations of x(mu), which iterations counts. The point is
    x(mu) / sum x(mu); its residual, the larger of that sum gap and the
    point's violation of sum = 1, x >= 0 and the ball, certifies
    optimality, and a residual above tol is the failure signal.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"expected a 1-D vector of dimension >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if n is not None and n != arr.size:
        raise ValueError(f"dimension mismatch: n={n} but vector has {arr.size} entries")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n = arr.size

    if spec.epsilon == 1.0:
        # the feasible set is the single point e/n
        return ProjectionResult(point=SimplexVector.uniform(n), iterations=0, residual=0.0)

    scale = 1.0 + spec.epsilon * dispersion_constant(n, spec.p)
    radius = 1.0 / scale
    x = arr  # set by every call of sum_gap

    def sum_gap(mu: float) -> float:
        nonlocal x
        # the ball boundary is met far more tightly than the sum
        x, _, _ = _project_lp_ball_arr(arr - mu, spec.p, radius, 1e-13 * radius)
        return float(x.sum()) - 1.0

    tau = _simplex_threshold(arr)
    gap0 = sum_gap(tau)
    gap, evals = _decreasing_root(sum_gap, tau, gap0, gap0, 1e-2 * tol, max_iter - 1)
    point = x / x.sum()
    residual = max(
        abs(gap),
        abs(float(point.sum()) - 1.0),
        -float(point.min()),
        scale * float(_pnorm_rows(point, spec.p)) - 1.0,
    )
    return ProjectionResult(point=SimplexVector(point), iterations=1 + evals, residual=residual)
