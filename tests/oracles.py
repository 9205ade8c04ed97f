"""Independent reference computations used to pin expected test values.

Everything here is deliberately written from definitions (high-precision
arithmetic, dense grids, vertex enumeration) and stays off the library's
code paths, so a bug cannot cancel itself out of a comparison.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from mpmath import mp, mpf

mp.dps = 50


def hp_norm(values, p) -> float:
    """lp norm evaluated with 50 significant digits."""
    if math.isinf(p):
        return float(max(values))
    total = sum(mpf(float(v)) ** p for v in values if v > 0)
    return float(total ** (mpf(1) / p))


def cv_definition(values) -> float:
    """Coefficient of variation straight from the definition with mean 1/n."""
    arr = np.asarray(values, dtype=float)
    mu = 1.0 / arr.size
    return math.sqrt(np.mean((arr - mu) ** 2)) / mu


def fd_power_sum_derivative(values, p: float, h: float = 1e-5) -> float:
    """Centered finite difference of sum x_i^p in p."""
    arr = np.asarray(values, dtype=float)
    pos = arr[arr > 0]
    return float(((pos ** (p + h)).sum() - (pos ** (p - h)).sum()) / (2.0 * h))


def _simplex_grid(step: float):
    """All (x1, x2, x3) grid points of the 3-simplex at the given step."""
    axis = np.arange(0.0, 1.0 + step / 2, step)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    x3 = 1.0 - x1 - x2
    keep = x3 >= -1e-12
    return x1[keep], x2[keep], np.maximum(x3[keep], 0.0)


def _ball_mask(x1, x2, x3, p: float, radius: float):
    if math.isinf(p):
        norm = np.maximum(np.maximum(x1, x2), x3)
    else:
        norm = (x1**p + x2**p + x3**p) ** (1.0 / p)
    return norm <= radius


def fair_radius(n: int, eps: float, p: float) -> float:
    d = (n - 1.0) if math.isinf(p) else float(n) ** (1.0 - 1.0 / p) - 1.0
    return 1.0 / (1.0 + eps * d)


def grid_fair_projection_distance(y, eps: float, p: float, fine: float = 1e-4) -> float:
    """Min distance from y to the 3-dim fair region by coarse-then-refined grid.

    A full dense sweep at the fine step is equivalent for this convex
    objective; the coarse pass just locates the window to refine.
    """
    y = np.asarray(y, dtype=float)
    radius = fair_radius(3, eps, p)

    def best(x1, x2, x3):
        keep = _ball_mask(x1, x2, x3, p, radius)
        if not keep.any():
            return None, math.inf
        d2 = (x1 - y[0]) ** 2 + (x2 - y[1]) ** 2 + (x3 - y[2]) ** 2
        d2 = np.where(keep, d2, np.inf)
        i = int(np.argmin(d2))
        return (x1[i], x2[i]), float(d2[i])

    coarse = 2e-3
    (b1, b2), _ = best(*_simplex_grid(coarse))
    w = 3 * coarse
    a1 = np.arange(max(b1 - w, 0.0), min(b1 + w, 1.0) + fine / 2, fine)
    a2 = np.arange(max(b2 - w, 0.0), min(b2 + w, 1.0) + fine / 2, fine)
    x1, x2 = np.meshgrid(a1, a2, indexing="ij")
    x1, x2 = x1.ravel(), x2.ravel()
    x3 = 1.0 - x1 - x2
    keep = x3 >= -1e-12
    x1, x2, x3 = x1[keep], x2[keep], np.maximum(x3[keep], 0.0)
    _, d2 = best(x1, x2, x3)
    return math.sqrt(d2)


def grid_max_linear(c, eps: float, p: float, step: float = 1e-3) -> float:
    """Max of c . x over the 3-dim fair region on a dense grid."""
    c = np.asarray(c, dtype=float)
    radius = fair_radius(3, eps, p)
    x1, x2, x3 = _simplex_grid(step)
    keep = _ball_mask(x1, x2, x3, p, radius)
    vals = c[0] * x1 + c[1] * x2 + c[2] * x3
    return float(np.where(keep, vals, -np.inf).max())


def lp_vertex_max(c, eps: float) -> float:
    """Exact max of c . x over {x in simplex, x_i <= radius} by vertex enumeration.

    Every vertex pins n-1 of the bound constraints {x_i = 0, x_i = radius}
    together with the sum-to-one equality.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    radius = fair_radius(n, eps, math.inf)
    best = -math.inf
    bounds = [(i, 0.0) for i in range(n)] + [(i, radius) for i in range(n)]
    for active in itertools.combinations(range(2 * n), n - 1):
        rows = [np.ones(n)]
        rhs = [1.0]
        for a in active:
            i, val = bounds[a]
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row)
            rhs.append(val)
        mat = np.array(rows)
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        v = np.linalg.solve(mat, np.array(rhs))
        if (v >= -1e-10).all() and (v <= radius + 1e-10).all():
            best = max(best, float(c @ v))
    return best


def _simplex_projection(y) -> np.ndarray:
    """Projection onto the simplex by bisection on the threshold t of max(y - t, 0).

    The threshold lies within 1 below max y, so the bisection runs on
    y - max y over [-1, 0], where it resolves entries past 2^53.
    """
    y = np.asarray(y, dtype=float)
    y = y - y.max()
    lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    x = np.maximum(y - 0.5 * (lo + hi), 0.0)
    return x / x.sum()


def exact_fair_projection_p2(y, eps: float) -> np.ndarray:
    """Projection onto the p = 2 fair region as Proj_simplex(alpha * y).

    Stationarity gives x = Proj_simplex(y / (1 + lam)) for the ball
    multiplier lam >= 0, and the norm of Proj_simplex(alpha * y) grows with
    alpha, so bisection on alpha in (0, 1] finds the point on the ball.
    """
    y = np.asarray(y, dtype=float)
    radius = fair_radius(y.size, eps, 2.0)
    x = _simplex_projection(y)
    if np.linalg.norm(x) <= radius:
        return x
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(_simplex_projection(mid * y)) > radius:
            hi = mid
        else:
            lo = mid
    return _simplex_projection(lo * y)


def capped_simplex_projection(y, eps: float) -> np.ndarray:
    """Projection onto {sum x = 1, 0 <= x <= r}, the p = infinity fair region.

    The point is clip(y - t, 0, r) and its sum falls as t grows, so
    bisection on the threshold t finds sum = 1.
    """
    y = np.asarray(y, dtype=float)
    radius = fair_radius(y.size, eps, math.inf)
    lo, hi = float(y.min()) - 1.0, float(y.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(y - mid, 0.0, radius).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(y - 0.5 * (lo + hi), 0.0, radius)


def fair_projection_kkt_residual(x, y, eps: float, p: float) -> float:
    """Worst violation of the optimality conditions of x = Proj(y) at finite p.

    x is the projection onto {x >= 0, sum x = 1, ||x||_p <= r} iff it is
    feasible and y - x = mu + lam * g on its support, y <= mu off it, with
    lam >= 0 and lam = 0 off the ball, where g = (x / ||x||_p)^(p-1) is the
    gradient of the norm. mu and lam are fitted by least squares; the
    gradient is evaluated with 50-digit arithmetic, so p may be large.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    radius = fair_radius(x.size, eps, p)
    norm = mpf(hp_norm(x, p))
    support = x > 1e-12
    g = np.array([float((mpf(float(v)) / norm) ** (p - 1)) for v in x[support]])
    design = np.column_stack([np.ones(g.size), g])
    target = (y - x)[support]
    (mu, lam), *_ = np.linalg.lstsq(design, target, rcond=None)
    if lam < 0.0:
        mu, lam = float(target.mean()), 0.0
    residual = float(np.abs(target - mu - lam * g).max())
    if (~support).any():
        residual = max(residual, float((y[~support] - mu).max()))
    on_ball = abs(float(norm) - radius) / radius
    feasibility = max(abs(float(x.sum()) - 1.0), -float(x.min()), float(norm) / radius - 1.0)
    return max(residual, lam * on_ball, feasibility)


def linear_max_dual_bound(c, eps: float, p: float) -> float:
    """max c . x over the (eps, p) fair region, from above, with 50 significant digits.

    For every mu, g(mu) = mu + r ||(c - mu)_+||_q with 1/p + 1/q = 1 bounds
    the maximum (weak duality), and its minimum equals it. A float search
    locates the minimiser (the best c_i at p = infinity, where g is
    piecewise linear; bisection on the sign of g' otherwise), and g is then
    evaluated there in 50-digit arithmetic, so the bound is tight up to the
    flatness of g at its minimum, far below the test tolerances.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if eps == 1.0:
        return float(mp.fsum(mpf(float(v)) for v in c) / n)
    if math.isinf(p):
        d, q = mpf(n - 1), mpf(1)
        gaps = np.maximum(c[None, :] - c[:, None], 0.0).sum(axis=1)
        mu = float(c[np.argmin(c + fair_radius(n, eps, p) * gaps)])
    else:
        d, q = mpf(n) ** (1 - 1 / mpf(p)) - 1, mpf(p) / (mpf(p) - 1)
        r = fair_radius(n, eps, p)
        power = 1.0 / (p - 1.0)

        def slope(mu: float) -> float:
            a = np.maximum(c - mu, 0.0)
            if not a.any():
                return 1.0
            ratios = np.where(a > 0, (a / a.max()) ** power, 0.0)
            norm_ratio = (np.where(a > 0, (a / a.max()) ** (1.0 + power), 0.0).sum()) ** (power / (1.0 + power))
            return 1.0 - r * float(ratios.sum() / norm_ratio)

        hi = float(c.max())
        width = max(hi - float(c.min()), 1.0)
        lo = hi - width
        while slope(lo) > 0.0:
            lo -= width
            width *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        mu = hi
    radius = 1 / (1 + mpf(eps) * d)
    mu_hp = mpf(mu)
    excess = [mpf(float(v)) - mu_hp for v in c if v > mu]
    if not excess:
        return float(mu_hp)
    return float(mu_hp + radius * mp.fsum(a**q for a in excess) ** (1 / q))
