"""Euclidean projections onto the simplex and onto the fair region.

The fair region on the simplex is Delta_n intersected with the nonnegative
lp ball of radius r = 1 / (1 + eps D_p). When the simplex projection of y
lies in the ball it is the answer; otherwise the projection lies on the
ball and is exact. At p = 2 it is the point of the sphere ||x||_2 = r on
the support of the k largest y, and at p = infinity the capped-simplex
projection clip(y - mu, 0, r) (Wang & Lu 2015, arXiv:1503.01002); one sort
finds either. At finite p > 2 one safeguarded Newton iteration solves for
the point z, the multiplier mu of sum(x) = 1 and the ball multiplier kappa
together: each evaluation of z is one Newton step on all three, and z is
solved coordinate by coordinate only at the start and after a safeguard.

The sort kernels work along the last axis, as core's row kernels do: a
1-D vector is one row. ``project_fair_region`` also takes a (k, n) stack of
rows and returns ``ProjectionRows``: each sort kernel runs once over the
stack, and all k points are normalised and checked with one row sum and one
norm call; only the Newton iteration runs row by row.
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
    _check_simplex_rows,
    _pnorm_rows,
    _row_max,
    _row_sum,
    check_iterations,
    check_tolerance,
)
from .fairness import FairnessSpec, _radius_rows


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point with iteration count and worst remaining constraint violation."""

    point: NonNegVector
    iterations: int
    residual: float
    #: the residual is at most the tolerance the projection was asked for
    converged: bool


@dataclass(frozen=True)
class ProjectionRows:
    """The projections of k stacked rows: per row, what a ProjectionResult holds for one."""

    #: (k, n) points of the simplex, read-only
    points: np.ndarray
    #: evaluations of x per row
    evaluations: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray

    @property
    def iterations(self) -> int:
        """The call's total evaluations of x."""
        return int(self.evaluations.sum())


#: Default cap on evaluations of x per fair-region projection.
PROJECTION_MAX_ITER = 5000
#: Cap on safeguarded Newton steps per coordinate root.
_MAX_INNER = 100
#: Relative gap to the ball within which the fair-region projection meets it;
#: the ball is met far more tightly than the sum.
_BALL_TOL = 1e-13
#: Ulps within which a coordinate equation holds to rounding.
_ROUNDING = 4.0 * np.finfo(float).eps


def _slice_sums(rows: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """rows[i, start[i]:stop[i]].sum() for each row i of a 2-D block, bit for bit.

    numpy sums each row of a block along its last axis as it sums that row
    alone, so the rows that share a slice are summed as one block.
    """
    slices = set(zip(start.tolist(), stop.tolist()))
    sums = np.empty(len(rows))
    for a, b in slices:
        which = (start == a) & (stop == b) if len(slices) > 1 else slice(None)
        sums[which] = np.add.reduce(rows[which, a:b], -1)
    return sums


def _simplex_point(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex projection max(y - tau, 0) along the last axis and its threshold tau, by sort and threshold.

    The projection is unchanged by a shift of y, so it runs on y - max y:
    the entries it keeps lie within 1 of max y and round by at most half an
    ulp of 1, and entries past 2^53 no longer round the threshold away. tau
    has the shape of y without its last axis.
    """
    rows = y.reshape(-1, y.shape[-1])
    top = _row_max(rows)
    shifted = rows - top[:, None]
    u = np.sort(shifted)[:, ::-1]
    levels = (u.cumsum(-1) - 1.0) / np.arange(1, rows.shape[1] + 1)
    # u[0] - levels[0] = 1, so every row keeps an entry; its last kept entry sets the level
    last = rows.shape[1] - 1 - (u - levels > 0)[:, ::-1].argmax(-1)
    level = levels[np.arange(len(rows)), last]
    x = np.maximum(shifted - level[:, None], 0.0)
    return x.reshape(y.shape), (top + level).reshape(y.shape[:-1])


def project_simplex(y) -> SimplexVector:
    """Euclidean projection of a real vector onto the probability simplex."""
    x, _ = _simplex_point(_as_vector(y))
    return SimplexVector(x / x.sum())


def _sphere_point(y: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """p = 2, ball active: x = 1/k + s (y - mean) on the support of the k largest y, and its mu, along the last axis.

    On the support x = s (y - mu) with s = 1 / (1 + ball multiplier), so
    sum(x) = 1 fixes mu and ||x||^2 = 1/k + s^2 S_k, with S_k the squared
    deviations of those k entries from their mean, fixes s. Cumsums give
    every k at once; the k whose point is most clearly positive on its
    support and nonpositive past it is kept, and s is recomputed from that
    support alone. The point is unchanged by y -> a y + b (a > 0), so y is
    mapped onto [-1, 0] first, which keeps the squares finite. Where r^2
    rounds onto 1/n, s = 0, x = e/n and mu is its limit, -infinity. mu has
    the shape of y without its last axis. radius is one float, or a (k, 1)
    column of one per row.
    """
    rows = y.reshape(-1, y.shape[-1])
    n = rows.shape[1]
    top = _row_max(rows, True)
    spread = top - np.minimum.reduce(rows, -1, None, None, True)  # no row is constant: e/n never comes here
    v = (rows - top) / spread
    u = np.sort(v)[:, ::-1]
    k = np.arange(1, n + 1)
    r = np.reshape(radius, (-1, 1))
    square = np.maximum(r * r, 1.0 / n)  # r^2 >= 1/n, but can round below it near eps = 1
    mean = u.cumsum(-1) / k
    past = np.empty_like(u)
    past[:, -1] = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        # nan where no point on that support reaches the sphere (r^2 < 1/k, or S_k = 0)
        s = np.sqrt((square - 1.0 / k) / ((u * u).cumsum(-1) - k * mean * mean))
        inside = 1.0 / k + s * (u - mean)  # x at the smallest entry of the support
        np.subtract(-1.0 / k[:-1], s[:, :-1] * (u[:, 1:] - mean[:, :-1]), out=past[:, :-1])  # -x at the next
        score = np.minimum(inside, past)
        np.copyto(score, -math.inf, where=np.isnan(score))  # as nanargmax; k = n is never nan: S_n > 0
        size = score.argmax(-1) + 1
        start = np.zeros_like(size)
        centre = _slice_sums(u, start, size) / size
        scale = np.sqrt((square[:, 0] - 1.0 / size) / _slice_sums((u - centre[:, None]) ** 2, start, size))
        mu = np.where(scale > 0.0, top[:, 0] + (centre - 1.0 / (size * scale)) * spread[:, 0], -math.inf)
    x = np.maximum(1.0 / size[:, None] + scale[:, None] * (v - centre[:, None]), 0.0)
    return x.reshape(y.shape), mu.reshape(y.shape[:-1])


def _capped_point(y: np.ndarray, radius) -> np.ndarray:
    """p = infinity, ball active: clip(y - mu, 0, r) with sum 1 along the last axis, by sorted breakpoints.

    The sum f(mu) falls piecewise linearly, with breakpoints at the y_i and
    y_i - r. Cumsums give f at every breakpoint, and mu follows from the
    free entries (y_i - r < mu < y_i) of the piece where f crosses 1. All of
    it runs on v, the sorted y with each gap wider than 2r cut to 2r: no
    free set spans such a gap, so the point is the same, and v lies in
    [0, 2 r n], so its sums keep every entry however large or wide y is.
    radius is one float, or a (k, 1) column of one per row.
    """
    rows = y.reshape(-1, y.shape[-1])
    n = rows.shape[1]
    radius = np.reshape(radius, (-1, 1))
    r = np.arange(len(rows))[:, None]  # the row of each gathered entry
    order = rows.argsort(kind="stable")
    ascending = rows[r, order]
    v = np.zeros(rows.shape)
    np.minimum(ascending[:, 1:] - ascending[:, :-1], 2.0 * radius).cumsum(-1, out=v[:, 1:])
    both = np.concatenate((v - radius, v), axis=-1)
    rank = both.argsort(kind="stable")
    t = both[r, rank]
    low = (rank >= n).cumsum(-1)  # entries with v <= t: x = 0 once mu > t
    free_end = np.arange(1, 2 * n + 1) - low  # entries with v - r <= t: x < r once mu > t
    sums = np.zeros((len(rows), n + 1))
    v.cumsum(-1, out=sums[:, 1:])
    f = (n - free_end) * radius + (sums[r, free_end] - sums[r, low]) - (free_end - low) * t
    # f falls from n r >= 1 to 0: mu is in [t[j], t[j+1]]
    j = np.maximum((f >= 1.0).sum(-1), 1)[:, None] - 1
    lo, hi = low[r, j][:, 0], free_end[r, j][:, 0]  # the free entries there
    # where lo == hi no entry is free and mu = t[j]; the divisor only keeps that branch finite
    free_mu = ((n - hi) * radius[:, 0] + _slice_sums(v, lo, hi) - 1.0) / np.maximum(hi - lo, 1)
    mu = np.where(lo == hi, t[r, j][:, 0], free_mu)
    x = np.empty_like(rows)
    x[r, order] = np.clip(v - mu[:, None], 0.0, radius)
    return x.reshape(y.shape)


def _coordinate_roots(w: np.ndarray, p: float, kappa: float) -> np.ndarray:
    """Solve z + (kappa z)^(p-1) = w_i per coordinate on [0, w_i].

    Newton from min(w, w^(1/(p-1)) / kappa), an upper bound on the root: the
    left side is convex in z, so the iterates fall monotonically onto it.
    Steps that overflow at large p, or leave the bracket, fall back to
    bisection of it; the bracket is finite, so a step is kept only when it
    lies within.
    """
    lo = np.zeros_like(w)
    hi = w.copy()
    stop = 1e-16 * max(float(hi.max()), 1.0)
    slope = (p - 1.0) * kappa
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.minimum(w, w ** (1.0 / (p - 1.0)) / kappa)
        for _ in range(_MAX_INNER):
            kz = kappa * z
            g = kz ** (p - 1.0)
            g += z
            g -= w
            np.copyto(lo, z, where=g < 0)
            np.copyto(hi, z, where=g > 0)
            denominator = kz ** (p - 2.0)
            denominator *= slope
            denominator += 1.0
            g /= denominator
            cand = z - g
            bad = ~((cand >= lo) & (cand <= hi))
            if bad.any():
                cand = np.where(bad, 0.5 * (lo + hi), cand)
            done = np.abs(cand - z).max() <= stop
            z = cand
            if done:
                break
    return z


def _fair_newton(y: np.ndarray, p: float, radius: float, tau: float, tol: float, max_evals: int):
    """Finite p > 2 with the ball active: Newton on (z, mu, kappa) for sum z = 1 and ||z||_p = radius.

    z solves F = z + (kappa z)^(p-1) - (y - mu)_+ = 0 per coordinate. One evaluation is one
    Newton step on all of it: with dz/dw = 1 / (1 + (p-1) kappa^(p-1) z^(p-2)) and dz/dkappa,
    the linear system reduces to the 2 x 2 one on (mu, kappa), whose gaps carry the correction
    -F dz/dw. z then moves with the step, linearly in mu and in kappa as the power law of its
    two regimes (z = w where the power term vanishes, z ~ 1/kappa where it rules), clipped to
    [min(w/2, 2^(1/(1-p)) h), min(w, h)] with h = w^(1/(p-1)) / kappa, which holds its root: 0
    off the support, and a coordinate that enters starts near its root. ``_coordinate_roots``
    gives the exact z (F = 0) at the start, after a safeguard step, and always past p = 2^52.

    It runs on y - min y, where steps of mu resolve however far y is offset. The start
    mu = min(tau, min y) - 1/n puts every coordinate in the support, and kappa = 1 / radius
    is the scale of the root. An exact point narrows a bracket on mu, whose upper end starts
    at the smaller of tau and the second-largest y, when the sign of its sum gap at the
    ball's own kappa is settled: on the ball, gaps of opposite signs, or a first-order kappa
    correction under a quarter of the sum gap. There a step out of the bracket bisects it, or
    doubles down while its lower end is open; elsewhere a step out of the bracket, a kappa
    that is not positive and finite, or a step that moves nothing or reverses a shorter one
    re-solves z where it stands. Where such a step's sign is open, or z is on the ball up to
    its scale, kappa alone steps. The iteration stops where the sum and ball tests hold, F is
    zero to rounding, and z / sum z is on the ball as tightly as z, or mu's rounding allows
    no closer point. Returns z, both gaps and the evaluation count.
    """
    n = y.size
    y, tau = y - y.min(), tau - float(y.min())
    mu, kappa = min(tau, 0.0) - 1.0 / n, 1.0 / radius
    lo, hi = -math.inf, min(tau, float(np.partition(y, n - 2)[n - 2]))
    evals, last, z = 0, 0.0, None
    jac = np.empty((3, n))  # rows: the correction -F dz/dw, dz/dmu and dz/dkappa
    widen = 1.0 + 1e-12 / (p - 1.0)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        while True:
            w = np.maximum(y - mu, 0.0)
            exact = z is None or p > 2.0**52  # there one ulp of z moves (kappa z)^(p-1) by a factor e
            if exact:
                z = _coordinate_roots(w, p, kappa)
            else:
                h = w ** (1.0 / (p - 1.0)) / kappa
                # widened, h bounds the root though 1/(p-1) rounds: that moves h by up to ln(w) ulp(1/(p-1))
                z = np.fmin(np.fmax(z, np.minimum(0.5 * w, 0.5 ** (1.0 / (p - 1.0)) * h)), np.minimum(w, h * widen))
            evals += 1
            kz = kappa * z
            slope = kz ** (p - 2.0)
            power = slope * kz  # (kappa z)^(p-1)
            f = 0.0 if exact else z + power - w  # F of an exact z is 0, also where the power overflows
            peak = z.max()  # the norm, max-factored as in _pnorm_rows, and its gradient from one block
            ratio_power = (z / peak) ** (p - 1.0)
            norm = peak * float(z @ ratio_power / peak) ** (1.0 / p)
            sum_gap, ball_gap = float(z.sum()) - 1.0, norm / radius - 1.0
            # the tests, and F zero to rounding, where y - mu rounds by ulp(y) too
            met = abs(sum_gap) <= 1e-2 * tol and abs(ball_gap) <= _BALL_TOL
            met = met and (exact or bool((np.abs(f) <= _ROUNDING * (z + p * power + w + y)).all()))
            if met and abs(ball_gap - sum_gap) <= _BALL_TOL or evals >= max_evals:
                return z, sum_gap, ball_gap, evals
            gaps = sum_gap, ball_gap
            u = 1.0 / ((p - 1.0) * slope)  # inf where the power term vanishes, which keeps huge p finite
            np.divide(w > 0.0, -1.0 - kappa / u, out=jac[1])
            np.divide(-z, kappa + u, out=jac[2])
            np.multiply(f, jac[1], out=jac[0])
            weight = ratio_power * ((peak / norm) ** (p - 1.0) / radius)  # the gradient of norm / radius
            # the gaps of the exact z to first order, and their derivatives; nan, not an exception, if singular
            (ds, s_mu, s_kappa), (db, b_mu, b_kappa) = jac.sum(1).tolist(), (jac @ weight).tolist()
            sum_gap, ball_gap, b_kappa = sum_gap + ds, ball_gap + db, b_kappa or math.nan
            det = s_mu * b_kappa - s_kappa * b_mu or math.nan
            step = (ball_gap * s_kappa - sum_gap * b_kappa) / det
            new_kappa = kappa + (sum_gap * b_mu - ball_gap * s_mu) / det
            if met and mu + step == mu:
                return (z, *gaps, evals)
            settled = sum_gap * ball_gap < 0.0 or abs(ball_gap) <= _BALL_TOL
            settled = settled or abs(s_kappa * ball_gap / b_kappa) <= 0.25 * abs(sum_gap)
            if exact:
                if settled:
                    lo, hi = (mu, hi) if sum_gap > 0.0 else (lo, mu)
                rejected = not lo < mu + step < hi
            else:
                rejected = step * last < -last * last or (mu + step == mu and new_kappa == kappa)
                rejected = rejected or not (lo < mu + step < hi and 0.0 < new_kappa < math.inf)
            if abs(ball_gap - sum_gap) <= _BALL_TOL or rejected and not settled:
                step, new_kappa = 0.0, kappa - ball_gap / b_kappa
            elif rejected and not exact:
                z = None
                continue
            elif rejected:
                step = (0.5 * (lo + hi) if lo > -math.inf else hi - 2.0 * max(hi - mu, 1.0 / n)) - mu
                new_kappa, z = kappa - (ball_gap + b_mu * step) / b_kappa, None
            if not 0.0 < new_kappa < math.inf:
                new_kappa, z = 0.5 * kappa, None
            if z is not None:
                z = (z + jac[0] + step * jac[1]) * (kappa / new_kappa) ** (1.0 + jac[1])
            mu, kappa, last = mu + step, new_kappa, step


def _first_max(*terms: np.ndarray) -> np.ndarray:
    """Elementwise max(*terms) as Python's max takes it.

    The first of equal values wins, so 0.0 beats a later -0.0, and nan wins only in first place.
    """
    best = terms[0]
    for term in terms[1:]:
        best = np.where(term > best, term, best)
    return best


def _project_rows(rows: np.ndarray, spec: FairnessSpec, tol: float, max_iter: int) -> ProjectionRows:
    """The projections of a (k, n) stack of validated rows."""
    count, n = rows.shape
    evaluations = np.ones(count, dtype=int)
    if spec.epsilon == 1.0:
        # the feasible set is the single point e/n
        points = np.full((count, n), 1.0 / n)
        residuals = np.zeros(count)
        totals = _row_sum(points)
    else:
        p = spec.p
        radius = _radius_rows(n, p, spec.epsilon)
        x, tau = _simplex_point(rows)
        gap = np.zeros(count)
        ball_gap = np.zeros(count)
        # e/n is fair even where r rounds below it
        active = np.flatnonzero((_pnorm_rows(x, p) > radius) & (x.min(axis=-1) < _row_max(x)))
        if p == 2.0:
            x[active] = _sphere_point(rows[active], radius)[0]
        elif p == INFINITY:
            x[active] = _capped_point(rows[active], radius)
        elif max_iter > 1:
            for i in active.tolist():
                x[i], gap[i], ball_gap[i], evals = _fair_newton(rows[i], p, radius, float(tau[i]), tol, max_iter - 1)
                evaluations[i] += evals
        points = x / _row_sum(x, True)
        totals = _row_sum(points)
        residuals = _first_max(
            np.abs(gap),
            np.abs(ball_gap),
            np.abs(totals - 1.0),
            -points.min(axis=-1),
            _pnorm_rows(points, p) / radius - 1.0,
        )
    _check_simplex_rows(points, totals)
    points.flags.writeable = False
    return ProjectionRows(
        points=points,
        evaluations=evaluations,
        residuals=residuals,
        converged=residuals <= tol,
    )


def project_fair_region(
    y,
    spec: FairnessSpec,
    tol: float = CONVERGENCE_TOL,
    max_iter: int = PROJECTION_MAX_ITER,
) -> ProjectionResult | ProjectionRows:
    """Euclidean projection onto Delta_n intersected with the fair lp ball.

    When the simplex projection of y, the point at the simplex threshold
    tau, lies in the ball, it is the answer. Otherwise, at p = 2 and
    p = infinity, the exact sort-based forms give the point on the ball;
    at finite p > 2 one Newton iteration on x, the multiplier mu of
    sum(x) = 1 and the ball multiplier kappa (``_fair_newton``) meets both
    the sum and the ball; an evaluation of x is one Newton step on all
    three, or an exact solve of x at the start and after a safeguard step.
    iterations counts evaluations of x, at most max_iter, and is 1 at
    eps = 1, at p = 2 and at p = infinity. The point is x / sum x; its
    residual, the larger of the remaining sum and ball gaps and the point's
    violation of sum = 1, x >= 0 and the ball, certifies optimality, and a
    residual above tol is the failure signal.

    y is one vector, which gives a ProjectionResult, or a (k, n) stack of
    rows, which gives ProjectionRows: each row's point, evaluations,
    residual and verdict, exactly as the row alone gives them, and the
    call's total evaluations as its iterations. max_iter caps each row.
    """
    arr = _as_vector(y, stacked=True)
    tol = check_tolerance(tol)
    max_iter = check_iterations(max_iter)
    if arr.ndim == 2:
        return _project_rows(arr, spec, tol, max_iter)
    res = _project_rows(arr[None], spec, tol, max_iter)
    return ProjectionResult(
        point=SimplexVector(res.points[0]),
        iterations=res.iterations,
        residual=float(res.residuals[0]),
        converged=bool(res.converged[0]),
    )
