import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairctl import (
    INFINITY,
    FairnessSpec,
    ObjectiveSpec,
    SimplexVector,
    is_fair,
    p_norm,
    project_fair_region,
    project_simplex,
    solve,
)

from fairctl.core import COLUMN_ROW_LIMIT, COLUMN_ROWS_PER_ENTRY, _pnorm_rows, dispersion_constant
from fairctl.fairness import cone_constraint
from fairctl.geometry import ProjectionRows, _capped_point, _coordinate_roots, _fair_newton, _sphere_point

import oracles

real_vectors = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6)


def feasible_samples(spec: FairnessSpec, n: int, count: int, seed: int) -> np.ndarray:
    """Random points of the fair region: shrink simplex samples toward e/n."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_exponential((count, n))
    rows = draws / draws.sum(axis=1, keepdims=True)
    uniform = np.full(n, 1.0 / n)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            cand = uniform + mid * (row - uniform)
            if is_fair(SimplexVector(cand / cand.sum()), spec, tol=0.0):
                lo = mid
            else:
                hi = mid
        out[i] = uniform + lo * (row - uniform)
    return out


class TestProjectSimplex:
    def test_identity_on_simplex_points(self):
        y = project_simplex([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(y.values, [0.2, 0.3, 0.5])

    def test_interior_example_matches_grid_oracle(self):
        y = project_simplex([0.6, 0.3, 0.3])
        np.testing.assert_allclose(y.values, [8.0 / 15, 3.5 / 15, 3.5 / 15], atol=1e-12)
        dist = float(np.linalg.norm(y.values - np.array([0.6, 0.3, 0.3])))
        oracle = oracles.grid_fair_projection_distance([0.6, 0.3, 0.3], 0.0, 2.0)
        assert abs(dist - oracle) <= 2e-4

    def test_dominant_coordinate_clamps_to_vertex(self):
        for top in (10.0, 1e17):  # past 2^53, y[0] - 1 rounds to y[0]
            np.testing.assert_array_equal(project_simplex([top, 0.0, 0.0]).values, [1, 0, 0])

    def test_all_negative_input(self):
        y = project_simplex([-1.0, -2.0, -3.0])
        assert y.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.values[0] == max(y.values)

    def test_tied_values_are_deterministic(self):
        a = project_simplex([0.7, 0.7, 0.1])
        b = project_simplex([0.7, 0.7, 0.1])
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values[0] == a.values[1]

    @settings(max_examples=80)
    @given(real_vectors)
    def test_beats_random_feasible_points(self, vals):
        y = np.asarray(vals)
        z = project_simplex(y).values
        rng = np.random.default_rng(3)
        draws = rng.standard_exponential((50, y.size))
        rows = draws / draws.sum(axis=1, keepdims=True)
        best = np.min(np.linalg.norm(rows - y, axis=1))
        assert np.linalg.norm(z - y) <= best + 1e-7


class TestProjectFairRegion:
    @pytest.mark.parametrize(
        "bad", [{"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf}, {"max_iter": 0}]
    )
    def test_bad_tolerance_or_cap_raises(self, bad):
        # a tolerance <= 0 or nan could never be met, and inf would call any point converged
        with pytest.raises(ValueError):
            project_fair_region([3.0, 1.0, 0.5], FairnessSpec(0.5, 4.0), **bad)

    def test_feasible_point_is_fixed_in_one_iteration(self):
        y = [0.3, 0.3, 0.4]
        for p in (2.0, 4.0, INFINITY):
            res = project_fair_region(y, FairnessSpec(0.2, p))
            np.testing.assert_allclose(res.point.values, y, atol=1e-12)
            assert res.iterations == 1

    @pytest.mark.parametrize("p", [2.0, 4.0, INFINITY])
    def test_inactive_ball_gives_the_simplex_point_in_one_iteration(self, p):
        # eps = 0 makes the ball vacuous for every y
        for y, eps in (([1.3, 1.3, 1.4], 0.2), ([2.0, -1.0, 0.5], 0.0), ([5.0, 1.0], 0.0)):
            res = project_fair_region(y, FairnessSpec(eps, p))
            np.testing.assert_allclose(res.point.values, project_simplex(y).values, atol=1e-15)
            assert res.iterations == 1

    def test_eps_one_returns_uniform(self):
        for p in (2.0, 7.0, INFINITY):
            res = project_fair_region([9.0, -3.0, 0.5], FairnessSpec(1.0, p))
            np.testing.assert_array_equal(res.point.values, np.full(3, 1.0 / 3.0))
            assert res.residual == 0.0
            assert res.iterations == 1
        # just below 1, r^2 can round below 1/n = ||e/n||^2 at p = 2
        for y in ([9.0, -3.0, 0.5, 2.0, 1.0, 0.0, 4.0], [1.0] * 5):
            for p in (2.0, INFINITY):
                res = project_fair_region(y, FairnessSpec(float(np.nextafter(1.0, 0.0)), p))
                assert np.abs(res.point.values - 1.0 / len(y)).max() <= 1e-7

    def test_vertex_to_infinity_ball_example(self):
        res = project_fair_region([1.0, 0.0, 0.0], FairnessSpec(0.5, INFINITY))
        np.testing.assert_allclose(res.point.values, [0.5, 0.25, 0.25], atol=1e-8)
        oracle = oracles.grid_fair_projection_distance([1.0, 0.0, 0.0], 0.5, INFINITY)
        dist = float(np.linalg.norm(res.point.values - np.array([1.0, 0.0, 0.0])))
        assert abs(dist - oracle) <= 2e-3

    def test_matches_grid_oracle_across_specs(self):
        rng = np.random.default_rng(17)
        combos = [(0.3, 2.0), (0.7, 4.0), (0.3, INFINITY), (0.7, 2.0)]
        for eps, p in combos:
            y = rng.uniform(-0.2, 1.2, size=3)
            res = project_fair_region(y, FairnessSpec(eps, p))
            assert res.residual <= 1e-8
            dist = float(np.linalg.norm(res.point.values - y))
            oracle = oracles.grid_fair_projection_distance(y, eps, p)
            assert abs(dist - oracle) <= 2e-3

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_matches_exact_projection_in_high_dimension(self, p):
        y = np.random.default_rng(41).standard_exponential(1000)
        res = project_fair_region(y, FairnessSpec(0.5, p))
        if p == 2.0:
            exact = oracles.exact_fair_projection_p2(y, 0.5)
        else:
            exact = oracles.capped_simplex_projection(y, 0.5)
        assert np.abs(res.point.values - exact).max() <= 1e-9
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_sort_based_forms_match_the_oracles(self, p):
        # signed, nine-decade, tied (S_k = 0 on the top ties) and nearly constant rows
        rng = np.random.default_rng(43)
        oracle = oracles.exact_fair_projection_p2 if p == 2.0 else oracles.capped_simplex_projection
        for n in (2, 3, 8, 60, 1000):
            rows = (
                rng.uniform(-2.0, 2.0, size=n),
                10.0 ** rng.uniform(-6.0, 3.0, size=n),
                rng.integers(0, 3, size=n).astype(float),
                1.0 + 1e-9 * rng.standard_normal(n),
            )
            for y in rows:
                eps = float(rng.uniform(0.05, 0.95))
                res = project_fair_region(y, FairnessSpec(eps, p))
                assert np.abs(res.point.values - oracle(y, eps)).max() <= 1e-10
                assert res.iterations == 1

    def test_p2_tied_top_entries(self):
        # S_2 = 0: no point on the top-2 support reaches the sphere, so the support is all three
        y = [1.0, 1.0, 0.0]
        res = project_fair_region(y, FairnessSpec(0.9, 2.0))
        assert res.point.values[2] > 0.0
        assert res.point.values[0] == res.point.values[1]
        assert np.abs(res.point.values - oracles.exact_fair_projection_p2(y, 0.9)).max() <= 1e-12

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_rows_near_1e8_keep_their_precision(self, p):
        # the oracles resolve such rows to about ulp(1e8) = 1.5e-8
        rng = np.random.default_rng(47)
        oracle = oracles.exact_fair_projection_p2 if p == 2.0 else oracles.capped_simplex_projection
        for n in (3, 7, 50, 200):
            y = 1e8 + rng.standard_exponential(n)
            for eps in (0.1, 0.5, 0.9):
                res = project_fair_region(y, FairnessSpec(eps, p))
                assert np.abs(res.point.values - oracle(y, eps)).max() <= 1e-7
                assert res.iterations == 1

    @pytest.mark.parametrize("p", [2.0, 4.0, 10.0, INFINITY])
    def test_entries_past_2_53_project_onto_the_e1_maximiser(self, p):
        # Proj(t e1) tends to the maximiser of x_1 as t grows. At p = 2 and p = infinity solve
        # runs the projection's own kernels, so the oracles judge 1e17 and the closed forms of
        # that maximiser judge 1e200, which no oracle resolves; at finite p, solve's root does.
        # (0, -1e17, -1e17) is the same row shifted.
        for n, top, shift in ((3, 1e17, 0.0), (5, 1e17, 0.0), (3, 1e17, -1e17), (3, 1e200, 0.0)):
            y = np.full(n, shift)
            y[0] = top + shift
            for eps in (0.25, 0.5):
                spec = FairnessSpec(eps, p)
                res = project_fair_region(y, spec)
                radius = oracles.fair_radius(n, eps, p)
                if p == 2.0 and top == 1e200:
                    t = math.sqrt((radius**2 - 1.0 / n) / (1.0 - 1.0 / n))
                    target = np.full(n, (1.0 - t) / n)
                    target[0] += t
                elif p == INFINITY and top == 1e200:
                    target = np.full(n, (1.0 - radius) / (n - 1))
                    target[0] = radius
                elif p == 2.0:
                    target = oracles.exact_fair_projection_p2(y - shift, eps)
                elif p == INFINITY:
                    target = oracles.capped_simplex_projection(y - shift, eps)
                else:
                    target = solve(ObjectiveSpec(np.eye(n)[0]), spec).x_opt.values
                assert np.abs(res.point.values - target).max() <= 1e-9
                assert res.residual <= 1e-8
                if top == 1e17:
                    assert res.iterations <= 50

    def test_capped_point_keeps_entries_below_ulp_of_the_max(self):
        # r = 0.4: y - max y would round 3 to 0 in the first row, and sums that run
        # through -1e17 would lose 3 and 2.95 in the second
        rows = (
            ([1e17, 0.0, 0.0, 3.0], [0.4, 0.1, 0.1, 0.4]),
            ([3.0, 2.95, 0.0, -1e17], [0.4, 0.4, 0.2, 0.0]),
        )
        for y, expected in rows:
            res = project_fair_region(y, FairnessSpec(0.5, INFINITY))
            np.testing.assert_allclose(res.point.values, expected, atol=1e-15)

    def test_finite_p_point_is_optimal_on_quantile_profile(self):
        n = 100
        y = -np.log1p(-(np.arange(n) + 0.5) / n)  # unit-exponential quantiles
        res = project_fair_region(y, FairnessSpec(0.5, 4.0))
        assert res.residual <= 1e-8
        assert oracles.fair_projection_kkt_residual(res.point.values, y, 0.5, 4.0) <= 1e-6

    @pytest.mark.parametrize("n", [6, 100, 1000])
    def test_finite_p_newton_is_optimal_in_few_evaluations(self, n):
        y = -np.log1p(-(np.arange(n) + 0.5) / n)  # unit-exponential quantiles
        res = project_fair_region(y, FairnessSpec(0.5, 4.0))
        assert res.residual <= 1e-8
        assert oracles.fair_projection_kkt_residual(res.point.values, y, 0.5, 4.0) <= 1e-9
        # on the ball, as tightly as the nested search met it
        radius = oracles.fair_radius(n, 0.5, 4.0)
        assert abs(oracles.hp_norm(res.point.values, 4.0) / radius - 1.0) <= 1e-12
        assert res.iterations <= 20

    @pytest.mark.parametrize("p", [3.0, 10.0, 50.0])
    def test_finite_p_newton_on_wide_and_signed_inputs(self, p):
        # entries over nine decades, and signed ones: supports change during the iteration
        rng = np.random.default_rng(int(p))
        for n in (2, 5, 100):
            for y in (10.0 ** rng.uniform(-6.0, 3.0, size=n), rng.uniform(-2.0, 2.0, size=n)):
                eps = float(rng.uniform(0.05, 0.95))
                res = project_fair_region(y, FairnessSpec(eps, p))
                assert res.residual <= 1e-8
                assert oracles.fair_projection_kkt_residual(res.point.values, y, eps, p) <= 1e-6
                ball_gap = oracles.hp_norm(res.point.values, p) / oracles.fair_radius(n, eps, p) - 1.0
                assert ball_gap <= 1e-12
                if res.iterations > 1:  # the ball is active: the point lies on it
                    assert ball_gap >= -1e-12
                assert res.iterations <= 50
        # an offset of 1e8, whose steps in mu round away unless the iteration runs on y - min y;
        # the point is unchanged by the shift, and the oracle resolves the shifted row
        y = np.array([100000000.5, 100000000.1, 100000000.9, 100000000.3])
        for eps in (0.5, 0.9):
            res = project_fair_region(y, FairnessSpec(eps, p))
            assert res.residual <= 1e-8
            assert oracles.fair_projection_kkt_residual(res.point.values, y - y.min(), eps, p) <= 1e-6
            # on the ball to the iteration's sum tolerance, 1e-2 tol
            ball_gap = oracles.hp_norm(res.point.values, p) / oracles.fair_radius(4, eps, p) - 1.0
            assert abs(ball_gap) <= 1e-10
            assert res.iterations <= 50

    def test_iteration_cap_counts_evaluations(self):
        y = -np.log1p(-(np.arange(50) + 0.5) / 50)
        res = project_fair_region(y, FairnessSpec(0.5, 4.0), max_iter=3)
        assert res.iterations == 3
        assert res.residual > 1e-8

    def test_converged_means_residual_within_tol(self):
        # the simplex point of y lies outside the p = 4 ball, so one evaluation cannot finish
        y = np.array([0.7, 0.2, 0.1])
        capped = project_fair_region(y, FairnessSpec(0.5, 4.0), max_iter=1)
        assert capped.converged is False
        assert capped.residual > 1e-8
        done = project_fair_region(y, FairnessSpec(0.5, 4.0))
        assert done.converged is True
        assert done.residual <= 1e-8

    def test_optimality_certificate(self):
        rng = np.random.default_rng(23)
        for eps, p in [(0.4, 2.0), (0.6, 4.0), (0.5, INFINITY)]:
            spec = FairnessSpec(eps, p)
            y = rng.uniform(-0.5, 1.5, size=4)
            z = project_fair_region(y, spec).point.values
            others = feasible_samples(spec, 4, 100, seed=int(eps * 100))
            dz = np.linalg.norm(z - y)
            for f in others:
                assert dz <= np.linalg.norm(f - y) + 1e-7

    def test_idempotence(self):
        rng = np.random.default_rng(29)
        for eps, p in [(0.3, 2.0), (0.5, 4.0), (0.8, INFINITY)]:
            y = rng.uniform(-0.5, 1.5, size=5)
            first = project_fair_region(y, FairnessSpec(eps, p)).point.values
            second = project_fair_region(first, FairnessSpec(eps, p)).point.values
            assert np.abs(second - first).max() <= 1e-8

    def test_feasibility_of_returned_points(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            eps = float(rng.uniform(0.05, 0.95))
            p = float(rng.choice([2.0, 3.0, 6.0, INFINITY]))
            n = int(rng.integers(2, 6))
            y = rng.uniform(-1.0, 2.0, size=n)
            res = project_fair_region(y, FairnessSpec(eps, p))
            x = res.point.values
            d = (n - 1.0) if math.isinf(p) else float(n) ** (1.0 - 1.0 / p) - 1.0
            assert abs(x.sum() - 1.0) <= 1e-8
            assert (1.0 + eps * d) * p_norm(res.point, p) <= 1.0 + 1e-8

    def test_non_expansiveness(self):
        rng = np.random.default_rng(37)
        spec = FairnessSpec(0.5, 4)
        for _ in range(10):
            y1 = rng.uniform(-1.0, 2.0, size=3)
            y2 = rng.uniform(-1.0, 2.0, size=3)
            z1 = project_fair_region(y1, spec).point.values
            z2 = project_fair_region(y2, spec).point.values
            assert np.linalg.norm(z1 - z2) <= np.linalg.norm(y1 - y2) + 1e-7


# ------------------------------------------- one-row reference kernels


def reference_simplex_point(y):
    """The one-row simplex kernel that the stacked one replaced: its point and threshold."""
    top = float(y.max())
    shifted = y - top
    u = np.sort(shifted)[::-1]
    levels = (np.cumsum(u) - 1.0) / np.arange(1, y.size + 1)
    level = float(levels[np.nonzero(u - levels > 0)[0][-1]])
    return np.maximum(shifted - level, 0.0), top + level


def reference_sphere_point(y, radius):
    """The one-row p = 2 kernel that the stacked one replaced: its point and mu."""
    top = float(y.max())
    v = (y - top) / (top - float(y.min()))
    u = np.sort(v)[::-1]
    k = np.arange(1, y.size + 1)
    square = max(radius * radius, 1.0 / y.size)
    mean = np.cumsum(u) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt((square - 1.0 / k) / (np.cumsum(u * u) - k * mean * mean))
        inside = 1.0 / k + s * (u - mean)
        past = np.append(-1.0 / k[:-1] - s[:-1] * (u[1:] - mean[:-1]), math.inf)
    size = int(np.nanargmax(np.minimum(inside, past))) + 1
    support = u[:size]
    centre = float(support.mean())
    scale = math.sqrt((square - 1.0 / size) / float(((support - centre) ** 2).sum()))
    mu = top + (centre - 1.0 / (size * scale)) * (top - float(y.min())) if scale > 0.0 else -math.inf
    return np.maximum(1.0 / size + scale * (v - centre), 0.0), mu


def reference_capped_point(y, radius):
    """The one-row p = infinity kernel that the stacked one replaced."""
    order = np.argsort(y, kind="stable")
    v = np.concatenate(([0.0], np.cumsum(np.minimum(np.diff(y[order]), 2.0 * radius))))
    both = np.concatenate((v - radius, v))
    rank = np.argsort(both, kind="stable")
    t = both[rank]
    low = np.cumsum(rank >= v.size)
    free_end = np.arange(1, t.size + 1) - low
    sums = np.concatenate(([0.0], np.cumsum(v)))
    f = (v.size - free_end) * radius + (sums[free_end] - sums[low]) - (free_end - low) * t
    j = max(int(np.count_nonzero(f >= 1.0)), 1) - 1
    lo, hi = low[j], free_end[j]
    mu = t[j] if lo == hi else ((v.size - hi) * radius + float(v[lo:hi].sum()) - 1.0) / (hi - lo)
    x = np.empty_like(y)
    x[order] = np.clip(v - mu, 0.0, radius)
    return x


def reference_coordinate_roots(w, p, kappa):
    """The Newton loop of _coordinate_roots before its temporaries were built in place."""
    lo = np.zeros_like(w)
    hi = w.copy()
    scale = float(hi.max())
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.minimum(w, w ** (1.0 / (p - 1.0)) / kappa)
        for _ in range(100):
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


def reference_projection(y, spec, tol=1e-8, max_iter=5000):
    """The one-row projection before stacked rows: point, evaluations, residual and verdict."""
    n = y.size
    if spec.epsilon == 1.0:
        return np.full(n, 1.0 / n), 1, 0.0, True
    p = spec.p
    radius = cone_constraint(n, spec).radius
    x, tau = reference_simplex_point(y)
    gap = ball_gap = 0.0
    evals = 0
    if float(_pnorm_rows(x, p)) > radius and x.min() < x.max():
        if p == 2.0:
            x, _ = reference_sphere_point(y, radius)
        elif p == INFINITY:
            x = reference_capped_point(y, radius)
        elif max_iter > 1:
            x, gap, ball_gap, evals = _fair_newton(y, p, radius, tau, tol, max_iter - 1)
    point = x / x.sum()
    residual = max(
        abs(gap),
        abs(ball_gap),
        abs(float(point.sum()) - 1.0),
        -float(point.min()),
        float(_pnorm_rows(point, p)) / radius - 1.0,
    )
    return point, 1 + evals, residual, residual <= tol


def bits(a) -> list:
    """The float64 values as integers, so that equal bits mean equal values, -0.0 and nan included."""
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


def stacked_rows(seed: int, count: int, n: int, permuted: bool = False) -> np.ndarray:
    """count rows of n entries, each of its own profile: spread, signed, tied, sparse, signed-zero, constant, 1e17.

    With permuted, every row is a permutation of the first, so all rows share their sorted slices.
    """
    rng = np.random.default_rng(seed)
    rows = np.empty((count, n))
    if permuted:
        first = stacked_rows(seed, 1, n)[0]
        return np.array([rng.permutation(first) for _ in range(count)])
    for row in rows:
        profile = rng.integers(7)
        if profile == 0:
            row[:] = rng.standard_exponential(n)
        elif profile == 1:
            row[:] = rng.uniform(-2.0, 2.0, n)
        elif profile == 2:
            row[:] = rng.integers(0, 3, n)
        elif profile == 3:
            row[:] = np.where(rng.random(n) < 0.5, 0.0, rng.standard_exponential(n))
        elif profile == 4:
            row[:] = rng.choice([0.0, -0.0, 1.0], n)
        elif profile == 5:
            row[:] = rng.uniform(-1.0, 1.0)
        else:
            row[:] = rng.standard_exponential(n)
            row[rng.integers(n)] = 1e17
    return rows


class TestStackedRows:
    """A stack of rows projects, bit for bit, as each row alone did through the one-row kernels."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 200),
        st.integers(1, 300),
        st.sampled_from([2.0, 3.0, 4.0, 10.0, INFINITY]),
        st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]),
        st.booleans(),
    )
    # past the column rule, just below it, past COLUMN_ROW_LIMIT, and one row
    @example(7, 2, 300, INFINITY, 0.5, False)
    @example(8, 9, COLUMN_ROWS_PER_ENTRY * 9, 2.0, 0.5, True)
    @example(9, 9, COLUMN_ROWS_PER_ENTRY * 9 - 1, 4.0, 0.5, False)
    @example(10, COLUMN_ROW_LIMIT + 1, 3, 2.0, 0.5, True)
    @example(11, 200, 1, INFINITY, float(np.nextafter(1.0, 0.0)), False)
    def test_rows_match_the_one_row_kernels(self, seed, n, count, p, eps, permuted):
        if p not in (2.0, INFINITY) and eps > 0.0:
            count = min(count, max(1, 3000 // n))  # the Newton iteration runs row by row
        rows = stacked_rows(seed, count, n, permuted)
        spec = FairnessSpec(eps, p)
        res = project_fair_region(rows, spec)
        assert isinstance(res, ProjectionRows)
        assert res.points.shape == rows.shape and not res.points.flags.writeable
        expected = [reference_projection(row, spec) for row in rows]
        for i, (point, evals, residual, converged) in enumerate(expected):
            assert bits(res.points[i]) == bits(point), i
            assert int(res.evaluations[i]) == evals, i
            assert bits(res.residuals[i]) == bits(residual), i
            assert bool(res.converged[i]) == converged, i
        assert res.iterations == sum(e[1] for e in expected)
        assert isinstance(res.iterations, int)
        # a vector is one row
        one = project_fair_region(rows[0], spec)
        point, evals, residual, converged = expected[0]
        assert bits(one.point.values) == bits(point)
        assert (one.iterations, bits(one.residual), one.converged) == (evals, bits(residual), converged)

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 200),
        st.integers(1, 300),
        st.sampled_from([2.0, INFINITY]),
        st.booleans(),
    )
    # past the column rule, one row, and rows that share their sorted slices
    @example(12, 3, COLUMN_ROWS_PER_ENTRY * 3, 2.0, True)
    @example(13, 3, COLUMN_ROWS_PER_ENTRY * 3, INFINITY, False)
    @example(14, 50, 1, 2.0, False)
    def test_sort_kernels_take_a_radius_per_row(self, seed, n, count, p, permuted):
        # each row of one call with a (k, 1) column of radii gives the bits of that row alone
        rows = stacked_rows(seed, count, n, permuted)
        if p == 2.0:
            rows[rows.min(axis=-1) == rows.max(axis=-1), 0] += 1.0  # the sphere kernel takes no constant row
        eps = np.random.default_rng(seed).uniform(0.0, 1.0, (len(rows), 1))
        radius = 1.0 / (1.0 + eps * dispersion_constant(n, p))
        if p == 2.0:
            points, mu = _sphere_point(rows, radius)
            alone = [_sphere_point(row, float(r)) for row, r in zip(rows, radius[:, 0])]
            assert bits(mu) == bits([m for _, m in alone])
            alone = [x for x, _ in alone]
        else:
            points = _capped_point(rows, radius)
            alone = [_capped_point(row, float(r)) for row, r in zip(rows, radius[:, 0])]
        assert bits(points) == bits(np.reshape(alone, points.shape))

    def test_a_bad_row_is_named(self):
        with pytest.raises(ValueError, match="row 1: entries must be finite"):
            project_fair_region([[1.0, 2.0], [math.nan, 1.0]], FairnessSpec(0.5, 2.0))
        for bad in ([[[1.0, 2.0]]], np.empty((0, 3)), [[1.0], [2.0]]):
            with pytest.raises(ValueError):
                project_fair_region(bad, FairnessSpec(0.5, 2.0))

    @settings(max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.sampled_from([2.5, 3.0, 4.0, 6.0, 10.0, 50.0, 300.0]),
        st.floats(1e-3, 1e3),
    )
    def test_coordinate_roots_keep_their_bits(self, seed, n, p, kappa):
        rng = np.random.default_rng(seed)
        w = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-6.0, 3.0, n))
        assert bits(_coordinate_roots(w, p, kappa)) == bits(reference_coordinate_roots(w, p, kappa))
