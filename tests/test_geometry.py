import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairctl import (
    INFINITY,
    FairnessSpec,
    NonNegVector,
    SimplexVector,
    is_fair,
    p_norm,
    project_fair_region,
    project_lp_ball,
    project_simplex,
)

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
        np.testing.assert_array_equal(project_simplex([10.0, 0.0, 0.0]).values, [1, 0, 0])

    def test_all_negative_input(self):
        y = project_simplex([-1.0, -2.0, -3.0])
        assert y.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.values[0] == max(y.values)

    def test_tied_values_are_deterministic(self):
        a = project_simplex([0.7, 0.7, 0.1])
        b = project_simplex([0.7, 0.7, 0.1])
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values[0] == a.values[1]

    @settings(max_examples=80, deadline=None)
    @given(real_vectors)
    def test_beats_random_feasible_points(self, vals):
        y = np.asarray(vals)
        z = project_simplex(y).values
        rng = np.random.default_rng(3)
        draws = rng.standard_exponential((50, y.size))
        rows = draws / draws.sum(axis=1, keepdims=True)
        best = np.min(np.linalg.norm(rows - y, axis=1))
        assert np.linalg.norm(z - y) <= best + 1e-7


class TestProjectLpBall:
    def test_interior_point_unchanged(self):
        x = NonNegVector([0.3, 0.2, 0.1])
        res = project_lp_ball(x, 3, radius=1.0)
        np.testing.assert_array_equal(res.point.values, x.values)
        assert res.residual == 0.0

    def test_infinity_is_clip(self):
        res = project_lp_ball(NonNegVector([0.9, 0.05, 0.05]), INFINITY, radius=0.5)
        np.testing.assert_allclose(res.point.values, [0.5, 0.05, 0.05], atol=1e-15)

    def test_p2_is_radial_scaling(self):
        res = project_lp_ball(NonNegVector([3.0, 4.0]), 2, radius=1.0)
        np.testing.assert_allclose(res.point.values, [0.6, 0.8], atol=1e-12)

    def test_symmetric_p4_example(self):
        res = project_lp_ball(NonNegVector([1.0, 1.0]), 4, radius=1.0)
        target = 2.0 ** (-1.0 / 4.0)
        np.testing.assert_allclose(res.point.values, [target, target], atol=1e-9)
        assert res.residual <= 1e-10
        # 1-d grid oracle along the symmetry line z * (1, 1)
        zs = np.arange(0.0, 1.0 + 5e-6, 1e-5)
        feasible = zs[2.0 * zs**4 <= 1.0]
        dists = np.abs(feasible - 1.0) * math.sqrt(2.0)
        best = feasible[np.argmin(dists)]
        assert res.point.values[0] == pytest.approx(best, abs=1e-5)

    def test_norm_lands_on_boundary_for_exterior_points(self):
        rng = np.random.default_rng(5)
        for p in (2.5, 4.0, 8.0, 33.0, 1e4):
            y = NonNegVector(rng.uniform(0.3, 1.5, size=5))
            res = project_lp_ball(y, p, radius=0.6)
            assert p_norm(res.point, p) == pytest.approx(0.6, abs=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_lp_ball(NonNegVector([1.0, 1.0]), 4, radius=0.0)


class TestProjectFairRegion:
    def test_feasible_point_is_fixed_in_one_iteration(self):
        y = [0.3, 0.3, 0.4]
        res = project_fair_region(y, FairnessSpec(0.2, 2))
        np.testing.assert_allclose(res.point.values, y, atol=1e-12)
        assert res.iterations == 1

    def test_eps_one_returns_uniform(self):
        res = project_fair_region([9.0, -3.0, 0.5], FairnessSpec(1.0, 7))
        np.testing.assert_array_equal(res.point.values, np.full(3, 1.0 / 3.0))
        assert res.residual == 0.0

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

    def test_finite_p_point_is_optimal_on_quantile_profile(self):
        n = 100
        y = -np.log1p(-(np.arange(n) + 0.5) / n)  # unit-exponential quantiles
        res = project_fair_region(y, FairnessSpec(0.5, 4.0))
        assert res.residual <= 1e-8
        assert oracles.fair_projection_kkt_residual(res.point.values, y, 0.5, 4.0) <= 1e-6

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_fair_region([0.5, 0.5], FairnessSpec(0.5, 2), n=3)

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
