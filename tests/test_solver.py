import math

import numpy as np
import pytest

from fairctl import (
    INFINITY,
    FairnessSpec,
    ObjectiveSpec,
    SimplexVector,
    is_fair,
    p_norm,
    pareto_sweep,
    solve,
)

import oracles

C321 = ObjectiveSpec([3.0, 2.0, 1.0])


class TestObjectiveSpec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObjectiveSpec([1.0, math.inf])

    def test_value_and_gradient(self):
        assert C321.value(SimplexVector([0.5, 0.5, 0.0])) == pytest.approx(2.5)
        np.testing.assert_array_equal(C321.gradient, [3.0, 2.0, 1.0])


class TestSolve:
    def test_eps_one_returns_mean(self):
        for p in (2, 5, INFINITY):
            res = solve(C321, FairnessSpec(1.0, p))
            assert res.converged
            assert res.objective_value == pytest.approx(2.0, abs=1e-12)
            np.testing.assert_allclose(res.x_opt.values, np.full(3, 1 / 3), atol=1e-12)

    def test_eps_zero_reaches_best_vertex(self):
        for p in (2, 4, INFINITY):
            res = solve(C321, FairnessSpec(0.0, p))
            assert res.converged
            assert res.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_infinity_instance_vs_vertex_oracle(self):
        res = solve(C321, FairnessSpec(0.5, INFINITY))
        assert res.converged
        assert res.objective_value == pytest.approx(2.5, abs=1e-6)
        np.testing.assert_allclose(sorted(res.x_opt.values), [0.0, 0.5, 0.5], atol=1e-7)
        assert res.objective_value == pytest.approx(
            oracles.lp_vertex_max([3.0, 2.0, 1.0], 0.5), abs=1e-6
        )

    def test_p2_instance_vs_grid_oracle(self):
        res = solve(C321, FairnessSpec(0.5, 2))
        oracle = oracles.grid_max_linear([3.0, 2.0, 1.0], 0.5, 2.0, step=1e-3)
        assert abs(res.objective_value - oracle) <= 2e-3

    def test_solution_is_feasible_and_diagnosed(self):
        spec = FairnessSpec(0.4, 4)
        res = solve(C321, spec)
        assert is_fair(res.x_opt, spec, tol=1e-7)
        assert res.eps_max_at_opt >= spec.epsilon - 1e-7
        assert res.cv_at_opt >= 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve(C321, FairnessSpec(0.5, 2), n=4)

    def test_random_instances_match_oracles(self):
        rng = np.random.default_rng(101)
        for trial in range(6):
            c = rng.uniform(-1.0, 3.0, size=3)
            obj = ObjectiveSpec(c)
            eps = float(rng.uniform(0.1, 0.9))
            res_inf = solve(obj, FairnessSpec(eps, INFINITY))
            assert abs(res_inf.objective_value - oracles.lp_vertex_max(c, eps)) <= 2e-3
            res_p2 = solve(obj, FairnessSpec(eps, 2))
            assert abs(
                res_p2.objective_value - oracles.grid_max_linear(c, eps, 2.0)
            ) <= 2e-3


class TestParetoSweep:
    def test_three_point_example(self):
        points = pareto_sweep(C321, INFINITY, eps_grid=[0.0, 0.5, 1.0])
        values = [pt.objective_value for pt in points]
        assert values == pytest.approx([3.0, 2.5, 2.0], abs=1e-6)
        assert points[-1].cv == pytest.approx(0.0, abs=1e-7)
        assert points[-1].cv_bound == 0.0

    def test_endpoint_values(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-2.0, 2.0, size=4)
        points = pareto_sweep(ObjectiveSpec(c), 2, eps_grid=[0.0, 1.0])
        assert points[0].objective_value == pytest.approx(float(c.max()), abs=1e-6)
        assert points[1].objective_value == pytest.approx(float(c.mean()), abs=1e-12)

    def test_objective_monotone_in_eps(self):
        rng = np.random.default_rng(9)
        c = rng.uniform(-1.0, 3.0, size=4)
        grid = [k / 10 for k in range(11)]
        points = pareto_sweep(ObjectiveSpec(c), INFINITY, eps_grid=grid)
        vals = [pt.objective_value for pt in points]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_cv_respects_bound(self):
        points = pareto_sweep(C321, 2, eps_grid=[0.0, 0.3, 0.6, 1.0])
        for pt in points:
            assert pt.cv**2 <= pt.cv_bound + 1e-7

    def test_p_ordering_at_fixed_eps(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            c = ObjectiveSpec(rng.uniform(0.0, 2.0, size=3))
            lo = solve(c, FairnessSpec(0.5, INFINITY)).objective_value
            hi = solve(c, FairnessSpec(0.5, 2)).objective_value
            assert lo <= hi + 1e-6

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[])
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[0.4, 0.2])
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[0.5, 1.5])
