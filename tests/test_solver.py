import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairctl

from fairctl import (
    INFINITY,
    FairnessSpec,
    ObjectiveSpec,
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


def assert_optimal(res, c, eps, p, tol=1e-8):
    """Feasible in 50-digit arithmetic, converged, and within tol of the 50-digit dual bound."""
    x = res.x_opt.values
    n = x.size
    assert res.converged
    assert res.duality_gap <= tol
    assert abs(x.sum() - 1.0) <= 1e-12 and x.min() >= 0.0
    assert oracles.hp_norm(x, p) <= oracles.fair_radius(n, eps, p) * (1.0 + 1e-12)
    assert res.objective_value == pytest.approx(float(np.asarray(c) @ x), abs=1e-15 * n)
    bound = oracles.linear_max_dual_bound(c, eps, p)
    assert -1e-12 <= bound - res.objective_value <= tol


class TestExactMaximiser:
    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0, INFINITY])
    def test_matches_the_dual_bound(self, n, p):
        rng = np.random.default_rng(n)
        for eps in (0.2, 0.5, 0.9):
            c = rng.uniform(-1.0, 3.0, size=n)
            assert_optimal(solve(ObjectiveSpec(c), FairnessSpec(eps, p)), c, eps, p)

    @pytest.mark.parametrize("p", ["1e4", "1e308"])
    def test_huge_exponents_in_a_child_process(self, tmp_path, p):
        # a child process, so that a hang fails this test instead of stalling the suite
        code = (
            "import json, sys, numpy as np\n"
            "from fairctl import solve, ObjectiveSpec, FairnessSpec\n"
            "out = []\n"
            "for n in (2, 3, 50, 1000):\n"
            "    c = np.random.default_rng(n).uniform(-1.0, 3.0, size=n)\n"
            "    for eps in (0.2, 0.5, 0.9):\n"
            f"        res = solve(ObjectiveSpec(c), FairnessSpec(eps, {p}))\n"
            "        out.append([c.tolist(), eps, res.x_opt.values.tolist(), res.objective_value,\n"
            "                    res.converged, res.duality_gap])\n"
            "json.dump(out, sys.stdout)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fairctl.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        for c, eps, x, value, converged, gap in json.loads(proc.stdout):
            assert converged and gap <= 1e-8
            x = np.array(x)
            assert abs(x.sum() - 1.0) <= 1e-12 and x.min() >= 0.0
            # at p = 1e308 the norm is the largest entry to 300 digits
            norm = x.max() if p == "1e308" else oracles.hp_norm(x, float(p))
            assert norm <= oracles.fair_radius(x.size, eps, float(p)) * (1.0 + 1e-12)
            bound = oracles.linear_max_dual_bound(c, eps, float(p))
            assert -1e-12 <= bound - value <= 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0])
    def test_three_dimensions_vs_grid_oracle(self, p):
        rng = np.random.default_rng(int(p))
        for _ in range(3):
            c = rng.uniform(-1.0, 3.0, size=3)
            eps = float(rng.uniform(0.1, 0.9))
            res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
            grid = oracles.grid_max_linear(c, eps, p, step=1e-3)
            # the grid holds feasible points only, so it never beats the optimum
            assert grid - 1e-12 <= res.objective_value <= grid + 2e-3

    def test_infinity_vs_vertex_oracle_with_ties(self):
        for c in ([3.0, 3.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.5, 0.5]):
            for eps in (0.1, 0.4, 0.8):
                res = solve(ObjectiveSpec(c), FairnessSpec(eps, INFINITY))
                assert res.objective_value == pytest.approx(oracles.lp_vertex_max(c, eps), abs=1e-12)
                assert_optimal(res, c, eps, INFINITY)

    @pytest.mark.parametrize("p", [2.0, 4.0, 1e4, INFINITY])
    def test_constant_objective_gives_the_uniform_point(self, p):
        for eps in (0.0, 0.5, 1.0):
            res = solve(ObjectiveSpec([0.7] * 5), FairnessSpec(eps, p))
            np.testing.assert_allclose(res.x_opt.values, np.full(5, 0.2), atol=1e-15)
            assert res.converged and res.iterations == 0

    @pytest.mark.parametrize("p", [2.0, 4.0, INFINITY])
    def test_ties_share_the_mass_while_they_fit(self, p):
        c = [2.0, 1.0, 2.0, 0.0]
        # eps = 0 and a small eps: the uniform point on the two ties lies in the ball
        for eps in (0.0, 0.05):
            res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
            np.testing.assert_array_equal(res.x_opt.values, [0.5, 0.0, 0.5, 0.0])
            assert res.objective_value == 2.0 and res.duality_gap == 0.0
        res = solve(ObjectiveSpec(c), FairnessSpec(0.6, p))
        assert res.x_opt.values[0] == pytest.approx(res.x_opt.values[2], abs=1e-12)
        assert_optimal(res, c, 0.6, p)

    @pytest.mark.parametrize("p", [2.0, 10.0, INFINITY])
    def test_eps_one_is_the_mean_and_eps_zero_the_best_coordinate(self, p):
        c = np.random.default_rng(8).uniform(-1.0, 3.0, size=50)
        top = solve(ObjectiveSpec(c), FairnessSpec(0.0, p))
        assert top.objective_value == float(c.max()) and top.iterations == 0
        mean = solve(ObjectiveSpec(c), FairnessSpec(1.0, p))
        assert mean.objective_value == pytest.approx(float(c.mean()), abs=1e-15)
        np.testing.assert_array_equal(mean.x_opt.values, np.full(50, 1.0 / 50))

    def test_iteration_cap_is_reported_as_not_converged(self):
        c = np.random.default_rng(4).uniform(-1.0, 3.0, size=50)
        res = solve(ObjectiveSpec(c), FairnessSpec(0.5, 4.0), max_iter=2)
        assert res.iterations <= 2
        assert not res.converged and res.duality_gap > 1e-8
        # the point is still feasible: it mixes two points on the ball
        assert oracles.hp_norm(res.x_opt.values, 4.0) <= oracles.fair_radius(50, 0.5, 4.0) * (1 + 1e-12)


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
