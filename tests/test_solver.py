import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairctl

from fairctl import (
    INFINITY,
    FairnessSpec,
    ObjectiveSpec,
    cv_bound,
    eps_max,
    is_fair,
    p_norm,
    pareto_sweep,
    solve,
)

import oracles

C321 = ObjectiveSpec([3.0, 2.0, 1.0])
ONE = float(np.nextafter(1.0, 0.0))
SIGNED_ZEROS = np.array([0.0, -0.0, 1.0, -1.0, 1.0, 0.0])


@st.composite
def _objectives(draw):
    """Normal, tied, constant and past-SCALE_BOUND objectives of 2 to 30 entries."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "constant", "huge", "huge ties"]))
    c = rng.integers(0, 3, n).astype(float) if "ties" in kind else rng.standard_normal(n)
    if kind == "constant":
        c[:] = c[0]
    return c * 1e300 if "huge" in kind else c


# ascending grids that hold 0, nextafter(1, 0), 1 and a repeated eps
_grids = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).map(lambda v: sorted(v + v[:1] + [0.0, ONE, 1.0]))


class TestObjectiveSpec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObjectiveSpec([1.0, math.inf])


class TestSolve:
    @pytest.mark.parametrize("bad", [{"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"max_iter": 0}])
    def test_bad_tolerance_or_cap_raises(self, bad):
        # tol = inf would stop at once and call a point with a gap of 0.55 converged
        with pytest.raises(ValueError):
            solve(C321, FairnessSpec(0.5, 4.0), **bad)

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

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_sort_kernels_reach_the_dual_bound(self, p):
        # normal, tied, nine-decade and 1e8-offset objectives; no x(mu) is evaluated
        rng = np.random.default_rng(59)
        for n in (2, 3, 10, 60, 1000):
            objectives = (
                rng.standard_normal(n),
                rng.integers(0, 4, size=n).astype(float),
                10.0 ** rng.uniform(-6.0, 3.0, size=n),
                1e8 + rng.standard_exponential(n),
            )
            for c in objectives:
                scale = max(1.0, float(np.abs(c).max()))
                for eps in (0.05, 0.25, 0.5, 0.75, 0.95, 0.999):
                    res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
                    assert res.iterations == 0 and res.converged
                    bound = oracles.linear_max_dual_bound(c, eps, p)
                    assert abs(res.objective_value - bound) <= 1e-12 * scale

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0, 50.0, INFINITY])
    def test_objectives_near_the_float_limit(self, p):
        # c - mu and the doubling steps overflowed here, with a numpy warning, which fails a test;
        # solve works on c 2^s with max |c 2^s| in [1, 2), so it is judged on that objective
        for n in (2, 3, 10, 100):
            rng = np.random.default_rng(n)
            objectives = (
                np.resize([-9e307, 9e307, 0.0], n),
                1.7e308 * rng.uniform(-1.0, 1.0, n),
                1e200 * rng.standard_normal(n),
            )
            for c in objectives:
                shift = 1 - math.frexp(float(np.abs(c).max()))[1]
                for eps in (0.0, 0.3, 0.9, 1.0 - 1e-9):
                    res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
                    assert res.converged and math.isfinite(res.duality_gap)
                    bound = oracles.linear_max_dual_bound(np.ldexp(c, shift), eps, p)
                    assert abs(bound - math.ldexp(res.objective_value, shift)) <= 2e-8

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0, INFINITY])
    def test_eps_just_below_one_gives_about_the_mean(self, p):
        # the radius rounds onto the norm of e/n or just past it: at p = 2 and n = 5 and 7
        # the answer is e/n itself; at (n, p) = (10, 10), (50, 3), (50, 10) and (1000, 10)
        # r n^(1 - 1/p) and r n^(1/q) round to opposite sides of 1
        eps = float(np.nextafter(1.0, 0.0))
        for n in (3, 5, 7, 10, 50, 1000):
            c = np.random.default_rng(n).standard_normal(n)
            res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
            assert res.converged
            if p in (2.0, INFINITY):
                assert res.iterations == 0
            assert abs(res.objective_value - float(c.mean())) <= 1e-7

    @pytest.mark.parametrize("p", [3.0, 4.0, 10.0, 50.0])
    def test_finite_p_converges_just_below_eps_one(self, p):
        # the sum of x(mu) ranges over about 1 - eps here, so only the gap can stop the search;
        # the oracle is skipped at nextafter(1, 0), where the float radius and the 50-digit
        # one differ by as much as the region differs from e/n
        for n in (2, 3, 10, 50, 1000):
            c = np.random.default_rng(n).standard_normal(n)
            scale = max(1.0, float(np.abs(c).max()))
            for eps in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
                res = solve(ObjectiveSpec(c), FairnessSpec(eps, p))
                assert res.converged
                bound = oracles.linear_max_dual_bound(c, eps, p)
                assert abs(res.objective_value - bound) <= 1e-8 * scale

    def test_evaluation_budget(self):
        # a count, not a wall time: the grid of test_matches_the_dual_bound at 2 < p < infinity
        counts = []
        for n in (2, 3, 50, 1000):
            for p in (3.0, 4.0, 10.0, 50.0):
                rng = np.random.default_rng(n)
                for eps in (0.2, 0.5, 0.9):
                    c = rng.uniform(-1.0, 3.0, size=n)
                    counts.append(solve(ObjectiveSpec(c), FairnessSpec(eps, p)).iterations)
        assert np.median(counts) <= 12 and max(counts) <= 40

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

    @settings(max_examples=25)
    @given(_objectives(), _grids)
    @example(np.random.default_rng(17).normal(size=20), [k / 8 for k in range(9)])
    @example(np.array([2.0**600, -(2.0**600)]), [0.0, 0.5, 0.5, ONE, 1.0])
    @example(SIGNED_ZEROS, [0.0, 0.5, ONE, 1.0])
    @pytest.mark.parametrize("p", [2.0, 4.0, 10.0, INFINITY])
    def test_points_equal_a_loop_of_solve(self, p, c, grid):
        # the stacked sweep gives each point the bits solve gives it alone
        obj = ObjectiveSpec(c)
        points = pareto_sweep(obj, p, eps_grid=grid)
        assert [pt.epsilon for pt in points] == grid
        for eps, point in zip(grid, points):
            spec = FairnessSpec(eps, p)
            res = solve(obj, spec)
            expected = (res.objective_value.hex(), res.cv_at_opt.hex(), cv_bound(c.size, spec).hex(), res.converged)
            assert (point.objective_value.hex(), point.cv.hex(), point.cv_bound.hex(), point.converged) == expected

    def test_signed_zeros_share_a_level_at_infinity(self):
        # -0.0 and 0.0 are one level of the capped-simplex point; the -1.0 entry gets none of the mass
        obj = ObjectiveSpec(SIGNED_ZEROS)
        res = solve(obj, FairnessSpec(0.5, INFINITY))
        x = res.x_opt.values
        assert len({x[0].hex(), x[1].hex(), x[5].hex()}) == 1
        assert x[3] == 0.0
        point = pareto_sweep(obj, INFINITY, eps_grid=[0.0, 0.5, 1.0])[1]
        assert point.objective_value.hex() == res.objective_value.hex()
        assert point.cv.hex() == res.cv_at_opt.hex()

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_a_sweep_is_one_kernel_call_per_block(self, monkeypatch, p):
        name = "_sphere_point" if p == 2.0 else "_capped_point"
        kernel = getattr(fairctl.solver, name)
        calls = []
        monkeypatch.setattr(fairctl.solver, name, lambda y, radius: calls.append(len(y)) or kernel(y, radius))
        c = ObjectiveSpec(np.random.default_rng(3).normal(size=20))
        grid = [k / 20 for k in range(21)]
        points = pareto_sweep(c, p, eps_grid=grid)
        # eps = 1 is e/n and eps = 0 the argmax vertex; every other point is a row of one call
        assert calls == [19]
        calls.clear()
        monkeypatch.setattr(fairctl.solver, "SWEEP_BLOCK_ENTRIES", 8 * 20)
        assert pareto_sweep(c, p, eps_grid=grid) == points
        assert calls == [7, 8, 4]

    def test_eps_max_at_opt_is_computed_only_when_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fairctl.solver, "eps_max", lambda x, p: calls.append(p) or eps_max(x, p))
        pareto_sweep(C321, 4.0, eps_grid=[0.0, 0.5, 1.0])
        res = solve(C321, FairnessSpec(0.5, 4.0))
        assert calls == []
        assert res.eps_max_at_opt == eps_max(res.x_opt, 4.0)
        assert res.eps_max_at_opt == eps_max(res.x_opt, 4.0)
        assert calls == [4.0]

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[])
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[0.4, 0.2])
        with pytest.raises(ValueError):
            pareto_sweep(C321, 2, eps_grid=[0.5, 1.5])
