"""Tests of the benchmark's reference answers on hand-checkable instances.

Run with ``python3 -m pytest fairbench/test_reference.py``.
"""

import json
import math

import numpy as np
import pytest

import reference as ref
import workloads

INF = math.inf


def _circle_point(r: float) -> tuple[float, float]:
    """(a, b) with a + 2b = 1, a^2 + 2b^2 = r^2 and a largest: the point
    (a, b, b) of the simplex on the l2 sphere of radius r closest to e_1."""
    b = (4.0 - math.sqrt(16.0 - 24.0 * (1.0 - r * r))) / 12.0
    return 1.0 - 2.0 * b, b


class TestFormulas:
    def test_eps_max_endpoints(self):
        for p in (2.0, 4.0, INF):
            assert ref.eps_max(np.array([1.0, 1.0, 1.0]), p) == pytest.approx(1.0, abs=1e-15)
            assert ref.eps_max(np.array([1.0, 0.0, 0.0]), p) == pytest.approx(0.0, abs=1e-15)

    def test_eps_max_half_half(self):
        # ||x||_1 / ||x||_2 = sqrt(2), D_2 = 1 at n = 4
        assert ref.eps_max(np.array([0.5, 0.5, 0.0, 0.0]), 2.0) == pytest.approx(math.sqrt(2) - 1)

    def test_eps_max_is_scale_invariant_and_row_wise(self):
        rows = np.array([[3.0, 2.0, 1.0], [6.0, 4.0, 2.0]])
        got = ref.eps_max(rows, INF)
        assert got[0] == pytest.approx(got[1]) == pytest.approx((6.0 / 3.0 - 1.0) / 2.0)

    def test_lp_norm_wide_range(self):
        x = np.array([1e-300, 1e300])
        assert ref.lp_norm(x, 4.0) == pytest.approx(1e300)

    def test_cv_bound_endpoints(self):
        assert ref.cv_bound(5, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert ref.cv_bound(5, 0.0, INF) == pytest.approx(5.0**2 - 1.0)

    def test_cv(self):
        assert ref.cv(np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestProjections:
    def test_capped_simplex_readme_instance(self):
        got = ref.project_pinf(np.array([1.0, 0.0, 0.0]), 0.5)
        np.testing.assert_allclose(got, [0.5, 0.25, 0.25], atol=1e-15)

    def test_p2_vertex(self):
        r = ref.radius(3, 0.5, 2.0)
        assert r == pytest.approx(math.sqrt(3) - 1)
        a, b = _circle_point(r)
        got = ref.project_p2(np.array([1.0, 0.0, 0.0]), 0.5)
        np.testing.assert_allclose(got, [a, b, b], atol=1e-14)

    def test_p2_inactive_ball_is_simplex_projection(self):
        y = np.array([0.4, 0.35, 0.25])
        np.testing.assert_allclose(ref.project_p2(y, 0.2), y, atol=1e-15)

    def test_eps_one_gives_uniform(self):
        y = np.array([5.0, 1.0, 0.0, 2.0])
        np.testing.assert_allclose(ref.project_pinf(y, 1.0), 0.25, atol=1e-12)
        np.testing.assert_allclose(ref.project_p2(y, 1.0), 0.25, atol=1e-7)

    def test_kkt_residual_zero_at_projection_and_not_elsewhere(self):
        y = np.array([1.0, 0.0, 0.0])
        exact = ref.project_p2(y, 0.5)
        assert ref.kkt_residual(exact, y, 0.5, 2.0) < 1e-12
        moved = exact + np.array([1e-4, -1e-4, 0.0])
        assert ref.kkt_residual(moved, y, 0.5, 2.0) > 1e-5

    def test_feasibility_violation(self):
        assert ref.feasibility_violation(np.array([0.5, 0.25, 0.25]), 0.5, INF) <= 1e-15
        assert ref.feasibility_violation(np.array([1.0, 0.0, 0.0]), 0.5, INF) == pytest.approx(1.0)


class TestObjective:
    def test_readme_instance(self):
        assert ref.max_objective(np.array([3.0, 2.0, 1.0]), 0.5, INF) == pytest.approx(2.5)

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    def test_endpoints(self, p):
        c = np.array([3.0, -2.0, 1.0, 0.5])
        assert ref.max_objective(c, 0.0, p) == pytest.approx(3.0)
        assert ref.max_objective(c, 1.0, p) == pytest.approx(c.mean())

    def test_p2_matches_the_circle_point(self):
        a, _ = _circle_point(ref.radius(3, 0.5, 2.0))
        assert ref.max_objective(np.array([1.0, 0.0, 0.0]), 0.5, 2.0) == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    def test_no_feasible_point_beats_it(self, p):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(4)
        eps = 0.4
        best = ref.max_objective(c, eps, p)
        x = rng.standard_exponential((20000, 4))
        x /= x.sum(axis=1, keepdims=True)
        feasible = (1.0 + eps * ref.d_p(4, p)) * ref.lp_norm(x, p) <= 1.0
        values = x[feasible] @ c
        assert values.max() <= best + 1e-12
        assert values.max() >= best - 0.05


class TestChecks:
    def test_solve_report(self):
        c = np.array([3.0, 2.0, 1.0])
        doc = {"results": {"x_opt": [0.5, 0.5, 0.0], "objective_value": 2.5}}
        assert ref.check_solve(doc, c, 0.5, INF) == []
        doc = {"results": {"x_opt": [0.5, 0.25, 0.25], "objective_value": 2.25}}
        assert ref.check_solve(doc, c, 0.5, INF)

    def test_project_report(self):
        rows = np.array([[1.0, 0.0, 0.0]])
        good = {"results": {"points": [{"point": [0.5, 0.25, 0.25]}]}}
        assert ref.check_project(good, rows, 0.5, INF) == []
        bad = {"results": {"points": [{"point": [0.5, 0.3, 0.2]}]}}
        assert ref.check_project(bad, rows, 0.5, INF)

    def test_sweep_report(self):
        c = np.array([3.0, 2.0, 1.0])
        grid = [0.0, 0.5, 1.0]

        def doc(objectives):
            points = [
                {"epsilon": e, "objective": v, "cv": 0.0, "cv_bound": ref.cv_bound(3, e, INF)}
                for e, v in zip(grid, objectives)
            ]
            return {"results": {"points": points}}

        assert ref.check_sweep(doc([3.0, 2.5, 2.0]), c, INF, grid) == []
        assert ref.check_sweep(doc([3.0, 2.6, 2.0]), c, INF, grid)

    def test_screen_report(self):
        rows = np.array([[3.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
        entries = [
            [{"p": "inf", "eps_max": 0.5, "member": False, "cv_bound": ref.cv_bound(3, 0.6, INF)}],
            [{"p": "inf", "eps_max": 1.0, "member": True, "cv_bound": ref.cv_bound(3, 0.6, INF)}],
        ]
        vectors = [
            {"index": i, "cv": float(ref.cv(rows[i])), "per_p": e, "member_all_p": e[0]["member"]}
            for i, e in enumerate(entries)
        ]
        doc = {"results": {"vectors": vectors, "all_members": False}}
        assert ref.check_screen(doc, rows, [INF], 0.6) == []
        vectors[0]["per_p"][0]["member"] = True
        assert ref.check_screen(doc, rows, [INF], 0.6)

    def test_verify_report_needs_samples_in_every_suite(self):
        suites = [{"name": s, "checked": 10, "failures": 0} for s in ref.SUITES]
        doc = {"results": {"suites": suites, "all_passed": True}}
        assert ref.check_verify(doc) == []
        suites[3]["checked"] = 0
        assert ref.check_verify(doc)


class TestKnownFault:
    """Only the distance from the exact projection is excused on the faulty op."""

    @pytest.fixture
    def ops(self, tmp_path):
        return {op.name: op for op in workloads.optimize(1, tmp_path)}

    @staticmethod
    def _report(point) -> bytes:
        return json.dumps({"results": {"points": [{"point": list(point)}]}}).encode()

    def test_feasible_point_off_the_projection_is_excused(self, ops):
        op = ops["project-p2-n1000"]
        problems = op.problems(0, self._report(np.full(1000, 1e-3)))
        assert problems
        assert op.unexplained(problems) == []

    def test_infeasible_point_is_still_wrong(self, ops):
        op = ops["project-p2-n1000"]
        problems = op.problems(0, self._report(np.eye(1000)[0]))
        assert any("infeasible" in p for p in op.unexplained(problems))

    def test_bad_exit_and_missing_or_malformed_report_are_still_wrong(self, ops):
        op = ops["project-p2-n1000"]
        assert op.unexplained(op.problems(1, self._report(np.full(1000, 1e-3))))
        assert op.unexplained(op.problems(0, None))
        assert op.unexplained(op.problems(0, b"{}"))

    def test_other_projections_excuse_nothing(self, ops):
        op = ops["project-p2-0"]
        rows = op.problems(0, json.dumps({"results": {"points": [{"point": [0.02] * 50}] * 4}}).encode())
        assert rows and op.unexplained(rows) == rows
