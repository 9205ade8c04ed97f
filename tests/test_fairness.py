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
    coefficient_of_variation,
    cone_constraint,
    cv_bound,
    dispersion_report,
    eps_max,
    is_fair,
)
from fairctl import fairness
from fairctl.core import _pnorm_rows
from fairctl.fairness import _member_rows

import oracles

HALF_HALF = SimplexVector([0.5, 0.5, 0.0, 0.0])

# frozen from direct arithmetic on (1 - ||x||_p) / (D_p ||x||_p)
EPS2_HALF_HALF = 0.41421356237309504
EPS3_HALF_HALF = 0.38648820956430937


def simplex(values) -> SimplexVector:
    arr = np.asarray(values, dtype=float)
    return SimplexVector(arr / arr.sum())


positive_vectors = st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=8)


class TestFairnessSpec:
    def test_validates_epsilon(self):
        with pytest.raises(ValueError):
            FairnessSpec(1.2, 2)
        with pytest.raises(ValueError):
            FairnessSpec(-0.1, 2)

    def test_validates_p(self):
        with pytest.raises(ValueError):
            FairnessSpec(0.5, 1.5)
        FairnessSpec(0.5, INFINITY)


class TestEpsMax:
    def test_vertex_is_zero(self):
        for n in (2, 4, 7):
            for p in (2, 3.5, 17, INFINITY):
                assert eps_max(SimplexVector(np.eye(n)[0]), p) == 0.0

    def test_uniform_is_one(self):
        for n in (2, 4, 7):
            for p in (2, 3.5, 17, INFINITY):
                assert eps_max(SimplexVector.uniform(n), p) == pytest.approx(1.0, abs=1e-12)

    def test_half_half_thresholds(self):
        assert eps_max(HALF_HALF, 2) == pytest.approx(EPS2_HALF_HALF, abs=1e-12)
        assert eps_max(HALF_HALF, 3) == pytest.approx(EPS3_HALF_HALF, abs=1e-12)
        assert eps_max(HALF_HALF, INFINITY) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_strictly_decreasing_in_p(self):
        values = [eps_max(HALF_HALF, p) for p in (2, 3, INFINITY)]
        assert values[0] > values[1] > values[2]


class TestIsFair:
    def test_eps_zero_always_member(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = NonNegVector(rng.uniform(0.0, 5.0, size=4) + 1e-12)
            for p in (2, 3, INFINITY):
                assert is_fair(x, FairnessSpec(0.0, p))

    def test_eps_one_only_uniform(self):
        for p in (2, 5, INFINITY):
            assert is_fair(SimplexVector.uniform(5), FairnessSpec(1.0, p))
            assert is_fair(NonNegVector([3.0, 3.0, 3.0]), FairnessSpec(1.0, p))
            assert not is_fair(NonNegVector([0.4, 0.3, 0.3]), FairnessSpec(1.0, p))

    def test_threshold_example(self):
        assert is_fair(HALF_HALF, FairnessSpec(0.4, 2))
        assert not is_fair(HALF_HALF, FairnessSpec(0.42, 2))

    @settings(max_examples=50)
    @given(positive_vectors, st.floats(1e-4, 1e4), st.floats(0.0, 1.0), st.floats(2.0, 50.0))
    def test_scale_invariance(self, vals, t, eps, p):
        spec = FairnessSpec(eps, p)
        x = NonNegVector(vals)
        scaled = NonNegVector(t * np.asarray(vals))
        assert is_fair(x, spec) == is_fair(scaled, spec)

    @settings(max_examples=80)
    @given(positive_vectors, st.floats(0.0, 1.0), st.floats(2.0, 50.0))
    def test_threshold_equivalence(self, vals, eps, p):
        x = simplex(vals)
        assert is_fair(x, FairnessSpec(eps, p), tol=0.0) == (eps <= eps_max(x, p))

    @settings(max_examples=80)
    @given(positive_vectors, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(2.0, 50.0))
    def test_nestedness_in_eps(self, vals, e1, e2, p):
        hi, lo = max(e1, e2), min(e1, e2)
        x = simplex(vals)
        if is_fair(x, FairnessSpec(hi, p), tol=0.0):
            assert is_fair(x, FairnessSpec(lo, p), tol=0.0)


class TestCoefficientOfVariation:
    def test_uniform_is_zero(self):
        assert coefficient_of_variation(SimplexVector.uniform(6)) == 0.0

    def test_vertex_matches_definition(self):
        x = SimplexVector(np.eye(4)[0])
        assert coefficient_of_variation(x) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert coefficient_of_variation(x) == pytest.approx(
            oracles.cv_definition(x.values), abs=1e-12
        )

    def test_half_half_is_one(self):
        cv = coefficient_of_variation(HALF_HALF)
        assert cv == pytest.approx(1.0, abs=1e-12)
        assert cv == pytest.approx(oracles.cv_definition(HALF_HALF.values), abs=1e-12)

    def test_tight_against_bound_at_p2(self):
        cv = coefficient_of_variation(HALF_HALF)
        bound = cv_bound(4, FairnessSpec(eps_max(HALF_HALF, 2), 2))
        assert cv * cv == pytest.approx(bound, abs=1e-12)

    @settings(max_examples=60)
    @given(positive_vectors)
    def test_matches_definition_form(self, vals):
        # abs floor 2e-8: near the uniform point the algebraic form takes
        # sqrt of a ~1e-16 cancellation, so sqrt-eps noise is intrinsic
        x = simplex(vals)
        assert coefficient_of_variation(x) == pytest.approx(
            oracles.cv_definition(x.values), rel=1e-9, abs=2e-8
        )


class TestCvBound:
    def test_known_values(self):
        assert cv_bound(4, FairnessSpec(0.0, 2)) == pytest.approx(3.0, abs=1e-12)
        assert cv_bound(4, FairnessSpec(1.0, 2)) == 0.0
        assert cv_bound(4, FairnessSpec(0.5, 2)) == pytest.approx(4.0 / 2.25 - 1.0, abs=1e-12)

    def test_endpoint_identities_exact(self):
        for n in (2, 3, 10):
            for p in (2, 3, 7.5, INFINITY):
                d = float(n) ** (1 - 1 / p) - 1 if not math.isinf(p) else n - 1.0
                assert cv_bound(n, FairnessSpec(1.0, p)) == 0.0
                assert cv_bound(n, FairnessSpec(0.0, p)) == pytest.approx(
                    (d + 1) ** 2 - 1, rel=1e-14
                )

    def test_strictly_decreasing_on_grid(self):
        grid = [k / 100 for k in range(101)]
        for n in (2, 5):
            for p in (2, 3, INFINITY):
                vals = [cv_bound(n, FairnessSpec(e, p)) for e in grid]
                assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLinearSystem:
    """At p = infinity the constraint is n linear rows: sum_j x_j >= (1 + (n-1) eps) x_i."""

    def test_eps_zero_vacuous(self):
        assert is_fair(NonNegVector([5.0, 0.0, 0.0, 0.0, 0.0]), FairnessSpec(0.0, INFINITY), tol=0.0)

    def test_eps_one_forces_uniform(self):
        spec = FairnessSpec(1.0, INFINITY)
        assert is_fair(SimplexVector.uniform(4), spec, tol=0.0)
        assert not is_fair(SimplexVector([0.3, 0.25, 0.25, 0.2]), spec, tol=0.0)

    def test_agreement_with_is_fair_on_bulk_random_vectors(self):
        rng = np.random.default_rng(123)
        n = 4
        X = rng.uniform(0.0, 1.0, size=(100_000, n)) + 1e-9
        eps = rng.uniform(0.0, 1.0, size=100_000)
        coeff = 1.0 + (n - 1) * eps
        total = X.sum(axis=1)
        system_verdict = (coeff[:, None] * X <= total[:, None]).all(axis=1)
        t, l1 = _pnorm_rows(X, (INFINITY, 1.0))
        fair_verdict = _member_rows(t, l1, n, eps, INFINITY, 0.0)
        disagree = system_verdict != fair_verdict
        # any disagreement must sit within 1e-12 of the constraint boundary
        boundary_gap = np.abs(coeff * X.max(axis=1) - total)
        assert not np.any(disagree & (boundary_gap > 1e-12 * total))

    def test_rowwise_agreement_with_is_fair_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = NonNegVector(rng.uniform(0.0, 1.0, size=5) + 1e-9)
            eps = float(rng.uniform(0.0, 1.0))
            rows_hold = bool(np.all((1.0 + 4 * eps) * x.values <= x.values.sum()))
            assert rows_hold == is_fair(x, FairnessSpec(eps, INFINITY), tol=0.0)


class TestConeConstraint:
    def test_second_order_example(self):
        cone = cone_constraint(3, FairnessSpec(0.5, 2))
        assert cone.kind == "second-order"
        assert cone.radius == pytest.approx(0.7320508075688773, abs=1e-12)

    def test_eps_zero_radius_one(self):
        for p in (2, 4, INFINITY):
            assert cone_constraint(6, FairnessSpec(0.0, p)).radius == 1.0

    def test_eps_one_radius_hits_lower_bound(self):
        for n in (2, 5):
            for p in (2, 3, 8):
                cone = cone_constraint(n, FairnessSpec(1.0, p))
                assert cone.radius == pytest.approx(n ** (1 / p - 1), rel=1e-14)

    def test_kind_dispatch(self):
        assert cone_constraint(3, FairnessSpec(0.1, 2)).kind == "second-order"
        assert cone_constraint(3, FairnessSpec(0.1, 3)).kind == "lp-cone"
        assert cone_constraint(3, FairnessSpec(0.1, INFINITY)).kind == "linear-system"

    def test_radius_within_bounds(self):
        for eps in (0.0, 0.3, 0.9, 1.0):
            for p in (2, 5, INFINITY):
                cone = cone_constraint(4, FairnessSpec(eps, p))
                d = 4 ** (1 - 1 / p) - 1 if not math.isinf(p) else 3.0
                assert 1.0 / (d + 1.0) - 1e-15 <= cone.radius <= 1.0


class TestDispersionReport:
    def test_half_half_composite(self):
        report = dispersion_report(
            NonNegVector([0.5, 0.5, 0.0, 0.0]), [2, 3, INFINITY], eps=0.3
        )
        assert report.cv == pytest.approx(1.0, abs=1e-12)
        assert report.mean == pytest.approx(0.25, abs=1e-15)
        thresholds = [e.eps_max for e in report.per_p]
        assert thresholds == pytest.approx(
            [EPS2_HALF_HALF, EPS3_HALF_HALF, 1.0 / 3.0], abs=1e-9
        )
        assert [e.member for e in report.per_p] == [True, True, True]

    def test_uniform_input(self):
        report = dispersion_report(NonNegVector([2.0, 2.0, 2.0]), [2, 5, INFINITY], eps=0.9)
        assert report.cv == pytest.approx(0.0, abs=1e-9)
        assert all(e.eps_max == pytest.approx(1.0, abs=1e-12) for e in report.per_p)
        assert all(e.member for e in report.per_p)

    def test_vertex_input(self):
        report = dispersion_report(NonNegVector([7.0, 0.0, 0.0]), [2, 3, INFINITY], eps=0.1)
        assert all(e.eps_max == 0.0 for e in report.per_p)
        assert not any(e.member for e in report.per_p)

    def test_entries_sorted_infinity_last(self):
        report = dispersion_report(NonNegVector([1.0, 2.0, 3.0]), [INFINITY, 3, 2], eps=0.2)
        assert [e.p for e in report.per_p] == [2.0, 3.0, INFINITY]

    def test_member_entries_respect_cv_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = NonNegVector(rng.uniform(0.0, 1.0, size=5) + 1e-9)
            report = dispersion_report(x, [2, 4, INFINITY], eps=float(rng.uniform(0, 1)))
            for entry in report.per_p:
                if entry.member:
                    assert report.cv**2 <= entry.cv_bound + 1e-9

    def test_thresholds_non_increasing_in_p(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = NonNegVector(rng.uniform(0.0, 1.0, size=4) + 1e-9)
            report = dispersion_report(x, [2, 3, 6, 20, INFINITY], eps=0.5)
            ts = [e.eps_max for e in report.per_p]
            assert all(a >= b - 1e-12 for a, b in zip(ts, ts[1:]))

    def test_rejects_empty_p_list(self):
        with pytest.raises(ValueError):
            dispersion_report(NonNegVector([1.0, 2.0]), [], eps=0.5)

    def test_rows_give_one_value_per_row(self):
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [7.0, 0.0, 0.0, 0.0]])
        report = dispersion_report(rows, [INFINITY, 2], eps=0.3)
        assert report.cv.shape == report.mean.shape == (3,)
        assert [e.p for e in report.per_p] == [2.0, INFINITY]
        np.testing.assert_array_equal(report.per_p[1].eps_max, [1.0 / 3.0, 1.0, 0.0])
        np.testing.assert_array_equal(report.per_p[1].member, [True, True, False])

    def test_every_norm_comes_from_one_kernel_call(self, monkeypatch):
        chains = []

        def counted(rows, p, *args):
            chains.append(p)
            return _pnorm_rows(rows, p, *args)

        monkeypatch.setattr(fairness, "_pnorm_rows", counted)
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        report = dispersion_report(rows, [4, 2, INFINITY, 2], eps=0.3)
        assert len(chains) == 1
        assert [e.p for e in report.per_p] == [2.0, 2.0, 4.0, INFINITY]

    def test_row_whose_sum_overflows_is_scaled_and_others_keep_their_bits(self):
        rows = np.array([[0.5, 0.25, 0.25], [1e308, 1e308, 1.0], [1.0, 2.0, 3.0]])
        ps = [2, 3.5, INFINITY]
        report = dispersion_report(rows, ps, eps=0.3)
        scaled = dispersion_report(rows / [[1.0], [1e308], [1.0]], ps, eps=0.3)
        plain = dispersion_report(rows[[0, 2]], ps, eps=0.3)
        for got, want in zip(report.per_p, scaled.per_p):
            np.testing.assert_allclose(got.eps_max, want.eps_max, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(got.member, want.member)
        for got, want in zip(report.per_p, plain.per_p):
            np.testing.assert_array_equal(got.eps_max[[0, 2]], want.eps_max)
        np.testing.assert_array_equal(report.cv[[0, 2]], plain.cv)
        np.testing.assert_allclose(report.cv, scaled.cv, rtol=0, atol=1e-15)

    def test_bad_row_is_named_by_index(self):
        # the first bad row is named, whichever rule it breaks
        for rows, message in (
            ([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]], "vector 2: the zero vector"),
            ([[1.0, 2.0], [-1.0, 4.0], [0.0, 0.0]], "vector 1: entries must be nonnegative"),
            ([[1.0, -1.0, 1.0], [math.nan, 1.0, 1.0]], "vector 0: entries must be nonnegative"),
            ([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0]], "vector 0: the zero vector"),
        ):
            with pytest.raises(ValueError, match=message):
                dispersion_report(np.array(rows), [2], eps=0.5)
