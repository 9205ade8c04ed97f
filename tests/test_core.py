import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairctl import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    WeightVector,
    dispersion_constant,
    normalize,
    p_norm,
    power_sum,
    shannon_entropy,
)

import oracles


def simplex(values) -> SimplexVector:
    arr = np.asarray(values, dtype=float)
    return SimplexVector(arr / arr.sum())


positive_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=8,
)


# ---------------------------------------------------------------- vectors


class TestVectorTypes:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            NonNegVector([0.0, 0.0, 0.0])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            NonNegVector([1.0, -0.1])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            NonNegVector([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NonNegVector([1.0, math.nan])

    def test_values_are_immutable(self):
        x = NonNegVector([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 5.0

    def test_simplex_sum_tolerance(self):
        SimplexVector([0.5, 0.5 + 5e-13])
        with pytest.raises(ValueError):
            SimplexVector([0.5, 0.51])

    def test_uniform_constructor(self):
        u = SimplexVector.uniform(4)
        assert u.values.tolist() == [0.25] * 4

    def test_weight_vector_bounds(self):
        WeightVector([0.25, 0.75])
        with pytest.raises(ValueError):
            WeightVector([1.5, -0.5])


# ----------------------------------------------------------------- p_norm


class TestPNorm:
    def test_pythagorean_triple(self):
        assert p_norm(NonNegVector([3.0, 4.0]), 2) == pytest.approx(5.0, abs=1e-14)

    def test_infinity_is_max_component(self):
        assert p_norm(NonNegVector([0.5, 0.5, 0.0, 0.0]), INFINITY) == 0.5

    def test_large_p_matches_high_precision_oracle(self):
        x = NonNegVector([0.7, 0.3])
        ours = p_norm(x, 1000)
        ref = oracles.hp_norm([0.7, 0.3], 1000)
        assert ours == pytest.approx(ref, rel=1e-12)
        assert 0.7 <= ours <= 0.7 * 2 ** (1 / 1000)
        # the excess over 0.7 is ~1e-371, visible only at very high precision
        from mpmath import mp, mpf

        with mp.workdps(400):
            exact = (mpf(0.7) ** 1000 + mpf(0.3) ** 1000) ** (mpf(1) / 1000)
            assert mpf(0.7) < exact <= mpf(0.7) * 2 ** (mpf(1) / 1000)

    def test_wide_dynamic_range_against_oracle(self):
        vals = [1.0, 1e-15, 0.5, 1e-12]
        for p in (2, 3, 2.5, 1000, 10000):
            ref = oracles.hp_norm(vals, p)
            assert p_norm(NonNegVector(vals), p) == pytest.approx(ref, rel=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            p_norm(NonNegVector([1.0, 2.0]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(1e-3, 1e3), st.floats(1.0, 200.0))
    def test_positive_homogeneity(self, vals, t, p):
        x = NonNegVector(vals)
        scaled = NonNegVector(t * np.asarray(vals))
        assert p_norm(scaled, p) == pytest.approx(t * p_norm(x, p), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(1.0, 60.0), st.floats(1.0, 60.0))
    def test_norm_equivalence_two_sided(self, vals, pa, pb):
        assume(abs(pa - pb) > 1e-3)
        p1, p2 = min(pa, pb), max(pa, pb)
        x = simplex(vals)
        n = x.n
        t1, t2 = p_norm(x, p1), p_norm(x, p2)
        ratio = (dispersion_constant(n, p2) + 1.0) / (dispersion_constant(n, p1) + 1.0)
        assert t2 <= t1 + 1e-10
        assert t1 <= ratio * t2 + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(2.0, 100.0))
    def test_strict_norm_bounds_inside_simplex(self, vals, p):
        x = simplex(vals)
        arr = x.values
        # stay clearly away from the vertices and the barycenter
        assume(arr.max() < 1 - 1e-3)
        assume(np.abs(arr - 1.0 / x.n).max() > 1e-3)
        t = p_norm(x, p)
        lower = 1.0 / (dispersion_constant(x.n, p) + 1.0)
        assert t > lower + 1e-12
        assert t < 1.0 - 1e-12


# --------------------------------------------------- dispersion constant


class TestDispersionConstant:
    def test_known_values(self):
        assert dispersion_constant(4, 2) == pytest.approx(1.0, abs=1e-15)
        assert dispersion_constant(4, INFINITY) == 3.0
        assert dispersion_constant(9, 2) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            dispersion_constant(1, 2)


# -------------------------------------------------------------- power_sum


class TestPowerSum:
    def test_two_point_example(self):
        total, deriv, w = power_sum(SimplexVector([0.5, 0.5]), 2)
        assert total == pytest.approx(0.5, abs=1e-15)
        assert deriv == pytest.approx(0.5 * math.log(0.5), abs=1e-15)
        np.testing.assert_allclose(w.values, [0.5, 0.5], atol=1e-15)

    def test_vertex_uses_zero_log_zero_convention(self):
        total, deriv, w = power_sum(SimplexVector([1.0, 0.0, 0.0]), 3)
        assert total == 1.0
        assert deriv == 0.0
        np.testing.assert_array_equal(w.values, [1.0, 0.0, 0.0])

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            power_sum(SimplexVector([0.5, 0.5]), INFINITY)

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(2.1, 60.0))
    def test_derivative_matches_finite_difference(self, vals, p):
        x = simplex(vals)
        _, deriv, _ = power_sum(x, p)
        fd = oracles.fd_power_sum_derivative(x.values, p)
        # 1e-10 floor: the centered difference itself carries ~eps/(2h)
        # of cancellation noise, which dominates when the derivative is tiny
        assert abs(fd - deriv) <= 1e-6 * abs(deriv) + 1e-10


# -------------------------------------------------------------- entropies


class TestEntropies:
    def test_uniform_maximizes_shannon(self):
        w = WeightVector([0.25] * 4)
        assert shannon_entropy(w) == pytest.approx(math.log(4), abs=1e-12)

    def test_degenerate_shannon_is_zero(self):
        assert shannon_entropy(WeightVector([1.0, 0.0, 0.0])) == 0.0

    def test_half_half_with_zeros(self):
        w = WeightVector([0.5, 0.5, 0.0, 0.0])
        assert shannon_entropy(w) == pytest.approx(math.log(2), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(2.0, 64.0))
    def test_entropy_sandwich(self, vals, p):
        x = simplex(vals)
        _, _, w = power_sum(x, p)
        h = shannon_entropy(w)
        assert h >= -1e-12
        assert h <= -(p / (p - 1.0)) * math.log(p_norm(x, p)) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors, st.floats(2.0, 50.0))
    def test_entropy_identity(self, vals, p):
        x = simplex(vals)
        total, deriv, w = power_sum(x, p)
        lhs = math.log(total) - p * deriv / total
        assert abs(lhs - shannon_entropy(w)) <= 1e-9

    def test_entropy_identity_with_zero_components(self):
        x = SimplexVector([0.5, 0.3, 0.2, 0.0])
        for p in (2.0, 3.0, 17.0):
            total, deriv, w = power_sum(x, p)
            lhs = math.log(total) - p * deriv / total
            assert abs(lhs - shannon_entropy(w)) <= 1e-9


# -------------------------------------------------------------- normalize


class TestNormalize:
    def test_scaling(self):
        y = normalize(NonNegVector([2.0, 2.0, 0.0, 0.0]))
        np.testing.assert_allclose(y.values, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_identity_on_simplex(self):
        y = normalize(NonNegVector([0.2, 0.3, 0.5]))
        np.testing.assert_array_equal(y.values, [0.2, 0.3, 0.5])

    def test_divide_by_ten(self):
        y = normalize(NonNegVector([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(y.values, [0.1, 0.2, 0.3, 0.4], atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(positive_vectors)
    def test_idempotent(self, vals):
        once = normalize(NonNegVector(vals))
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-14)
