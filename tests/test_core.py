import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairctl import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    dispersion_constant,
    normalize,
    p_norm,
)

from fairctl import core
from fairctl.core import (
    COLUMN_ROWS_PER_ENTRY,
    SIMPLEX_SUM_TOL,
    _check_simplex_rows,
    _log_rows,
    _pnorm_rows,
    _power_sum_rows,
    _row_max,
    _row_sum,
    _shannon_rows,
    check_iterations,
    check_tolerance,
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

    def test_stack_check_judges_faults_before_sums(self):
        valid = [0.25, 0.75]
        _check_simplex_rows(np.array([valid, valid]), np.array([1.0, 1.0]))
        # a nan row after an off-sum row is named by its rule, not by the sum before it
        rows = np.array([valid, [0.5, 0.6], [math.nan, 1.0]])
        with pytest.raises(ValueError, match="^entries must be finite$"):
            _check_simplex_rows(rows, _row_sum(rows))
        # of two off-sum rows, the first sum is named
        rows = np.array([valid, [0.5, 0.6], [0.5, 0.7]])
        with pytest.raises(ValueError, match=r"got sum 1\.1$"):
            _check_simplex_rows(rows, _row_sum(rows))


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

    @settings(max_examples=60)
    @given(positive_vectors, st.floats(1e-3, 1e3), st.floats(1.0, 200.0))
    def test_positive_homogeneity(self, vals, t, p):
        x = NonNegVector(vals)
        scaled = NonNegVector(t * np.asarray(vals))
        assert p_norm(scaled, p) == pytest.approx(t * p_norm(x, p), rel=1e-12)

    @settings(max_examples=60)
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

    @settings(max_examples=60)
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


# ------------------------------------------------------- row kernels


def kernel_rows(seed: int, rows: int | None, n: int, profile: str, order: str) -> np.ndarray:
    """rows x n values of one profile (a 1-D vector when rows is None), laid out in order."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    values = rng.standard_exponential(shape)
    if profile == "nine decades":
        values = 10.0 ** rng.uniform(-9.0, 0.0, shape)
    elif profile == "zeros":
        values[rng.random(shape) < 0.3] = 0.0
    elif profile == "signed zeros":
        values[rng.random(shape) < 0.5] = -0.0
    return np.asarray(values, order=order)


class TestRowKernels:
    """The column kernels give numpy's own bits: the verify sha256 pins depend on it."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.integers(1, 40)),
        st.integers(2, 130),
        st.sampled_from(["exponential", "nine decades", "zeros", "signed zeros"]),
        st.sampled_from(["C", "F"]),
    )
    @example(0, 20, 7, "exponential", "F")
    @example(0, 20, 8, "exponential", "F")
    @example(0, 20, 9, "nine decades", "F")
    @example(0, 20, 128, "nine decades", "F")
    @example(0, 20, 129, "exponential", "F")
    @example(0, 20, 130, "zeros", "C")
    def test_bit_equal_to_numpy(self, seed, rows, n, profile, order):
        x = kernel_rows(seed, rows, n, profile, order)
        # numpy adds the rows of a column-major block in plain order, not
        # pairwise; its pairwise sum is that of each row laid out contiguously
        expected = np.ascontiguousarray(x).sum(axis=-1, keepdims=True)
        total = _row_sum(x, keepdims=True)
        assert np.array_equal(total, expected)
        assert np.array_equal(np.signbit(total), np.signbit(expected))
        assert np.array_equal(_row_sum(x), expected[..., 0])
        assert np.array_equal(_row_max(x, keepdims=True), x.max(axis=-1, keepdims=True))
        assert np.array_equal(_row_max(x), x.max(axis=-1))

    @settings(max_examples=120)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 130),
        st.sampled_from([1, 2, 5, "below", "at", "past"]),
        st.sampled_from(["exponential", "nine decades", "zeros", "signed zeros"]),
        st.sampled_from(["C", "F"]),
    )
    @example(0, 10, "below", "exponential", "F")
    @example(0, 10, "at", "nine decades", "C")
    @example(0, 129, "past", "zeros", "F")
    def test_stacks_from_one_row_to_past_the_column_threshold(self, seed, n, rows, profile, order):
        # on both sides of the rule that picks the column loop, each row of a
        # stack reduces to numpy's own reduction of that row alone
        threshold = COLUMN_ROWS_PER_ENTRY * n
        count = {"below": threshold - 1, "at": threshold, "past": threshold + 7}.get(rows, rows)
        x = kernel_rows(seed, count, n, profile, order)
        one_by_one = np.array([np.add.reduce(row) for row in x])
        assert bits(_row_sum(x)).tolist() == bits(one_by_one).tolist()
        assert bits(_row_sum(x, keepdims=True)[:, 0]).tolist() == bits(one_by_one).tolist()
        assert bits(_row_max(x)).tolist() == bits([np.maximum.reduce(row) for row in x]).tolist()

    def test_every_width_from_2_to_130(self):
        for n in range(2, 131):
            for order in ("C", "F"):
                x = kernel_rows(n, 50, n, "nine decades", order)
                assert np.array_equal(_row_sum(x), np.ascontiguousarray(x).sum(axis=-1)), (n, order)
                assert np.array_equal(_row_max(x), x.max(axis=-1)), (n, order)

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 129])
    def test_rows_of_negative_zeros_sum_to_positive_zero(self, n):
        x = np.full((3, n), -0.0, order="F")
        assert not np.signbit(_row_sum(x)).any()
        assert not np.signbit(np.ascontiguousarray(x).sum(axis=-1)).any()

    def test_inputs_are_not_modified(self):
        x = kernel_rows(1, 30, 20, "exponential", "F")
        before = x.copy()
        _row_sum(x)
        _row_max(x)
        assert np.array_equal(x, before)


def bits(a) -> np.ndarray:
    """The float64 values as integers, so that comparing them compares every bit, NaN and -0.0 too."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def reference_pnorm(rows, p):
    """One exponent's norm as plain numpy expressions: the max, the sum, or the max-factored power sum."""
    if p == INFINITY:
        return rows.max(axis=-1)
    if p == 1.0:
        return _row_sum(rows)
    peak = rows.max(axis=-1, keepdims=True)
    return peak[..., 0] * np.power(_row_sum((rows / peak) ** p), 1.0 / p)  # numpy's pow, not a scalar's


def reference_power_sum(rows, p):
    """The power-sum kernel as plain numpy expressions, with fresh temporaries and ln x per call."""
    powered = rows**p
    value = _row_sum(powered, keepdims=True)
    derivative = _row_sum(powered * np.log(np.where(rows > 0, rows, 1.0)))
    return value[..., 0], derivative, powered / value


def reference_shannon(w):
    return -_row_sum(w * np.log(np.where(w > 0, w, 1.0)))


chain_exponents = st.lists(
    st.sampled_from([1.0, 2.0, 3.0, 3.5, 4.0, 10.0, 60.0, 1000.0, INFINITY]), min_size=1, max_size=6, unique=True
)
kernel_inputs = (
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(1, 40)),
    st.integers(2, 130),
    st.sampled_from(["exponential", "nine decades", "zeros", "signed zeros"]),
    st.sampled_from(["C", "F"]),
)


class TestChainKernels:
    """Each kernel, at one exponent or a chain, has the bits of its plain numpy expressions: the verify pins need it."""

    @settings(max_examples=200)
    @given(*kernel_inputs, chain_exponents)
    @example(0, 20, 10, "exponential", "F", [1.0, 2.0, 3.5, 1000.0, INFINITY])
    @example(1, None, 7, "nine decades", "C", [INFINITY, 1000.0, 3.5, 2.0, 1.0])
    @example(2, 30, 130, "zeros", "F", [2.0, 3.5, 1000.0])
    @example(3, 1, 2, "nine decades", "F", [1.0, INFINITY])
    def test_chain_is_the_stack_of_single_exponents(self, seed, rows, n, profile, order, ps):
        x = kernel_rows(seed, rows, n, profile, order)
        with np.errstate(all="ignore"):  # an all-zero row reads 0/0 in both forms
            expected = np.stack([reference_pnorm(x, p) for p in ps])
            for form in (ps, tuple(ps)):
                stacked = _pnorm_rows(x, form)
                assert stacked.shape == (len(ps),) + x.shape[:-1]
                assert np.array_equal(bits(stacked), bits(expected))
            for p, norm in zip(ps, expected):  # a single exponent is a chain of one, unstacked
                single = _pnorm_rows(x, p)
                assert np.shape(single) == x.shape[:-1]
                assert np.array_equal(bits(single), bits(norm))

    @settings(max_examples=150)
    @given(*kernel_inputs, st.sampled_from([2.0, 3.0, 3.5, 10.0, 60.0, 1000.0]))
    @example(0, 20, 10, "zeros", "F", 2.0)
    @example(1, None, 130, "nine decades", "C", 1000.0)
    def test_power_sum_and_entropy_are_the_plain_expressions(self, seed, rows, n, profile, order, p):
        x = kernel_rows(seed, rows, n, profile, order)
        with np.errstate(all="ignore"):  # weights of an all-zero row are 0/0 in both forms
            expected = reference_power_sum(x, p)
            entropy = reference_shannon(expected[2])
            for logs in (None, _log_rows(x)):
                got = _power_sum_rows(x, p, logs=logs)
                for a, b in zip(got, expected):
                    assert np.array_equal(bits(a), bits(b))
                assert np.array_equal(bits(_shannon_rows(got[2])), bits(entropy))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 10, 17, 128, 130])
    def test_uniform_row_has_its_bits_alone_and_in_a_block(self, n):
        # the verifier norms e/n alone as a (1, n) row and its samples as one column-major block
        ps = (1.0, 2.0, 3.0, 3.5, 4.0, 6.0, 10.0, 20.0, 50.0, 60.0, INFINITY)
        uniform = np.full((1, n), 1.0 / n)
        x = kernel_rows(n, COLUMN_ROWS_PER_ENTRY * n + 3, n, "exponential", "F")
        x[::7] = uniform  # at the first row, among the others and at the last
        x[-1] = uniform
        stacked = _pnorm_rows(x, ps)
        for p, norms in zip(ps, stacked):
            alone = _pnorm_rows(uniform, p)
            assert np.array_equal(bits(norms[::7]), bits(np.broadcast_to(alone, norms[::7].shape))), p
            assert bits(norms[-1]) == bits(alone[0]), p

    def test_a_chain_of_one_alone_takes_no_peak(self, monkeypatch):
        # p = 1 is the row sum; the solver's p = infinity dual bound asks for it alone
        x = np.random.default_rng(5).standard_exponential((7, 20))
        expected = _row_sum(x)

        def refuse(*args, **kwargs):
            raise AssertionError("the peak was taken")

        monkeypatch.setattr(core, "_row_max", refuse)
        for rows, total in ((x, expected), (x[0], _row_sum(x[0]))):
            assert np.array_equal(bits(_pnorm_rows(rows, 1.0)), bits(total))
            assert np.array_equal(bits(_pnorm_rows(rows, (1.0,))), bits(total[None]))


def masked_log_rows(rows):
    """ln x where x > 0 and 0 elsewhere, by fill, mask and copy: the formula _log_rows had before."""
    out = np.ones_like(rows)
    np.copyto(out, rows, where=rows > 0)
    return np.log(out, out=out)


def hard_rows(n: int, count: int, order: str) -> np.ndarray:
    """count x n rows in [0, 1], each with an entry 1: exact zeros, signed zeros, 5e-324 and vertices among them."""
    rng = np.random.default_rng(n * count)
    rows = rng.random((count, n))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[rng.random(rows.shape) < 0.1] = 5e-324
    rows[np.arange(count), rng.integers(n, size=count)] = 1.0  # no row is all zero, so no weight is 0/0
    rows[::3] = np.eye(n)[rng.integers(n, size=rows[::3].shape[0])]
    return np.asarray(rows, order=order)


class TestLogRows:
    """ln x without a mask gives the entropy kernels the bits of the masked formula: the verify pins depend on it."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, count", [(2, 1), (3, 5), (7, COLUMN_ROWS_PER_ENTRY * 7 + 3), (130, 40)])
    def test_power_sum_and_entropy_keep_their_bits(self, monkeypatch, n, count, order):
        x = hard_rows(n, count, order)
        # weights with NaN rows, as 0/0 makes them where x^p underflows, among zeros and subnormals
        w = x / _row_sum(x, keepdims=True)
        w[1::4] = np.nan
        for p in (2.0, 3.5, 60.0):
            with monkeypatch.context() as patched:
                patched.setattr(core, "_log_rows", masked_log_rows)
                expected = [_power_sum_rows(x, p), _shannon_rows(w)]
            for logs in (None, _log_rows(x)):
                got = _power_sum_rows(x, p, logs=logs)
                for a, b in zip(got, expected[0]):
                    assert np.array_equal(bits(a), bits(b)), (p, logs is None)
            assert np.array_equal(bits(_shannon_rows(w)), bits(expected[1]))

    def test_ln_x_for_positive_x_and_finite_at_zero(self):
        x = np.array([5e-324, 1e-310, 1e-300, 0.5, 1.0, 3.0, 1e300, 0.0, -0.0])
        logs = _log_rows(x)
        assert np.array_equal(bits(logs[:7]), bits(np.log(x[:7])))
        assert np.isfinite(logs[7:]).all() and (logs[7:] < 0).all()
        assert np.isnan(_log_rows(np.array([np.nan]))).all()


# ------------------------------------------------ tolerances and caps


class TestParameterChecks:
    def test_tolerance_is_a_finite_real_above_zero(self):
        assert check_tolerance("1e-6") == 1e-6
        for bad in (0.0, -1.0, math.nan, math.inf, "abc"):
            with pytest.raises(ValueError):
                check_tolerance(bad)

    def test_iteration_cap_is_an_integer_of_at_least_one(self):
        assert check_iterations(" 50 ") == 50
        assert check_iterations(np.int64(7)) == 7
        for bad in (0, -3, 2.5, "1e3", "nan", True):
            with pytest.raises(ValueError):
                check_iterations(bad)


# --------------------------------------------------- dispersion constant


class TestDispersionConstant:
    def test_known_values(self):
        assert dispersion_constant(4, 2) == pytest.approx(1.0, abs=1e-15)
        assert dispersion_constant(4, INFINITY) == 3.0
        assert dispersion_constant(9, 2) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            dispersion_constant(1, 2)


# ------------------------------------------------------------ power sums


class TestPowerSum:
    def test_two_point_example(self):
        total, deriv, w = _power_sum_rows(np.array([0.5, 0.5]), 2.0)
        assert total == pytest.approx(0.5, abs=1e-15)
        assert deriv == pytest.approx(0.5 * math.log(0.5), abs=1e-15)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_vertex_uses_zero_log_zero_convention(self):
        total, deriv, w = _power_sum_rows(np.array([1.0, 0.0, 0.0]), 3.0)
        assert total == 1.0
        assert deriv == 0.0
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])

    @settings(max_examples=60)
    @given(positive_vectors, st.floats(2.1, 60.0))
    def test_derivative_matches_finite_difference(self, vals, p):
        x = simplex(vals)
        _, deriv, _ = _power_sum_rows(x.values, p)
        fd = oracles.fd_power_sum_derivative(x.values, p)
        # 1e-10 floor: the centered difference itself carries ~eps/(2h)
        # of cancellation noise, which dominates when the derivative is tiny
        assert abs(fd - deriv) <= 1e-6 * abs(deriv) + 1e-10


# -------------------------------------------------------------- entropies


class TestEntropies:
    def test_uniform_maximizes_shannon(self):
        w = np.array([0.25] * 4)
        assert _shannon_rows(w) == pytest.approx(math.log(4), abs=1e-12)

    def test_degenerate_shannon_is_zero(self):
        assert _shannon_rows(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_half_half_with_zeros(self):
        w = np.array([0.5, 0.5, 0.0, 0.0])
        assert _shannon_rows(w) == pytest.approx(math.log(2), abs=1e-12)

    @settings(max_examples=60)
    @given(positive_vectors, st.floats(2.0, 64.0))
    def test_entropy_sandwich(self, vals, p):
        x = simplex(vals)
        _, _, w = _power_sum_rows(x.values, p)
        assert abs(w.sum() - 1.0) <= SIMPLEX_SUM_TOL and w.max() <= 1.0  # what WeightVector checked
        h = _shannon_rows(w)
        assert h >= -1e-12
        assert h <= -(p / (p - 1.0)) * math.log(p_norm(x, p)) + 1e-10

    @settings(max_examples=60)
    @given(positive_vectors, st.floats(2.0, 50.0))
    def test_entropy_identity(self, vals, p):
        x = simplex(vals)
        total, deriv, w = _power_sum_rows(x.values, p)
        assert abs(w.sum() - 1.0) <= SIMPLEX_SUM_TOL and w.max() <= 1.0
        lhs = math.log(total) - p * deriv / total
        assert abs(lhs - _shannon_rows(w)) <= 1e-9

    def test_entropy_identity_with_zero_components(self):
        x = SimplexVector([0.5, 0.3, 0.2, 0.0])
        for p in (2.0, 3.0, 17.0):
            total, deriv, w = _power_sum_rows(x.values, p)
            lhs = math.log(total) - p * deriv / total
            assert abs(lhs - _shannon_rows(w)) <= 1e-9


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

    @settings(max_examples=40)
    @given(positive_vectors)
    def test_idempotent(self, vals):
        once = normalize(NonNegVector(vals))
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-14)
