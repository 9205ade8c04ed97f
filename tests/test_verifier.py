import json
import math

import numpy as np
import pytest

from fairctl import (
    SUITE_NAMES,
    SimplexVector,
    VerifyConfig,
    dispersion_constant,
    p_norm,
    run_suite,
)
from fairctl.verifier import _sample_rows


def rng(seed=0):
    return np.random.default_rng(seed)


SMALL = VerifyConfig(samples=300, seed=7)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = _sample_rows(5, 3, rng(42))
        b = _sample_rows(5, 3, rng(42))
        np.testing.assert_array_equal(a, b)

    def test_every_sample_sums_to_one(self):
        rows = _sample_rows(6, 2000, rng(1))
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12

    def test_coordinate_means_match_dirichlet(self):
        # flat Dirichlet has mean 1/n per coordinate
        for n in (2, 4):
            rows = _sample_rows(n, 100_000, rng(2))
            assert np.abs(rows.mean(axis=0) - 1.0 / n).max() <= 0.01

    def test_exclusion_filter(self):
        rows = _sample_rows(2, 20_000, rng(3), exclude_special=True)
        assert (1.0 - rows.max(axis=1) > 1e-6).all()
        assert (np.abs(rows - 0.5).max(axis=1) > 1e-6).all()

    def test_sample_is_valid_simplex_vector(self):
        SimplexVector(_sample_rows(4, 1, rng(4))[0])


class TestVerifyConfig:
    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            VerifyConfig(suites=("no-such-suite",))

    def test_rejects_empty_suites(self):
        with pytest.raises(ValueError):
            VerifyConfig(suites=())

    def test_rejects_bad_samples_and_dims(self):
        with pytest.raises(ValueError):
            VerifyConfig(samples=0)
        with pytest.raises(ValueError):
            VerifyConfig(n_values=(1, 2))

    def test_p_values_sorted_with_infinity_last(self):
        cfg = VerifyConfig(p_values=(math.inf, 3, 2))
        assert cfg.p_values == (2.0, 3.0, math.inf)


class TestRunSuite:
    def test_all_suites_pass_on_small_run(self):
        report = run_suite(SMALL)
        assert report.all_passed
        assert [s.name for s in report.suites] == list(SUITE_NAMES)
        for suite in report.suites:
            assert suite.failures == 0
            assert suite.checked > 0

    def test_report_reproducible_for_fixed_seed(self):
        a = run_suite(SMALL).to_dict()
        b = run_suite(SMALL).to_dict()
        assert json.dumps(a) == json.dumps(b)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_subset_run_matches_full_run(self, name):
        # substreams are keyed by (suite, n), so scheduling cannot matter
        full = {s.name: s for s in run_suite(SMALL).suites}
        solo = run_suite(VerifyConfig(suites=(name,), samples=300, seed=7)).suites[0]
        assert solo.to_dict() == full[name].to_dict()

    def test_different_seed_changes_margins(self):
        # cv-bound would not do here: its worst margin is the p = 2 equality
        # case, which sits at machine epsilon for any seed
        a = run_suite(VerifyConfig(suites=("f-decreasing",), samples=200, seed=1)).suites[0]
        b = run_suite(VerifyConfig(suites=("f-decreasing",), samples=200, seed=2)).suites[0]
        assert a.worst_margin != b.worst_margin

    def test_failure_plumbing_with_impossible_tolerance(self):
        # an identity cannot hold to 1e-30 in doubles, so this must fail loudly
        report = run_suite(
            VerifyConfig(suites=("entropy-identity",), samples=50, seed=3, tol=1e-30)
        )
        suite = report.suites[0]
        assert not report.all_passed
        assert suite.failures > 0
        assert 1 <= len(suite.counterexamples) <= 10
        example = suite.counterexamples[0]
        assert {"n", "p", "vector", "margin"} <= set(example)

    def test_seed_echoed_in_report(self):
        report = run_suite(SMALL)
        assert report.seed == 7
        assert report.to_dict()["seed"] == 7

    def test_non_integer_exponent_chain_passes(self):
        # the theory is stated for integer p; the continuum version is
        # checked numerically on the same footing
        report = run_suite(
            VerifyConfig(samples=300, seed=13, p_values=(2.0, 2.5, 3.75, 7.5, math.inf))
        )
        assert report.all_passed


class TestBoundaryCases:
    def test_lemma_a1_expression_vanishes_at_uniform(self):
        for n in (2, 3, 5, 10):
            x = SimplexVector.uniform(n)
            for p in (2.0, 3.0, 6.0, 20.0, 50.0):
                t = p_norm(x, p)
                d = dispersion_constant(n, p)
                expr = (p / (p - 1.0)) * (-math.log(t)) / (1.0 - t) - math.log(n) * (
                    1.0 + 1.0 / d
                )
                assert abs(expr) <= 1e-9

    def test_uniform_stays_member_at_eps_one(self):
        for n in (2, 3, 5, 10):
            x = SimplexVector.uniform(n)
            for p in (2.0, 4.0, 50.0, math.inf):
                d = dispersion_constant(n, p)
                assert abs((1.0 + d) * p_norm(x, p) - 1.0) <= 1e-9
