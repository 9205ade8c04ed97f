import dataclasses
import json
import math
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairctl import (
    SUITE_NAMES,
    SimplexVector,
    VerifyConfig,
    dispersion_constant,
    p_norm,
    run_suite,
)
from fairctl import core, verifier
from fairctl.core import _row_sum
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


def reference_sample_rows(n, count, generator, exclude_special=False):
    """The sampler as plain numpy expressions, each draw and step a fresh array."""
    rows = np.empty((count, n), order="F")
    filled = 0
    while filled < count:
        draw = generator.standard_exponential((count - filled, n))
        batch = draw / _row_sum(draw, keepdims=True)
        if exclude_special:
            radius = verifier.EXCLUSION_RADIUS
            keep = (1.0 - batch.max(axis=1) > radius) & (np.abs(batch - 1.0 / n).max(axis=1) > radius)
            batch = batch[keep]
        rows[filled : filled + batch.shape[0]] = batch
        filled += batch.shape[0]
    return rows


class TestSamplingReference:
    """The sampler gives the plain expressions' samples, bit for bit, and leaves their generator state."""

    def assert_same_draws(self, n, count, seed, exclude):
        expected_rng = rng(seed)
        expected = reference_sample_rows(n, count, expected_rng, exclude)
        generator = rng(seed)
        rows = _sample_rows(n, count, generator, exclude)
        assert rows.shape == (count, n) and rows.flags.f_contiguous
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
        assert generator.bit_generator.state == expected_rng.bit_generator.state

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 130), st.integers(1, 300), st.booleans())
    @example(0, 10, 10000, False)
    @example(1, 130, 3, True)
    @example(2, 130, 5000, True)  # past COLUMN_ROW_LIMIT: every row sum is a contiguous copy's
    @example(3, 10, 250, True)  # fewer than COLUMN_ROWS_PER_ENTRY rows per entry: the same
    def test_same_bits_and_generator_state(self, seed, n, count, exclude):
        self.assert_same_draws(n, count, seed, exclude)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_same_bits_when_many_draws_are_rejected(self, n):
        # a wide radius rejects a large share of every batch, so the sampler redraws
        with mock.patch.object(verifier, "EXCLUSION_RADIUS", 0.1):
            self.assert_same_draws(n, 500, n, True)


class TestVerifyConfig:
    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            VerifyConfig(suites=("no-such-suite",))

    def test_rejects_empty_suites(self):
        with pytest.raises(ValueError):
            VerifyConfig(suites=())

    def test_suites_kept_once_in_canonical_order(self):
        assert VerifyConfig(suites=("corner", "corner")).suites == ("corner",)
        assert VerifyConfig(suites=("lemma-a1", "corner")).suites == ("corner", "lemma-a1")

    def test_a_str_is_one_suite_name(self):
        assert VerifyConfig(suites="corner").suites == ("corner",)
        with pytest.raises(ValueError, match=r"unknown suites: \['cornerx'\]"):
            VerifyConfig(suites="cornerx")

    def test_rejects_bad_samples_and_dims(self):
        with pytest.raises(ValueError):
            VerifyConfig(samples=0)
        with pytest.raises(ValueError):
            VerifyConfig(n_values=(1, 2))

    @pytest.mark.parametrize("bad", [{"tol": math.inf}, {"tol": 0.0}, {"seed": -1}])
    def test_rejects_bad_tolerance_and_seed(self, bad):
        # tol = inf would pass every identity check whatever its gap
        with pytest.raises(ValueError):
            VerifyConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"samples": 2.5},
            {"samples": 100.0},
            {"samples": True},
            {"seed": 1.5},
            {"seed": True},
            {"n_values": (3.7,)},
            {"n_values": (3, 4.0)},
            {"n_values": (True, 3)},
        ],
    )
    def test_rejects_non_integer_counts(self, bad):
        # 2.5 samples or seed 1.5 used to fail inside numpy; n = 3.7 ran as n = 3
        with pytest.raises(ValueError, match="integer"):
            VerifyConfig(**bad)

    def test_numpy_integers_are_integers(self):
        cfg = VerifyConfig(samples=np.int64(5), n_values=(np.int32(3),), seed=np.uint16(9))
        assert (cfg.samples, cfg.n_values, cfg.seed) == (5, (3,), 9)
        assert all(type(v) is int for v in (cfg.samples, cfg.seed, *cfg.n_values))

    @pytest.mark.parametrize(
        "p_values, message",
        [((), "at least one exponent"), ((2, 2.0, math.inf), "distinct"), ((math.inf, 3, math.inf), "distinct")],
    )
    def test_rejects_empty_or_repeated_exponents(self, p_values, message):
        # equal exponents make "strictly decreasing" false and an empty chain checks nothing
        with pytest.raises(ValueError, match=message):
            VerifyConfig(p_values=p_values)

    @pytest.mark.parametrize("n_values", [(3, 3), (5, 3, np.int64(5))])
    def test_rejects_repeated_dimensions(self, n_values):
        # both entries draw the same (suite, n) substream, so the run would count its margins twice
        with pytest.raises(ValueError, match=r"dimensions must be distinct, got \[\d+(, \d+)+\]"):
            VerifyConfig(n_values=n_values)

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
        # the block a dimension's suites share is keyed by (n, 0, 0) and each suite's own
        # draws by (suite, n), so scheduling cannot matter; the second chain holds neither
        # 1 nor 2, which the block's norm chain adds, and its dimensions are unsorted
        odd = VerifyConfig(samples=300, n_values=(7, 2), p_values=(3.5, math.inf), seed=7)
        for cfg in (SMALL, odd):
            full = {s.name: s for s in run_suite(cfg).suites}
            solo = run_suite(dataclasses.replace(cfg, suites=(name,))).suites[0]
            assert solo.to_dict() == full[name].to_dict()

    @pytest.mark.parametrize(
        "suites", [SUITE_NAMES, ("corner",), ("entropy-identity", "lemma-a1"), ("cv-bound",)], ids=",".join
    )
    def test_each_shared_block_is_drawn_once_per_dimension(self, monkeypatch, suites):
        # every subset, even corner alone, which reads no samples, draws one excluded block per dimension;
        # a suite's generator is made only when it draws, so the suites that never draw make none
        keys, made, draws = {}, [], []
        generator, sample_rows = verifier._generator, verifier._sample_rows

        def keyed(seed, key):
            rng = generator(seed, key)
            keys[id(rng)] = key
            made.append(key)
            return rng

        def recorded(n, count, rng, exclude_special=False):
            draws.append((keys[id(rng)], n, count, exclude_special))
            return sample_rows(n, count, rng, exclude_special)

        monkeypatch.setattr(verifier, "_generator", keyed)
        monkeypatch.setattr(verifier, "_sample_rows", recorded)
        cfg = dataclasses.replace(SMALL, suites=suites, n_values=(7, 2, 3))
        run_suite(cfg)
        shared = [draw for draw in draws if len(draw[0]) == 3]
        assert shared == [((n, 0, 0), n, cfg.samples, True) for n in cfg.n_values]
        drawing = {"inclusion": 2, "corner": 2, "entropy-identity": 3, "eps-nesting": 2}  # from this dimension on
        # in each dimension corner and entropy-identity run first, the other suites after them in canonical order
        run_order = ("corner", "entropy-identity", "cv-bound", "inclusion", "equivalence", "entropy-sandwich")
        run_order += ("lemma-a1", "f-decreasing", "norm-equivalence", "eps-nesting")
        order = [s for s in run_order if s in cfg.suites]
        assert made == [
            key
            for n in cfg.n_values
            for key in [(n, 0, 0)] + [(SUITE_NAMES.index(s), n) for s in order if drawing.get(s, math.inf) <= n]
        ]

    @pytest.mark.parametrize("suites", [("corner",), ("entropy-identity",), ("corner", "entropy-identity")], ids=",".join)
    def test_suites_that_read_no_sample_norms_make_none(self, monkeypatch, suites):
        # the sample block's norm chain is made by the first check that reads it, and these read none
        normed = []
        pnorm_rows = verifier._pnorm_rows

        def counted(rows, p):
            if rows.shape[0] == SMALL.samples:
                normed.append(rows.shape[-1])
            return pnorm_rows(rows, p)

        monkeypatch.setattr(verifier, "_pnorm_rows", counted)
        run_suite(dataclasses.replace(SMALL, suites=suites, n_values=(7, 2, 3)))
        assert normed == []

    def test_each_dimension_checks_the_entropy_identity_before_its_norms_are_made(self, monkeypatch):
        # the identity's log and power blocks are freed before the chain's nine rows are made
        events = []
        pnorm_rows, identity = verifier._pnorm_rows, verifier._CHECKS["entropy-identity"]

        def counted(rows, p):
            if rows.shape[0] == SMALL.samples:
                events.append(("norms", rows.shape[-1]))
            return pnorm_rows(rows, p)

        def recorded(block, make_rng):
            yield from identity(block, make_rng)
            events.append(("entropy-identity", block.n))

        monkeypatch.setattr(verifier, "_pnorm_rows", counted)
        monkeypatch.setitem(verifier._CHECKS, "entropy-identity", recorded)
        cfg = dataclasses.replace(SMALL, n_values=(7, 2, 3))
        run_suite(cfg)
        assert events == [event for n in cfg.n_values for event in (("entropy-identity", n), ("norms", n))]

    @pytest.mark.parametrize("suites", [("entropy-identity", "entropy-sandwich"), ("entropy-sandwich",)], ids=",".join)
    def test_the_samples_entropy_is_made_once_per_dimension_and_exponent(self, monkeypatch, suites):
        # entropy-sandwich reads the H(w) that entropy-identity made of the shared block, and makes it
        # itself only when run alone; the identity's padded rows and vertices are blocks of other sizes
        made = []
        shannon = verifier._shannon_rows

        def counted(w, *args, **kwargs):
            if w.shape[0] == SMALL.samples:
                made.append(w.shape[-1])
            return shannon(w, *args, **kwargs)

        monkeypatch.setattr(verifier, "_shannon_rows", counted)
        cfg = dataclasses.replace(SMALL, suites=suites, n_values=(7, 2, 3))
        run_suite(cfg)
        finite = sum(math.isfinite(p) for p in cfg.p_values)
        assert made == [n for n in cfg.n_values for _ in range(finite)]

    @pytest.mark.parametrize("suites", [("entropy-identity", "entropy-sandwich"), ("entropy-sandwich",)], ids=",".join)
    def test_the_samples_are_logged_once_per_dimension(self, monkeypatch, suites):
        # ln X serves every finite exponent, whichever entropy suite makes H(w) of the shared block
        drawn, logged = [], []
        sample_rows = verifier._sample_rows

        def recorded(*args, **kwargs):
            drawn.append(sample_rows(*args, **kwargs))
            return drawn[-1]

        def spy(log_rows):
            def counted(rows):
                if any(rows is block for block in drawn):
                    logged.append(rows.shape[-1])
                return log_rows(rows)

            return counted

        monkeypatch.setattr(verifier, "_sample_rows", recorded)
        monkeypatch.setattr(verifier, "_log_rows", spy(verifier._log_rows))
        monkeypatch.setattr(core, "_log_rows", spy(core._log_rows))
        cfg = dataclasses.replace(SMALL, suites=suites, n_values=(7, 2, 3))
        run_suite(cfg)
        assert logged == list(cfg.n_values)

    def test_each_cached_quantity_is_made_once_per_dimension(self, monkeypatch):
        # the thresholds and e/n's norms are read by several suites of a dimension and made by the first of them
        thresholds, uniform = [], []
        threshold_rows, pnorm_rows = verifier._threshold_rows, verifier._pnorm_rows

        def counted_thresholds(t, n, p):
            thresholds.append(n)
            return threshold_rows(t, n, p)

        def counted_norms(rows, p):
            if rows.shape[0] == 1:  # e/n, a (1, n) row
                uniform.append(rows.shape[-1])
            return pnorm_rows(rows, p)

        monkeypatch.setattr(verifier, "_threshold_rows", counted_thresholds)
        monkeypatch.setattr(verifier, "_pnorm_rows", counted_norms)
        cfg = dataclasses.replace(SMALL, n_values=(7, 2, 3))
        run_suite(cfg)
        assert thresholds == [n for n in cfg.n_values for _ in cfg.p_values]
        assert uniform == list(cfg.n_values)

    def test_no_earlier_block_is_alive_when_a_dimension_draws(self, monkeypatch):
        # a block still held while the next one draws would add its samples, norms and H(w) to the peak
        blocks, alive = [], []
        sample_rows = verifier._sample_rows

        class Recorded(verifier._Block):
            def __init__(self, *args):
                super().__init__(*args)
                blocks.append(weakref.ref(self))

        def recorded(n, count, rng, exclude_special=False):
            if exclude_special:
                alive.append(sum(ref() is not None for ref in blocks))
            return sample_rows(n, count, rng, exclude_special)

        monkeypatch.setattr(verifier, "_Block", Recorded)
        monkeypatch.setattr(verifier, "_sample_rows", recorded)
        cfg = dataclasses.replace(SMALL, n_values=(7, 2, 3))
        run_suite(cfg)
        assert (len(blocks), alive) == (len(cfg.n_values), [0] * len(cfg.n_values))

    @pytest.mark.parametrize(
        "cfg",
        [SMALL, VerifyConfig(samples=50, n_values=(7, 2), p_values=(3.5, 60.0, math.inf), seed=3)],
    )
    def test_draw_independent_counts_follow_the_config(self, cfg):
        # what eight suites check depends on the config alone; a shared block sliced wrong,
        # or a sample row counted as lemma-a1's e/n term, moves a count
        S, N, P = cfg.samples, cfg.n_values, cfg.p_values
        F = sum(math.isfinite(p) for p in P)
        expected = {
            "cv-bound": S * len(N) * len(P),
            "equivalence": len(N) * len(P) * (2 * S + 1),
            "corner": len(P) * sum((S + 1) * n + 1 for n in N),
            "entropy-identity": F * sum(S + n + (max(S // 10, 1) if n >= 3 else 0) for n in N),
            "entropy-sandwich": 2 * S * len(N) * F,
            "lemma-a1": (S + 1) * len(N) * F,
            "f-decreasing": S * len(N) * (len(P) - 1),
            "norm-equivalence": 2 * S * len(N) * math.comb(len(P) + 1, 2),
        }
        checked = {s.name: s.checked for s in run_suite(cfg).suites}
        assert {name: checked[name] for name in expected} == expected

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

    @pytest.mark.parametrize(
        "suite, constant, value, keys",
        [
            ("inclusion", "NONSTRICT_SLACK", -2.0, {"n", "p_pair", "epsilon", "vector", "margin"}),
            ("corner", "STRICT_MARGIN", 1e9, {"n", "p", "vertex", "epsilon", "margin"}),
            ("eps-nesting", "NONSTRICT_SLACK", -2.0, {"n", "p", "eps_pair", "vector", "margin"}),
        ],
    )
    def test_counterexamples_name_what_failed(self, monkeypatch, suite, constant, value, keys):
        # a threshold above every margin it judges (below 1, or at most n - 1 for corner) fails them all
        monkeypatch.setattr(verifier, constant, value)
        result = run_suite(VerifyConfig(suites=(suite,), samples=20, seed=3)).suites[0]
        assert result.failures > verifier.COUNTEREXAMPLE_CAP
        assert len(result.counterexamples) == verifier.COUNTEREXAMPLE_CAP
        for example in result.counterexamples:
            assert set(example) == keys

    def test_seed_echoed_in_report(self):
        report = run_suite(SMALL)
        assert report.config.seed == 7
        assert report.to_dict()["seed"] == 7

    def test_runs_in_threads_match_serial_runs(self):
        # the kernels make their own temporaries and each run its own blocks; more threads than cores, switching often
        configs = [
            VerifyConfig(samples=400, seed=3),
            VerifyConfig(samples=700, n_values=(7, 2), p_values=(2.0, 3.5, math.inf), seed=5),
            VerifyConfig(samples=250, n_values=(130, 3), p_values=(2.0, 60.0), seed=9),
        ]
        serial = [run_suite(cfg).to_dict() for cfg in configs]
        threaded = [None] * len(configs)

        def run(i):
            threaded[i] = run_suite(configs[i]).to_dict()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial

    def test_non_integer_exponent_chain_passes(self):
        # the theory is stated for integer p; the continuum version is
        # checked numerically on the same footing
        report = run_suite(
            VerifyConfig(samples=300, seed=13, p_values=(2.0, 2.5, 3.75, 7.5, math.inf))
        )
        assert report.all_passed


class TestDriver:
    """run_suite folds the blocks a check yields into one SuiteResult."""

    def run_fake(self, monkeypatch, check, n_values=(2, 3)):
        monkeypatch.setitem(verifier._CHECKS, "corner", check)
        cfg = VerifyConfig(suites=("corner",), samples=1, n_values=n_values)
        return run_suite(cfg).suites[0]

    @pytest.mark.parametrize("strict, failures", [(True, 1), (False, 0)])
    def test_margin_at_threshold_fails_only_when_strict(self, monkeypatch, strict, failures):
        def check(block, rng):
            yield [0.5, 0.25], 0.25, strict, lambda i: {"i": i}

        result = self.run_fake(monkeypatch, check, n_values=(2,))
        assert (result.checked, result.failures, result.worst_margin) == (2, failures, 0.25)
        assert list(result.counterexamples) == [{"i": 1, "margin": 0.25}] * failures

    def test_a_check_cannot_write_the_shared_block(self, monkeypatch):
        # every suite of a dimension reads the same samples, so a write would reach the suites after it
        def check(block, rng):
            block.X[0, 0] = 0.5
            yield [1.0], 0.0, False, lambda i: {}

        with pytest.raises(ValueError, match="read-only"):
            self.run_fake(monkeypatch, check)

    def test_empty_block_is_neither_counted_nor_worst(self, monkeypatch):
        def check(block, rng):
            yield np.empty(0), 0.0, False, lambda i: {}
            yield [3.0, 2.0], 0.0, False, lambda i: {}
            yield np.empty((0, block.n)), 0.0, True, lambda i: {}

        result = self.run_fake(monkeypatch, check)
        assert (result.checked, result.failures, result.worst_margin) == (4, 0, 2.0)
        assert result.passed

    def test_only_nothing_checked_gives_no_worst_margin(self, monkeypatch):
        def check(block, rng):
            yield [], 0.0, False, lambda i: {}

        result = self.run_fake(monkeypatch, check)
        assert (result.checked, result.worst_margin, result.passed) == (0, None, False)

    @pytest.mark.parametrize("strict", [True, False])
    def test_nan_margin_fails_and_is_never_the_worst(self, monkeypatch, strict):
        def check(block, rng):
            yield [0.5, math.nan, -1.0], 0.0, strict, lambda i: {"i": i}
            yield [math.nan], 0.0, strict, lambda i: {"i": i}

        result = self.run_fake(monkeypatch, check, n_values=(2,))
        assert (result.checked, result.failures, result.worst_margin) == (4, 3, -1.0)
        assert [e["margin"] for e in result.counterexamples] == [None, -1.0, None]
        assert not result.passed
        json.dumps(result.to_dict(), allow_nan=False)  # null, never NaN

    def test_only_nan_margins_give_no_worst_margin(self, monkeypatch):
        def check(block, rng):
            yield np.full(3, math.nan), 0.0, False, lambda i: {}

        result = self.run_fake(monkeypatch, check, n_values=(2,))
        assert (result.checked, result.failures, result.worst_margin) == (3, 3, None)

    def test_counterexamples_capped_in_yield_order(self, monkeypatch):
        cap = verifier.COUNTEREXAMPLE_CAP
        per_block = cap // 4 + 1  # four blocks overflow the cap, and it falls in the second dimension

        def check(block, rng):
            n = block.n
            for part in range(2):
                margins = -1.0 - np.arange(per_block) - 100 * part - 1000 * n
                yield margins, 0.0, False, lambda i, part=part: {"n": n, "block": part, "i": i}

        result = self.run_fake(monkeypatch, check)
        assert result.failures == result.checked == 2 * 2 * per_block
        assert len(result.counterexamples) == cap
        order = [(e["n"], e["block"], e["i"]) for e in result.counterexamples]
        expected = [(n, b, i) for n in (2, 3) for b in range(2) for i in range(per_block)]
        assert order == expected[:cap]
        assert {list(e)[-1] for e in result.counterexamples} == {"margin"}
        assert result.counterexamples[0]["margin"] == -2001.0
        assert result.worst_margin == -3000.0 - 100 - per_block


def reference_fold(tally, margin_blocks):
    """The fold as it was before a passing block skipped its scan: every block is reduced and scanned in row-major order."""
    for margins, threshold, strict, example in margin_blocks:
        margins = np.asarray(margins, dtype=float).ravel()
        if not margins.size:
            continue
        tally.checked += margins.size
        low = float(np.fmin.reduce(margins))
        if not math.isnan(low) and (tally.worst is None or low < tally.worst):
            tally.worst = low
        bad = np.flatnonzero(~(margins > threshold if strict else margins >= threshold))
        tally.failures += bad.size
        for i in bad[: verifier.COUNTEREXAMPLE_CAP - len(tally.examples)]:
            margin = None if np.isnan(margins[i]) else float(margins[i])
            tally.examples.append({**example(int(i)), "margin": margin})


@st.composite
def laid_out(draw, values):
    """values as a list, or as a 2-D block in C order, in F order or as the transposed view of a C block."""
    layout = draw(st.sampled_from(["list", "C", "F", "T"]))
    shapes = [(r, len(values) // r) for r in range(1, len(values) + 1) if len(values) % r == 0]
    if layout == "list" or not shapes:
        return values
    rows, cols = draw(st.sampled_from(shapes))
    if layout == "T":
        return np.array(values).reshape(cols, rows).T
    return np.array(np.reshape(values, (rows, cols)), order=layout)


@st.composite
def margin_blocks(draw):
    """(margins, threshold, strict) blocks: passing ones, and mixed ones of NaN, ±0, ±inf and the threshold itself,
    each a list or a 2-D block in one of three memory layouts."""
    blocks = []
    for _ in range(draw(st.integers(0, 6))):
        threshold = draw(st.sampled_from([0.0, -0.0, -verifier.NONSTRICT_SLACK, verifier.STRICT_MARGIN, 1e-9]))
        strict = draw(st.booleans())
        edges = st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, threshold])
        passing = st.one_of(st.sampled_from([math.inf, 1.0]), st.floats(0.5, 1e300))
        if not strict:
            passing = st.one_of(passing, st.just(threshold))
        mixed = st.one_of(edges, st.floats(-1e3, 1e3), passing)
        values = draw(st.lists(draw(st.sampled_from([passing, mixed])), max_size=8))
        blocks.append((draw(laid_out(values)), threshold, strict))
    return blocks


def bits_or_none(value):
    return None if value is None else int(np.float64(value).view(np.int64))


class TestFold:
    """_Tally.fold skips the scan of a block whose least margin passes, and folds as the full row-major scan does."""

    @settings(max_examples=400)
    @given(margin_blocks())
    @example([([-1.0] * 6, 0.0, False), ([math.nan] * 6, 0.0, True), ([1.0], 0.0, True)])  # the cap inside block 2
    @example([([-0.0, 0.0], 0.0, False), ([0.0, -0.0], 0.0, True), ([-0.0], -0.0, False)])
    @example([([1.0, math.nan, 2.0], -1e-10, False), ([math.inf, -math.inf], 0.0, True)])
    @example([([1e-9, 1e-9], 1e-9, False), ([1e-9], 1e-9, True)])
    # ±0 whose first zero differs in row-major and in memory order: the worst margin takes the row-major one's sign
    @example([(np.asfortranarray([[1.0, -0.0], [0.0, 2.0]]), 0.0, False), (np.array([[3.0, 0.0], [-0.0, 1.0]]).T, 0.0, False)])
    # a failing column-major block: its counterexamples come in row-major order
    @example([(np.asfortranarray([[1.0, -2.0, 0.0], [-1.0, -0.0, math.nan]]), 0.0, True)])
    def test_matches_the_full_scan(self, blocks):
        def yielded():
            for k, (margins, threshold, strict) in enumerate(blocks):
                yield margins, threshold, strict, lambda i, k=k: {"block": k, "i": i}

        got, expected = verifier._Tally(), verifier._Tally()
        got.fold(yielded())
        reference_fold(expected, yielded())
        assert (got.checked, got.failures) == (expected.checked, expected.failures)
        assert bits_or_none(got.worst) == bits_or_none(expected.worst)
        assert [(e["block"], e["i"], bits_or_none(e["margin"])) for e in got.examples] == [
            (e["block"], e["i"], bits_or_none(e["margin"])) for e in expected.examples
        ]

    def test_a_passing_block_is_not_scanned(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a passing block was scanned")

        monkeypatch.setattr(verifier.np, "flatnonzero", refuse)
        tally = verifier._Tally()
        tally.fold([([1.0, 0.0, math.inf], 0.0, False, None), ([2.0, 1e-12 * 2], 1e-12, True, None)])
        assert (tally.checked, tally.failures, tally.worst, tally.examples) == (5, 0, 0.0, [])


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
