"""Seeded, sampling-based verification of the family's propositions and lemmas.

The suites of one dimension share one block of flat-Dirichlet simplex
samples (unit-exponential draws normalized by their sum), kept at least
1e-6 away (max norm) from the excluded points {e_i, e/n}, from pinned
generators -- numpy's PCG64 seeded through SeedSequence with a
per-dimension spawn key; what else a suite draws has a per-(suite,
dimension) key. The vertices and e/n are checked as explicit rows. Each
suite evaluates one inequality or identity per sample and reports counts,
the worst margin, and up to ten counterexamples. Failures are data, not
exceptions.

Strict inequalities are checked with margin > 1e-12; non-strict ones
allow 1e-10 of round-off slack; identities use the configured tolerance
(default 1e-9).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, pairwise

import numpy as np

from .core import (
    check_exponent,
    check_tolerance,
    dispersion_constant,
    _log_rows,
    _pnorm_rows,
    _power_sum_rows,
    _row_max,
    _row_sum,
    _shannon_rows,
)
# _eps_rows has no caller here, but the benchmark's fairbench/tracing.py wraps it by name
from .fairness import _cv2_rows, _cv_bound_rows, _eps_rows, _slack_rows, _threshold_rows

DEFAULT_N_VALUES = (2, 3, 5, 10)
DEFAULT_P_CHAIN = (2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0, math.inf)

#: Allowed round-off slack on non-strict inequalities.
NONSTRICT_SLACK = 1e-10
#: Required positive margin for strict inequalities on filtered samples.
STRICT_MARGIN = 1e-12
#: Slack on the coefficient-of-variation bound.
CV_BOUND_SLACK = 1e-9
#: Max-norm rejection radius around the excluded points {e_i, e/n}.
EXCLUSION_RADIUS = 1e-6
#: Per-suite cap on stored counterexamples.
COUNTEREXAMPLE_CAP = 10


def _p_token(p: float):
    return "inf" if math.isinf(p) else float(p)


@dataclass(frozen=True)
class VerifyConfig:
    """What to verify: suites, samples, dimensions, exponent chain, seed, tolerance; each judged here alone."""

    suites: tuple[str, ...] = field(default_factory=lambda: SUITE_NAMES)
    samples: int = 10000
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    p_values: tuple[float, ...] = DEFAULT_P_CHAIN
    seed: int = 42
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.suites, str):  # one suite name, not a sequence of letters
            object.__setattr__(self, "suites", (self.suites,))
        if not self.suites:
            raise ValueError("at least one suite is required")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown} (known: {list(SUITE_NAMES)})")
        # each suite runs once, and is reported and echoed in canonical order
        object.__setattr__(self, "suites", tuple(s for s in SUITE_NAMES if s in self.suites))
        if not self.n_values:
            raise ValueError("at least one dimension is required")
        counts = [("samples", self.samples), ("seed", self.seed)]
        for name, value in counts + [("dimension", n) for n in self.n_values]:
            # a bool is an int to Python, and a float count fails in numpy or truncates
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if any(n < 2 for n in self.n_values):
            raise ValueError("all dimensions must be >= 2")
        # a repeated dimension draws the same substream again, so its margins would count twice
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"dimensions must be distinct, got {[int(n) for n in self.n_values]}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        p_values = sorted(check_exponent(p) for p in self.p_values)
        if not p_values:
            raise ValueError("at least one exponent is required")
        if any(a == b for a, b in zip(p_values, p_values[1:])):
            raise ValueError(f"exponents must be distinct, got {p_values!r}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "p_values", tuple(p_values))
        object.__setattr__(self, "tol", check_tolerance(self.tol))


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate outcome of one suite over all samples and (n, p) combinations."""

    name: str
    checked: int
    failures: int
    worst_margin: float | None
    counterexamples: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        """No failures among at least one checked sample: an empty check proves nothing."""
        return self.failures == 0 and self.checked > 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
        }


@dataclass(frozen=True)
class VerificationReport:
    """Per-suite results plus the configuration that produced them."""

    config: VerifyConfig
    suites: tuple[SuiteResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        """The run as its inputs (the configuration but the seed), its results and its seed."""
        cfg = self.config
        inputs = {
            "suite": list(cfg.suites),
            "samples": cfg.samples,
            "n_values": list(cfg.n_values),
            "p_values": [_p_token(p) for p in cfg.p_values],
            "tol": cfg.tol,
        }
        results = {"suites": [s.to_dict() for s in self.suites], "all_passed": self.all_passed}
        return {"inputs": inputs, "results": results, "seed": cfg.seed}


def _generator(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Independent substream for one spawn key.

    A suite's own draws at dimension n are keyed (suite, n) and the samples
    of the _Block all suites of n share (n, 0, 0); a triple never equals a
    pair, so no suite draws from another's substreams, and a run of any
    subset of the suites reproduces each of them as the full run reports
    it. A suite's generator is made when it first draws, so a suite that
    draws nothing makes none.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _sample_rows(n: int, count: int, rng, exclude_special: bool = False) -> np.ndarray:
    """Flat-Dirichlet rows: unit-exponential draws normalized by their sum.

    The block is column-major, so the row kernels read contiguous columns:
    each draw is copied into the rows still unfilled and normalized there.
    With exclude_special, rows within EXCLUSION_RADIUS (max norm) of any
    vertex e_i or of e/n are rejected, the kept rows moved up, and the rest
    redrawn.
    """
    rows = np.empty((count, n), order="F")
    filled = 0
    while filled < count:
        batch = rows[filled:]
        batch[...] = rng.standard_exponential(batch.shape)
        np.divide(batch, _row_sum(batch, keepdims=True), out=batch)
        kept = batch.shape[0]
        if exclude_special:
            # a row is within eps of some e_i exactly when its max >= 1 - eps
            spread = np.subtract(batch, 1.0 / n)
            keep = (1.0 - _row_max(batch) > EXCLUSION_RADIUS) & (_row_max(np.abs(spread, out=spread)) > EXCLUSION_RADIUS)
            kept = int(np.count_nonzero(keep))
            if kept < batch.shape[0]:
                batch[:kept] = batch[keep]
        filled += kept
    return rows


def _row_example(X: np.ndarray, n: int, p: float, **extra):
    def make(i: int) -> dict:
        info = {"n": n, "p": _p_token(p), "vector": X[i].tolist()}
        info.update(extra)
        return info

    return make


def _finite_ps(cfg: VerifyConfig) -> list[float]:
    return [p for p in cfg.p_values if math.isfinite(p)]


class _Block:
    """One dimension's read-only samples X, drawn from key (n, 0, 0), and what the first check to read it makes of X."""

    def __init__(self, cfg: VerifyConfig, n: int):
        self.cfg, self.n = cfg, n
        self.X = _sample_rows(n, cfg.samples, _generator(cfg.seed, (n, 0, 0)), exclude_special=True)
        self.X.flags.writeable = False  # the checks share it, so none may write it
        self.entropy = {}  # the samples' H(w) by finite exponent, filled by the entropy suite that runs first

    @cached_property
    def norms(self) -> dict:
        """The samples' norms by exponent, one chain over 1, 2 and the configured exponents."""
        chain = tuple(sorted({1.0, 2.0, *self.cfg.p_values}))  # cv-bound reads the 2-norm, norm-equivalence the 1-norm
        return dict(zip(chain, _pnorm_rows(self.X, chain)))

    @cached_property
    def thresholds(self) -> list:
        """eps_p(x) of the samples at each configured exponent."""
        return [_threshold_rows(self.norms[p], self.n, p) for p in self.cfg.p_values]

    @cached_property
    def uniform(self) -> tuple:
        """e/n as a (1, n) row and its norms by configured exponent, one chain."""
        uniform = np.full((1, self.n), 1.0 / self.n)
        return uniform, dict(zip(self.cfg.p_values, _pnorm_rows(uniform, self.cfg.p_values)))

    def uniform_gap(self, p: float) -> tuple:
        """e/n meets the eps = 1 constraint (1 + D_p) ||e/n||_p = 1 within tol."""
        uniform, norms = self.uniform
        gap = abs(float(_slack_rows(norms[p][0], self.n, 1.0, p)))
        return [self.cfg.tol - gap], 0.0, False, _row_example(uniform, self.n, p, epsilon=1.0)


# Each check below states one suite's inequality for one dimension: it reads
# the dimension's _Block -- cfg, n, the samples X and their norms, thresholds,
# e/n's norms and H(w), each made once by the first check to read it (corner
# and entropy-identity read no norms, so run_suite runs those two first). It
# calls make_rng() for the (suite, n) generator when it first draws what else
# it needs, and yields blocks of (margins, threshold, strict, example), where
# example(i) describes the i-th margin of its block in row-major order.


def _check_cv_bound(block: _Block, make_rng):
    """CV(x)^2 <= B_p(eps_p(x)) with slack, for every sample and exponent."""
    cfg, n, X = block.cfg, block.n, block.X
    cv2 = _cv2_rows(block.norms[2.0], n)
    for p, eps in zip(cfg.p_values, block.thresholds):
        yield _cv_bound_rows(n, p, eps) - cv2, -CV_BOUND_SLACK, False, _row_example(X, n, p)


def _check_inclusion(block: _Block, make_rng):
    """Membership at the larger exponent implies membership at the smaller one."""
    cfg, n, X, norms = block.cfg, block.n, block.X, block.norms
    eps = make_rng().random(cfg.samples)
    slacks = (_slack_rows(norms[p], n, eps, p) for p in cfg.p_values)  # each made once, for both its pairs
    for (p1, slack1), (p2, slack2) in pairwise(zip(cfg.p_values, slacks)):
        inner = slack2 >= 0.0
        idx = np.nonzero(inner)[0]
        margins = slack1[inner]

        def example(i: int) -> dict:
            j = int(idx[i])
            return {"n": n, "p_pair": [_p_token(p1), _p_token(p2)], "epsilon": float(eps[j]), "vector": X[j].tolist()}

        yield margins, -NONSTRICT_SLACK, False, example


def _check_equivalence(block: _Block, make_rng):
    """At eps = 0 everything is a member; at eps = 1 only e/n is, for every p."""
    n, X, norms = block.n, block.X, block.norms
    for p in block.cfg.p_values:
        t = norms[p]
        yield _slack_rows(t, n, 0.0, p), -NONSTRICT_SLACK, False, _row_example(X, n, p, epsilon=0.0)
        yield -_slack_rows(t, n, 1.0, p), STRICT_MARGIN, True, _row_example(X, n, p, epsilon=1.0)
        yield block.uniform_gap(p)


def _check_corner(block: _Block, make_rng):
    """Vertices are members only at eps = 0; e/n stays a member even at eps = 1."""
    cfg, n = block.cfg, block.n
    eps = EXCLUSION_RADIUS + (1.0 - EXCLUSION_RADIUS) * make_rng().random(cfg.samples)
    vertices = np.eye(n)
    for p, tv in zip(cfg.p_values, _pnorm_rows(vertices, cfg.p_values)):
        d = dispersion_constant(n, p)

        def example(i: int) -> dict:
            sample, vertex = divmod(i, n)
            return {"n": n, "p": _p_token(p), "vertex": int(vertex), "epsilon": float(eps[sample])}

        # (1 + eps d) tv - 1, column-major: a row-major broadcast loops over only n entries at a time
        margins = np.multiply((1.0 + eps * d)[:, None], tv, order="F")
        margins -= 1.0
        yield margins, STRICT_MARGIN, True, example
        yield 1.0 - tv, -NONSTRICT_SLACK, False, _row_example(vertices, n, p, epsilon=0.0)
        yield block.uniform_gap(p)


def _entropy_rows(rows: np.ndarray, p: float, logs=None):
    """S_p, its p-derivative S_p' and the Shannon entropy H(w) of the weights w = x^p / S_p, by row."""
    total, derivative, weights = _power_sum_rows(rows, p, logs)
    return total, derivative, _shannon_rows(weights)


def _check_entropy_identity(block: _Block, make_rng):
    """ln S_p - p S_p'/S_p = H(w), including rows with zero components."""
    cfg, n, X = block.cfg, block.n, block.X
    blocks = [X]
    if n >= 3:
        # zero-component rows: lower-dimensional samples padded with a zero, column-major as X is
        count = max(cfg.samples // 10, 1)
        padded = np.zeros((count, n), order="F")
        padded[:, :-1] = _sample_rows(n - 1, count, make_rng())
        blocks.append(padded)
    blocks.append(np.eye(n))
    logs = [_log_rows(rows) for rows in blocks]  # once per block, for every p
    for p in _finite_ps(cfg):
        for rows, log_x in zip(blocks, logs):
            total, derivative, entropy = _entropy_rows(rows, p, log_x)
            if rows is X:
                block.entropy[p] = entropy  # entropy-sandwich reads the samples' H(w) from here
            gap = np.abs(np.log(total) - p * derivative / total - entropy)
            yield cfg.tol - gap, 0.0, False, _row_example(rows, n, p)


def _check_entropy_sandwich(block: _Block, make_rng):
    """0 <= H(w) <= -(p/(p-1)) ln ||x||_p for the power-sum weights."""
    n, X, norms, entropies = block.n, block.X, block.norms, block.entropy
    ps = _finite_ps(block.cfg)
    # entropy-identity made H(w) already, unless it did not run; then ln X is made once for every p
    logs = _log_rows(X) if any(p not in entropies for p in ps) else None
    for p in ps:
        if p not in entropies:
            entropies[p] = _entropy_rows(X, p, logs)[2]
        entropy = entropies[p]
        yield entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)
        yield -(p / (p - 1.0)) * np.log(norms[p]) - entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)


def _check_lemma_a1(block: _Block, make_rng):
    """Strict negativity of the log-bound expression on the samples, equality at e/n."""
    n, X, norms = block.n, block.X, block.norms
    uniform, uniform_norms = block.uniform
    for p in _finite_ps(block.cfg):
        d = dispersion_constant(n, p)
        samples, center = (
            (p / (p - 1.0)) * (-np.log(t)) / (1.0 - t) - math.log(n) * (1.0 + 1.0 / d)
            for t in (norms[p], uniform_norms[p])
        )
        yield -samples, STRICT_MARGIN, True, _row_example(X, n, p)
        yield block.cfg.tol - np.abs(center), 0.0, False, _row_example(uniform, n, p)


def _check_f_decreasing(block: _Block, make_rng):
    """eps_p(x) strictly decreases along the ascending exponent chain."""
    n, X = block.n, block.X
    for (p1, eps1), (p2, eps2) in pairwise(zip(block.cfg.p_values, block.thresholds)):
        yield eps1 - eps2, STRICT_MARGIN, True, _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)])


def _check_norm_equivalence(block: _Block, make_rng):
    """||x||_p2 <= ||x||_p1 <= ((D_p2+1)/(D_p1+1)) ||x||_p2 for all 1 <= p1 < p2."""
    n, X, norms = block.n, block.X, block.norms
    for p1, p2 in combinations([1.0, *block.cfg.p_values], 2):
        example = _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)])
        ratio = (dispersion_constant(n, p2) + 1.0) / (dispersion_constant(n, p1) + 1.0)
        yield norms[p1] - norms[p2], -NONSTRICT_SLACK, False, example
        yield ratio * norms[p2] - norms[p1], -NONSTRICT_SLACK, False, example


def _check_eps_nesting(block: _Block, make_rng):
    """Membership at a larger eps implies membership at any smaller eps."""
    cfg, n, X, norms = block.cfg, block.n, block.X, block.norms
    a, b = make_rng().random((2, cfg.samples))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    for p in cfg.p_values:
        applicable = (hi > lo) & (_slack_rows(norms[p], n, hi, p) >= 0.0)
        idx = np.nonzero(applicable)[0]
        margins = _slack_rows(norms[p], n, lo, p)[applicable]

        def example(i: int) -> dict:
            j = int(idx[i])
            return {"n": n, "p": _p_token(p), "eps_pair": [float(hi[j]), float(lo[j])], "vector": X[j].tolist()}

        yield margins, -NONSTRICT_SLACK, False, example


_CHECKS = {
    "cv-bound": _check_cv_bound,
    "inclusion": _check_inclusion,
    "equivalence": _check_equivalence,
    "corner": _check_corner,
    "entropy-identity": _check_entropy_identity,
    "entropy-sandwich": _check_entropy_sandwich,
    "lemma-a1": _check_lemma_a1,
    "f-decreasing": _check_f_decreasing,
    "norm-equivalence": _check_norm_equivalence,
    "eps-nesting": _check_eps_nesting,
}

#: The suites in canonical order; a suite's position keys its random substream.
SUITE_NAMES = tuple(_CHECKS)


@dataclass
class _Tally:
    """One suite's result so far, folded block by block in yield order."""

    checked: int = 0
    failures: int = 0
    worst: float | None = None
    examples: list = field(default_factory=list)

    def fold(self, margin_blocks) -> None:
        """Fold a check's margin blocks: a margin fails at or below its threshold when strict, below it otherwise,
        NaN always; the first COUNTEREXAMPLE_CAP failures are kept in row-major order, each with its margin last
        (NaN as null). The worst margin is the least numeric one, as np.fmin finds it in row-major order.

        Each block is reduced once, by np.minimum in memory order, so a column-major block is not copied; that
        least margin is NaN if any margin is. A block whose least margin passes has no failure and is not
        scanned. Only a least margin that is NaN or a zero is found again, by np.fmin over the row-major copy,
        so that NaN is never the worst margin and a zero keeps the sign that order gives it; a block that does
        not pass is scanned over that copy.
        """
        for margins, threshold, strict, example in margin_blocks:
            margins = np.asarray(margins, dtype=float)
            if not margins.size:  # an empty block checks nothing
                continue
            self.checked += margins.size
            least = float(np.minimum.reduce(margins.ravel(order="K")))
            low = least
            if math.isnan(least) or least == 0.0:  # the least numeric margin, with its row-major sign of zero
                margins = margins.ravel()
                low = float(np.fmin.reduce(margins))
            if not math.isnan(low) and (self.worst is None or low < self.worst):
                self.worst = low
            passes = np.greater if strict else np.greater_equal
            if passes(least, threshold):  # a NaN least margin fails
                continue
            margins = margins.ravel()
            bad = np.flatnonzero(~passes(margins, threshold))
            self.failures += bad.size
            for i in bad[: COUNTEREXAMPLE_CAP - len(self.examples)]:
                margin = None if np.isnan(margins[i]) else float(margins[i])
                self.examples.append({**example(int(i)), "margin": margin})


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the suites one dimension at a time on one read-only sample block; 0/0 is a failing margin, not a warning.

    A dimension's checks share its _Block: the samples and what the first check to read it makes of them. corner and
    entropy-identity read no sample norms, so they run first, the rest after them in canonical order: the identity's
    blocks are freed before the norm chain is made, and a run of those two alone makes none. Reports keep their order.
    A block is deleted before the next is drawn, so the allocation peak holds one dimension's samples and norms.
    """
    tallies = {name: _Tally() for name in cfg.suites}
    order = sorted(cfg.suites, key=lambda name: name not in ("corner", "entropy-identity"))  # stable
    with np.errstate(all="ignore"):
        for n in cfg.n_values:
            block = _Block(cfg, n)
            for name in order:
                make_rng = partial(_generator, cfg.seed, (SUITE_NAMES.index(name), n))
                tallies[name].fold(_CHECKS[name](block, make_rng))
            del block  # not held while the next dimension's is drawn
    results = (SuiteResult(name, t.checked, t.failures, t.worst, tuple(t.examples)) for name, t in tallies.items())
    return VerificationReport(cfg, tuple(results))
