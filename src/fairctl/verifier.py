"""Seeded, sampling-based verification of the family's propositions and lemmas.

The suites of one dimension share two blocks of flat-Dirichlet simplex
samples (unit-exponential draws normalized by their sum), a plain one and
one kept away from {e_i, e/n}, from pinned generators -- numpy's PCG64
seeded through SeedSequence with a per-(dimension, kind) spawn key; what
else a suite draws has a per-(suite, dimension) key. Each suite evaluates
one inequality or identity per sample and reports counts, the worst
margin, and up to ten counterexamples. Failures are data, not exceptions.

Strict inequalities are checked with margin > 1e-12 on samples kept at
least 1e-6 away (max norm) from the excluded points {e_i, e/n}; non-strict
ones allow 1e-10 of round-off slack; identities use the configured
tolerance (default 1e-9).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations, pairwise

import numpy as np

from .core import (
    check_exponent,
    check_tolerance,
    dispersion_constant,
    _log_rows,
    _pnorm_rows,
    _power_sum_rows,
    _powered_rows,
    _row_max,
    _row_sum,
    _shannon_rows,
    _NO_WORKSPACE,
    _Workspace,
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
        # each suite runs once, in canonical order, and is echoed as it runs
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

    A suite's own draws at dimension n are keyed (suite, n) and the blocks
    all suites of n share (n, kind, 0); a triple never equals a pair, so no
    suite draws from another's substreams, and a run of any subset of the
    suites reproduces each of them as the full run reports it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _sample_rows(n: int, count: int, rng, exclude_special: bool = False, work=_NO_WORKSPACE, out=None) -> np.ndarray:
    """Flat-Dirichlet rows: unit-exponential draws normalized by their sum.

    The block is column-major, so the row kernels read contiguous columns.
    With exclude_special, rows within EXCLUSION_RADIUS (max norm) of any
    vertex e_i or of e/n are rejected and redrawn. The rows fill ``out``, else the "sample" slot.
    """
    rows = work.take("sample", (count, n), "F") if out is None else out
    filled = 0
    while filled < count:
        draw = rng.standard_exponential(out=work.take("power", (count - filled, n)))
        batch = np.divide(draw, _row_sum(draw, keepdims=True), out=draw)
        if exclude_special:
            # a row is within eps of some e_i exactly when its max >= 1 - eps
            gap = np.subtract(batch, 1.0 / n, out=work.take("ratio", batch.shape))
            keep = (1.0 - _row_max(batch) > EXCLUSION_RADIUS) & (
                _row_max(np.abs(gap, out=gap)) > EXCLUSION_RADIUS
            )
            batch = batch if keep.all() else batch[keep]
        rows[filled : filled + batch.shape[0]] = batch
        filled += batch.shape[0]
    return rows


def _row_example(X: np.ndarray, n: int, p: float, **extra):
    def make(i: int) -> dict:
        info = {"n": n, "p": _p_token(p), "vector": X[i].tolist()}
        info.update(extra)
        return info

    return make


def _finite_ps(cfg: VerifyConfig) -> list[float]:
    return [p for p in cfg.p_values if math.isfinite(p)]


def _uniform_gap(cfg: VerifyConfig, n: int, p: float) -> tuple:
    """e/n meets the eps = 1 constraint (1 + D_p) ||e/n||_p = 1 within tol."""
    uniform = np.full((1, n), 1.0 / n)
    gap = abs(float(_slack_rows(_pnorm_rows(uniform, p)[0], n, 1.0, p)))
    return [cfg.tol - gap], 0.0, False, _row_example(uniform, n, p, epsilon=1.0)


class _SharedBlocks:
    """The samples all suites of dimension n check: a plain block, and one kept away from {e_i, e/n} with e/n last.

    A block is drawn from its (n, kind) key into the "sample" slot, which no
    check writes, and normed by one ``_pnorm_rows`` chain over 1, 2 and the
    configured exponents. The slot holds one block: asking for the other
    draws it in place, so the suites run in _RUN_ORDER, which draws each once.
    """

    def __init__(self, cfg: VerifyConfig, n: int, work: _Workspace):
        self.cfg, self.n, self.work = cfg, n, work
        self.kind = self.block = None

    def _drawn(self, kind: int) -> tuple[np.ndarray, dict]:
        if kind != self.kind:
            self.block = None  # free the old block's norms before its rows are overwritten
            count = self.cfg.samples
            X = self.work.take("sample", (count + kind, self.n), "F")
            rng = _generator(self.cfg.seed, (self.n, kind, 0))
            _sample_rows(self.n, count, rng, exclude_special=kind == 1, work=self.work, out=X[:count])
            X[count:] = 1.0 / self.n  # e/n below the excluded block's samples; no row of the plain one
            chain = tuple(sorted({1.0, 2.0, *self.cfg.p_values}))
            self.kind, self.block = kind, (X, dict(zip(chain, _pnorm_rows(X, chain, self.work))))
        return self.block

    plain = property(lambda self: self._drawn(0))
    excluded = property(lambda self: self._drawn(1))


# Each check below states one suite's inequality for one dimension n: it reads
# the shared blocks of n, draws what else it needs from the (suite, n) generator
# it is given, and yields blocks of (margins, threshold, strict, example), where
# example(i) describes the i-th margin of its block.


def _check_cv_bound(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """CV(x)^2 <= B_p(eps_p(x)) with slack, for every sample and exponent."""
    X, norms = shared.plain
    cv2 = _cv2_rows(norms[2.0], n)
    for p in cfg.p_values:
        bound = _cv_bound_rows(n, p, _threshold_rows(norms[p], n, p))
        yield bound - cv2, -CV_BOUND_SLACK, False, _row_example(X, n, p)


def _check_inclusion(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """Membership at the larger exponent implies membership at the smaller one."""
    X, norms = shared.plain
    eps = rng.random(cfg.samples)
    for p1, p2 in pairwise(cfg.p_values):
        inner = _slack_rows(norms[p2], n, eps, p2) >= 0.0
        idx = np.nonzero(inner)[0]
        margins = _slack_rows(norms[p1], n, eps, p1)[inner]

        def example(i: int) -> dict:
            j = int(idx[i])
            return {"n": n, "p_pair": [_p_token(p1), _p_token(p2)], "epsilon": float(eps[j]), "vector": X[j].tolist()}

        yield margins, -NONSTRICT_SLACK, False, example


def _check_equivalence(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """At eps = 0 everything is a member; at eps = 1 only e/n is, for every p."""
    X, norms = shared.excluded
    X = X[:-1]  # without e/n
    for p in cfg.p_values:
        t = norms[p][:-1]
        yield _slack_rows(t, n, 0.0, p), -NONSTRICT_SLACK, False, _row_example(X, n, p, epsilon=0.0)
        yield -_slack_rows(t, n, 1.0, p), STRICT_MARGIN, True, _row_example(X, n, p, epsilon=1.0)
        yield _uniform_gap(cfg, n, p)


def _check_corner(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """Vertices are members only at eps = 0; e/n stays a member even at eps = 1."""
    eps = EXCLUSION_RADIUS + (1.0 - EXCLUSION_RADIUS) * rng.random(cfg.samples)
    vertices = np.eye(n)
    for p, tv in zip(cfg.p_values, _pnorm_rows(vertices, cfg.p_values, shared.work)):
        d = dispersion_constant(n, p)

        def example(i: int) -> dict:
            sample, vertex = divmod(i, n)
            return {"n": n, "p": _p_token(p), "vertex": int(vertex), "epsilon": float(eps[sample])}

        # the (samples, n) margins are folded before the next kernel runs, so they fill the "power" slot
        margins = np.multiply(1.0 + eps[:, None] * d, tv[None, :], out=shared.work.take("power", (cfg.samples, n)))
        margins -= 1.0
        yield margins, STRICT_MARGIN, True, example
        yield 1.0 - tv, -NONSTRICT_SLACK, False, _row_example(vertices, n, p, epsilon=0.0)
        yield _uniform_gap(cfg, n, p)


def _check_entropy_identity(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """ln S_p - p S_p'/S_p = H(w), including rows with zero components."""
    rows = [shared.plain[0]]
    if n >= 3:
        # zero-component rows: lower-dimensional samples padded with a zero, drawn fresh (the plain block has the slot)
        padded = _sample_rows(n - 1, max(cfg.samples // 10, 1), rng)
        rows.append(np.hstack([padded, np.zeros((padded.shape[0], 1))]))
    rows.append(np.eye(n))
    logs = [_log_rows(X, np.empty_like(X)) for X in rows]  # once per block, for every p
    for p in _finite_ps(cfg):
        for X, log_x in zip(rows, logs):
            total, derivative, weights = _power_sum_rows(X, p, shared.work, log_x)
            entropy = _shannon_rows(weights, shared.work)
            gap = np.abs(np.log(total) - p * derivative / total - entropy)
            yield cfg.tol - gap, 0.0, False, _row_example(X, n, p)


def _check_entropy_sandwich(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """0 <= H(w) <= -(p/(p-1)) ln ||x||_p for the power-sum weights."""
    X, norms = shared.plain
    for p in _finite_ps(cfg):
        powered, total = _powered_rows(X, p, shared.work)  # the weights alone: no ln x, no derivative
        entropy = _shannon_rows(np.divide(powered, total, out=powered), shared.work)
        yield entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)
        yield -(p / (p - 1.0)) * np.log(norms[p]) - entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)


def _check_lemma_a1(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """Strict negativity of the log-bound expression, equality at e/n (the last row)."""
    X, norms = shared.excluded
    for p in _finite_ps(cfg):
        t, d = norms[p], dispersion_constant(n, p)
        expr = (p / (p - 1.0)) * (-np.log(t)) / (1.0 - t) - math.log(n) * (1.0 + 1.0 / d)
        yield -expr[:-1], STRICT_MARGIN, True, _row_example(X, n, p)
        yield cfg.tol - np.abs(expr[-1:]), 0.0, False, _row_example(X[-1:], n, p)


def _check_f_decreasing(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """eps_p(x) strictly decreases along the ascending exponent chain."""
    X, norms = shared.excluded
    thresholds = [_threshold_rows(norms[p][:-1], n, p) for p in cfg.p_values]  # without e/n
    for (p1, eps1), (p2, eps2) in pairwise(zip(cfg.p_values, thresholds)):
        yield eps1 - eps2, STRICT_MARGIN, True, _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)])


def _check_norm_equivalence(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """||x||_p2 <= ||x||_p1 <= ((D_p2+1)/(D_p1+1)) ||x||_p2 for all 1 <= p1 < p2."""
    X, norms = shared.plain
    for p1, p2 in combinations([1.0, *cfg.p_values], 2):
        example = _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)])
        ratio = (dispersion_constant(n, p2) + 1.0) / (dispersion_constant(n, p1) + 1.0)
        yield norms[p1] - norms[p2], -NONSTRICT_SLACK, False, example
        yield ratio * norms[p2] - norms[p1], -NONSTRICT_SLACK, False, example


def _check_eps_nesting(cfg: VerifyConfig, n: int, rng, shared: _SharedBlocks):
    """Membership at a larger eps implies membership at any smaller eps."""
    X, norms = shared.plain
    lo, hi = np.sort(rng.random((2, cfg.samples)), axis=0)
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
#: The order the suites run in at each dimension: the readers of the plain block, corner, then the excluded block's.
_RUN_ORDER = ("cv-bound", "inclusion", "entropy-identity", "entropy-sandwich", "norm-equivalence", "eps-nesting",
              "corner", "equivalence", "lemma-a1", "f-decreasing")


@dataclass
class _Tally:
    """One suite's result so far, folded block by block in yield order."""

    checked: int = 0
    failures: int = 0
    worst: float | None = None
    examples: list = field(default_factory=list)

    def fold(self, margin_blocks) -> None:
        """Fold a check's margin blocks: a margin fails at or below its threshold when strict, below it otherwise,
        NaN always; the first COUNTEREXAMPLE_CAP failures are kept, each with its margin last (NaN as null)."""
        for margins, threshold, strict, example in margin_blocks:
            margins = np.asarray(margins, dtype=float).ravel()
            if not margins.size:  # an empty block checks nothing
                continue
            self.checked += margins.size
            low = float(np.fmin.reduce(margins))  # the least numeric margin: NaN is never the worst
            if not math.isnan(low) and (self.worst is None or low < self.worst):
                self.worst = low
            bad = np.flatnonzero(~(margins > threshold if strict else margins >= threshold))
            self.failures += bad.size
            for i in bad[: COUNTEREXAMPLE_CAP - len(self.examples)]:
                margin = None if np.isnan(margins[i]) else float(margins[i])
                self.examples.append({**example(int(i)), "margin": margin})


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the suites one dimension at a time in one workspace; 0/0 is a failing margin, not a warning."""
    work = _Workspace((cfg.samples + 1) * max(cfg.n_values))
    tallies = {name: _Tally() for name in cfg.suites}
    with np.errstate(all="ignore"):
        for n in cfg.n_values:
            shared = _SharedBlocks(cfg, n, work)
            for name in sorted(tallies, key=_RUN_ORDER.index):
                tallies[name].fold(_CHECKS[name](cfg, n, _generator(cfg.seed, (SUITE_NAMES.index(name), n)), shared))
    results = (SuiteResult(name, t.checked, t.failures, t.worst, tuple(t.examples)) for name, t in tallies.items())
    return VerificationReport(cfg, tuple(results))
