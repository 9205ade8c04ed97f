"""Seeded, sampling-based verification of the family's propositions and lemmas.

Every suite draws flat-Dirichlet simplex samples (unit-exponential draws
normalized by their sum) from a pinned generator -- numpy's PCG64 seeded
through SeedSequence with a per-(suite, dimension) spawn key -- evaluates
one inequality or identity per sample, and reports counts, the worst
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

import numpy as np

from .core import (
    check_exponent,
    check_tolerance,
    dispersion_constant,
    _pnorm_rows,
    _power_sum_rows,
    _row_max,
    _row_sum,
    _shannon_rows,
)
from .fairness import _cv2_rows, _cv_bound_rows, _eps_rows

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


def _generator(seed: int, suite: str, n: int) -> np.random.Generator:
    """Independent substream for one (suite, dimension) block of work.

    No suite draws from another's substreams, so a run of any subset of the
    suites reproduces each of them as the full run reports it.
    """
    key = (SUITE_NAMES.index(suite), int(n))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _sample_rows(
    n: int, count: int, rng: np.random.Generator, exclude_special: bool = False
) -> np.ndarray:
    """Flat-Dirichlet rows: unit-exponential draws normalized by their sum.

    The block is column-major, so the row kernels read contiguous columns.
    With exclude_special, rows within EXCLUSION_RADIUS (max norm) of any
    vertex e_i or of e/n are rejected and redrawn.
    """
    rows = np.empty((count, n), order="F")
    filled = 0
    while filled < count:
        draw = rng.standard_exponential((count - filled, n))
        batch = draw / _row_sum(draw, keepdims=True)
        if exclude_special:
            # a row is within eps of some e_i exactly when its max >= 1 - eps
            keep = (1.0 - _row_max(batch) > EXCLUSION_RADIUS) & (
                _row_max(np.abs(batch - 1.0 / n)) > EXCLUSION_RADIUS
            )
            batch = batch[keep]
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
    gap = abs((1.0 + dispersion_constant(n, p)) * float(_pnorm_rows(uniform, p)[0]) - 1.0)
    return [cfg.tol - gap], 0.0, False, _row_example(uniform, n, p, epsilon=1.0)


# Each check below states one suite's inequality for one dimension n: it
# draws from the (suite, n) generator it is given and yields blocks of
# (margins, threshold, strict, example), where example(i) describes the
# i-th margin of its block. _run_one folds every dimension's blocks into
# the suite's result.


def _check_cv_bound(cfg: VerifyConfig, n: int, rng):
    """CV(x)^2 <= B_p(eps_p(x)) with slack, for every sample and exponent."""
    X = _sample_rows(n, cfg.samples, rng)
    cv2 = _cv2_rows(X)
    for p in cfg.p_values:
        bound = _cv_bound_rows(n, p, _eps_rows(X, p))
        yield bound - cv2, -CV_BOUND_SLACK, False, _row_example(X, n, p)


def _check_inclusion(cfg: VerifyConfig, n: int, rng):
    """Membership at the larger exponent implies membership at the smaller one."""
    X = _sample_rows(n, cfg.samples, rng)
    eps = rng.random(cfg.samples)
    norms = {p: _pnorm_rows(X, p) for p in cfg.p_values}
    for p1, p2 in zip(cfg.p_values, cfg.p_values[1:]):
        d1 = dispersion_constant(n, p1)
        d2 = dispersion_constant(n, p2)
        inner = (1.0 + eps * d2) * norms[p2] <= 1.0
        idx = np.nonzero(inner)[0]
        margins = (1.0 - (1.0 + eps * d1) * norms[p1])[inner]

        def example(i: int) -> dict:
            j = int(idx[i])
            return {
                "n": n,
                "p_pair": [_p_token(p1), _p_token(p2)],
                "epsilon": float(eps[j]),
                "vector": X[j].tolist(),
            }

        yield margins, -NONSTRICT_SLACK, False, example


def _check_equivalence(cfg: VerifyConfig, n: int, rng):
    """At eps = 0 everything is a member; at eps = 1 only e/n is, for every p."""
    X = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    for p in cfg.p_values:
        t = _pnorm_rows(X, p)
        d = dispersion_constant(n, p)
        yield 1.0 - t, -NONSTRICT_SLACK, False, _row_example(X, n, p, epsilon=0.0)
        yield (
            (1.0 + d) * t - 1.0,
            STRICT_MARGIN,
            True,
            _row_example(X, n, p, epsilon=1.0),
        )
        yield _uniform_gap(cfg, n, p)


def _check_corner(cfg: VerifyConfig, n: int, rng):
    """Vertices are members only at eps = 0; e/n stays a member even at eps = 1."""
    eps = EXCLUSION_RADIUS + (1.0 - EXCLUSION_RADIUS) * rng.random(cfg.samples)
    vertices = np.eye(n)
    for p in cfg.p_values:
        d = dispersion_constant(n, p)
        tv = _pnorm_rows(vertices, p)

        def example(i: int) -> dict:
            sample, vertex = divmod(i, n)
            return {
                "n": n,
                "p": _p_token(p),
                "vertex": int(vertex),
                "epsilon": float(eps[sample]),
            }

        margins = (1.0 + eps[:, None] * d) * tv[None, :] - 1.0
        yield margins, STRICT_MARGIN, True, example
        yield 1.0 - tv, -NONSTRICT_SLACK, False, _row_example(vertices, n, p, epsilon=0.0)
        yield _uniform_gap(cfg, n, p)


def _check_entropy_identity(cfg: VerifyConfig, n: int, rng):
    """ln S_p - p S_p'/S_p = H(w), including rows with zero components."""
    blocks = [_sample_rows(n, cfg.samples, rng)]
    if n >= 3:
        # zero-component rows: lower-dimensional samples padded with a zero
        padded = _sample_rows(n - 1, max(cfg.samples // 10, 1), rng)
        blocks.append(np.hstack([padded, np.zeros((padded.shape[0], 1))]))
    blocks.append(np.eye(n))
    for p in _finite_ps(cfg):
        for X in blocks:
            total, derivative, weights = _power_sum_rows(X, p)
            entropy = _shannon_rows(weights)
            gap = np.abs(np.log(total) - p * derivative / total - entropy)
            yield cfg.tol - gap, 0.0, False, _row_example(X, n, p)


def _check_entropy_sandwich(cfg: VerifyConfig, n: int, rng):
    """0 <= H(w) <= -(p/(p-1)) ln ||x||_p for the power-sum weights."""
    X = _sample_rows(n, cfg.samples, rng)
    for p in _finite_ps(cfg):
        t = _pnorm_rows(X, p)
        entropy = _shannon_rows(_power_sum_rows(X, p)[2])
        yield entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)
        upper = -(p / (p - 1.0)) * np.log(t)
        yield upper - entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p)


def _check_lemma_a1(cfg: VerifyConfig, n: int, rng):
    """Strict negativity of the log-bound expression, equality at e/n (the last row)."""
    samples = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    X = np.vstack([samples, np.full((1, n), 1.0 / n)])
    for p in _finite_ps(cfg):
        d = dispersion_constant(n, p)
        t = _pnorm_rows(X, p)
        expr = (p / (p - 1.0)) * (-np.log(t)) / (1.0 - t) - math.log(n) * (1.0 + 1.0 / d)
        yield -expr[:-1], STRICT_MARGIN, True, _row_example(X, n, p)
        yield cfg.tol - np.abs(expr[-1:]), 0.0, False, _row_example(X[-1:], n, p)


def _check_f_decreasing(cfg: VerifyConfig, n: int, rng):
    """eps_p(x) strictly decreases along the ascending exponent chain."""
    X = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    thresholds = np.column_stack([_eps_rows(X, p) for p in cfg.p_values])
    for j, (p1, p2) in enumerate(zip(cfg.p_values, cfg.p_values[1:])):
        margins = thresholds[:, j] - thresholds[:, j + 1]
        yield (
            margins,
            STRICT_MARGIN,
            True,
            _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)]),
        )


def _check_norm_equivalence(cfg: VerifyConfig, n: int, rng):
    """||x||_p2 <= ||x||_p1 <= ((D_p2+1)/(D_p1+1)) ||x||_p2 for all 1 <= p1 < p2."""
    orders = [1.0] + list(cfg.p_values)
    X = _sample_rows(n, cfg.samples, rng)
    norms = {p: _pnorm_rows(X, p) for p in orders}
    for i, p1 in enumerate(orders):
        for p2 in orders[i + 1 :]:
            pair = [_p_token(p1), _p_token(p2)]
            yield (
                norms[p1] - norms[p2],
                -NONSTRICT_SLACK,
                False,
                _row_example(X, n, p1, p_pair=pair),
            )
            ratio = (dispersion_constant(n, p2) + 1.0) / (
                dispersion_constant(n, p1) + 1.0
            )
            yield (
                ratio * norms[p2] - norms[p1],
                -NONSTRICT_SLACK,
                False,
                _row_example(X, n, p1, p_pair=pair),
            )


def _check_eps_nesting(cfg: VerifyConfig, n: int, rng):
    """Membership at a larger eps implies membership at any smaller eps."""
    X = _sample_rows(n, cfg.samples, rng)
    draws = rng.random((2, cfg.samples))
    hi = draws.max(axis=0)
    lo = draws.min(axis=0)
    distinct = hi > lo
    for p in cfg.p_values:
        d = dispersion_constant(n, p)
        t = _pnorm_rows(X, p)
        applicable = distinct & ((1.0 + hi * d) * t <= 1.0)
        idx = np.nonzero(applicable)[0]
        margins = (1.0 - (1.0 + lo * d) * t)[applicable]

        def example(i: int) -> dict:
            j = int(idx[i])
            return {
                "n": n,
                "p": _p_token(p),
                "eps_pair": [float(hi[j]), float(lo[j])],
                "vector": X[j].tolist(),
            }

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


def _run_one(name: str, cfg: VerifyConfig) -> SuiteResult:
    """One suite's check on every dimension, each with its own (suite, n) substream.

    A margin fails at or below its threshold when strict, below it otherwise;
    the first COUNTEREXAMPLE_CAP failures are kept, each with its margin last.
    """
    checked = failures = 0
    worst: float | None = None
    examples: list[dict] = []
    for n in cfg.n_values:
        for margins, threshold, strict, example in _CHECKS[name](cfg, n, _generator(cfg.seed, name, n)):
            margins = np.asarray(margins, dtype=float).ravel()
            if margins.size:  # an empty block checks nothing
                checked += margins.size
                low = float(margins.min())
                if worst is None or low < worst:
                    worst = low
                bad = np.flatnonzero(margins <= threshold if strict else margins < threshold)
                failures += bad.size
                for i in bad[: COUNTEREXAMPLE_CAP - len(examples)]:
                    examples.append({**example(int(i)), "margin": float(margins[i])})
            # free the block and the samples its example reads before the check draws more
            del margins, example
    return SuiteResult(name, checked, failures, worst, tuple(examples))


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the configured suites and collect the report."""
    return VerificationReport(cfg, tuple(_run_one(name, cfg) for name in cfg.suites))
