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
from dataclasses import dataclass

import numpy as np

from .core import (
    check_exponent,
    dispersion_constant,
    _pnorm_rows,
    _power_sum_rows,
    _shannon_rows,
)
from .fairness import _cv2_rows, _cv_bound_rows, _eps_rows

SUITE_NAMES = (
    "cv-bound",
    "inclusion",
    "equivalence",
    "corner",
    "entropy-identity",
    "entropy-sandwich",
    "lemma-a1",
    "f-decreasing",
    "norm-equivalence",
    "eps-nesting",
)

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
    """What to verify: suites, sample count, dimensions, exponent chain, seed."""

    suites: tuple[str, ...] = SUITE_NAMES
    samples: int = 10000
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    p_values: tuple[float, ...] = DEFAULT_P_CHAIN
    seed: int = 42
    tol: float = 1e-9

    def __post_init__(self):
        if not self.suites:
            raise ValueError("at least one suite is required")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown} (known: {list(SUITE_NAMES)})")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not self.n_values:
            raise ValueError("at least one dimension is required")
        if any(n < 2 for n in self.n_values):
            raise ValueError("all dimensions must be >= 2")
        object.__setattr__(self, "suites", tuple(self.suites))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(
            self, "p_values", tuple(sorted(check_exponent(p) for p in self.p_values))
        )
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")


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
    """Per-suite results plus the exact sampling configuration that produced them."""

    seed: int
    samples: int
    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    tol: float
    suites: tuple[SuiteResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "n_values": list(self.n_values),
            "p_values": [_p_token(p) for p in self.p_values],
            "tol": self.tol,
            "suites": [s.to_dict() for s in self.suites],
            "all_passed": self.all_passed,
        }


def _generator(seed: int, suite: str, n: int) -> np.random.Generator:
    """Independent substream for one (suite, dimension) block of work.

    The report is a merge of these blocks, so it does not depend on how the
    blocks are scheduled across workers.
    """
    key = (SUITE_NAMES.index(suite), int(n))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _sample_rows(
    n: int, count: int, rng: np.random.Generator, exclude_special: bool = False
) -> np.ndarray:
    """Flat-Dirichlet rows: unit-exponential draws normalized by their sum.

    With exclude_special, rows within EXCLUSION_RADIUS (max norm) of any
    vertex e_i or of e/n are rejected and redrawn.
    """
    rows = np.empty((count, n))
    filled = 0
    while filled < count:
        draw = rng.standard_exponential((count - filled, n))
        batch = draw / draw.sum(axis=1, keepdims=True)
        if exclude_special:
            # a row is within eps of some e_i exactly when its max >= 1 - eps
            keep = (1.0 - batch.max(axis=1) > EXCLUSION_RADIUS) & (
                np.abs(batch - 1.0 / n).max(axis=1) > EXCLUSION_RADIUS
            )
            batch = batch[keep]
        rows[filled : filled + batch.shape[0]] = batch
        filled += batch.shape[0]
    return rows


class _Recorder:
    """Accumulates margins, failures, and capped counterexamples for one suite."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.worst: float | None = None
        self.examples: list[dict] = []

    def add(self, margins, threshold: float, strict: bool, example=None) -> None:
        margins = np.asarray(margins, dtype=float).ravel()
        if margins.size == 0:
            return
        self.checked += margins.size
        low = float(margins.min())
        if self.worst is None or low < self.worst:
            self.worst = low
        bad = margins <= threshold if strict else margins < threshold
        count = int(bad.sum())
        if count == 0:
            return
        self.failures += count
        if example is not None:
            for i in np.nonzero(bad)[0]:
                if len(self.examples) >= COUNTEREXAMPLE_CAP:
                    break
                info = example(int(i))
                info["margin"] = float(margins[i])
                self.examples.append(info)

    def result(self) -> SuiteResult:
        return SuiteResult(
            name=self.name,
            checked=self.checked,
            failures=self.failures,
            worst_margin=self.worst,
            counterexamples=tuple(self.examples),
        )


def _row_example(X: np.ndarray, n: int, p: float, **extra):
    def make(i: int) -> dict:
        info = {"n": n, "p": _p_token(p), "vector": X[i].tolist()}
        info.update(extra)
        return info

    return make


def _finite_ps(cfg: VerifyConfig) -> list[float]:
    return [p for p in cfg.p_values if math.isfinite(p)]


def _add_uniform_gap(rec: _Recorder, cfg: VerifyConfig, n: int, p: float) -> None:
    """e/n meets the eps = 1 constraint (1 + D_p) ||e/n||_p = 1 within tol."""
    uniform = np.full((1, n), 1.0 / n)
    gap = abs((1.0 + dispersion_constant(n, p)) * float(_pnorm_rows(uniform, p)[0]) - 1.0)
    rec.add([cfg.tol - gap], 0.0, False, _row_example(uniform, n, p, epsilon=1.0))


# Each check below states one suite's inequality for one dimension n: it
# draws from the (suite, n) generator it is given and adds margins to the
# suite's recorder. _run_one runs a check over every configured dimension.


def _check_cv_bound(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """CV(x)^2 <= B_p(eps_p(x)) with slack, for every sample and exponent."""
    X = _sample_rows(n, cfg.samples, rng)
    cv2 = _cv2_rows(X)
    for p in cfg.p_values:
        bound = _cv_bound_rows(n, p, _eps_rows(X, p))
        rec.add(bound - cv2, -CV_BOUND_SLACK, False, _row_example(X, n, p))


def _check_inclusion(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
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

        rec.add(margins, -NONSTRICT_SLACK, False, example)


def _check_equivalence(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """At eps = 0 everything is a member; at eps = 1 only e/n is, for every p."""
    X = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    for p in cfg.p_values:
        t = _pnorm_rows(X, p)
        d = dispersion_constant(n, p)
        rec.add(1.0 - t, -NONSTRICT_SLACK, False, _row_example(X, n, p, epsilon=0.0))
        rec.add(
            (1.0 + d) * t - 1.0,
            STRICT_MARGIN,
            True,
            _row_example(X, n, p, epsilon=1.0),
        )
        _add_uniform_gap(rec, cfg, n, p)


def _check_corner(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
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
        rec.add(margins, STRICT_MARGIN, True, example)
        rec.add(1.0 - tv, -NONSTRICT_SLACK, False, _row_example(vertices, n, p, epsilon=0.0))
        _add_uniform_gap(rec, cfg, n, p)


def _check_entropy_identity(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
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
            rec.add(cfg.tol - gap, 0.0, False, _row_example(X, n, p))


def _check_entropy_sandwich(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """0 <= H(w) <= -(p/(p-1)) ln ||x||_p for the power-sum weights."""
    X = _sample_rows(n, cfg.samples, rng)
    for p in _finite_ps(cfg):
        t = _pnorm_rows(X, p)
        entropy = _shannon_rows(_power_sum_rows(X, p)[2])
        rec.add(entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p))
        upper = -(p / (p - 1.0)) * np.log(t)
        rec.add(upper - entropy, -NONSTRICT_SLACK, False, _row_example(X, n, p))


def _check_lemma_a1(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """Strict negativity of the log-bound expression, equality at e/n (the last row)."""
    samples = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    X = np.vstack([samples, np.full((1, n), 1.0 / n)])
    for p in _finite_ps(cfg):
        d = dispersion_constant(n, p)
        t = _pnorm_rows(X, p)
        expr = (p / (p - 1.0)) * (-np.log(t)) / (1.0 - t) - math.log(n) * (1.0 + 1.0 / d)
        rec.add(-expr[:-1], STRICT_MARGIN, True, _row_example(X, n, p))
        rec.add(cfg.tol - np.abs(expr[-1:]), 0.0, False, _row_example(X[-1:], n, p))


def _check_f_decreasing(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """eps_p(x) strictly decreases along the ascending exponent chain."""
    X = _sample_rows(n, cfg.samples, rng, exclude_special=True)
    thresholds = np.column_stack([_eps_rows(X, p) for p in cfg.p_values])
    for j, (p1, p2) in enumerate(zip(cfg.p_values, cfg.p_values[1:])):
        margins = thresholds[:, j] - thresholds[:, j + 1]
        rec.add(
            margins,
            STRICT_MARGIN,
            True,
            _row_example(X, n, p1, p_pair=[_p_token(p1), _p_token(p2)]),
        )


def _check_norm_equivalence(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
    """||x||_p2 <= ||x||_p1 <= ((D_p2+1)/(D_p1+1)) ||x||_p2 for all 1 <= p1 < p2."""
    orders = [1.0] + list(cfg.p_values)
    X = _sample_rows(n, cfg.samples, rng)
    norms = {p: _pnorm_rows(X, p) for p in orders}
    for i, p1 in enumerate(orders):
        for p2 in orders[i + 1 :]:
            pair = [_p_token(p1), _p_token(p2)]
            rec.add(
                norms[p1] - norms[p2],
                -NONSTRICT_SLACK,
                False,
                _row_example(X, n, p1, p_pair=pair),
            )
            ratio = (dispersion_constant(n, p2) + 1.0) / (
                dispersion_constant(n, p1) + 1.0
            )
            rec.add(
                ratio * norms[p2] - norms[p1],
                -NONSTRICT_SLACK,
                False,
                _row_example(X, n, p1, p_pair=pair),
            )


def _check_eps_nesting(rec: _Recorder, cfg: VerifyConfig, n: int, rng) -> None:
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

        rec.add(margins, -NONSTRICT_SLACK, False, example)


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


def _run_one(name: str, cfg: VerifyConfig) -> SuiteResult:
    """One suite's check on every dimension, each with its own (suite, n) substream."""
    rec = _Recorder(name)
    for n in cfg.n_values:
        _CHECKS[name](rec, cfg, n, _generator(cfg.seed, name, n))
    return rec.result()


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the requested suites (in canonical order) and collect the report."""
    results = tuple(_run_one(name, cfg) for name in SUITE_NAMES if name in cfg.suites)
    return VerificationReport(
        seed=cfg.seed,
        samples=cfg.samples,
        n_values=cfg.n_values,
        p_values=cfg.p_values,
        tol=cfg.tol,
        suites=results,
    )
