"""Membership, thresholds, bounds, and constraint generation for the fair sets.

A vector x >= 0 is "at least (eps, p)-fair" when

    (1 + eps * D_p) * ||x||_p <= ||x||_1,       D_p = n^(1-1/p) - 1.

The constraint is scale-invariant, so everything can be phrased on the
probability simplex, where it becomes the lp-ball condition
||x||_p <= 1 / (1 + eps * D_p). eps = 0 is vacuous, eps = 1 pins x to the
uniform point e/n.

Each formula has one implementation, written on the rows' norms along the
last axis: ``_threshold_rows``, ``_member_rows``, ``_cv2_rows`` and, of eps,
``_cv_bound_rows`` and ``_radius_rows``. Each use takes its norms from one
``_pnorm_rows`` call: the scalar functions for one vector, and ``dispersion_report`` for all
rows of an array at every exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    check_exponent,
    dispersion_constant,
    # no caller here, but the benchmark's fairbench/tracing.py wraps these two names
    normalize,
    p_norm,
    _pnorm_rows,
    _row_fault,
)

#: Round-off window within which eps_max is clamped back into [0, 1].
EPS_CLAMP_TOL = 1e-12

#: Default relative tolerance for membership tests.
MEMBERSHIP_TOL = 1e-9


def check_epsilon(eps: float) -> float:
    """Validate a fairness level: a real in [0, 1]."""
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps!r}")
    return eps


@dataclass(frozen=True)
class FairnessSpec:
    """One member of the constraint family: the pair (epsilon, p)."""

    epsilon: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        object.__setattr__(self, "p", check_exponent(self.p))


def _threshold_rows(t, n: int, p: float):
    """eps_max (1 - t) / (D_p t) of simplex rows with p-norms t; clamped if within EPS_CLAMP_TOL of [0, 1]."""
    eps = (1.0 - t) / (dispersion_constant(n, p) * t)
    overshoot = max(float(-np.min(eps, initial=0.0)), float(np.max(eps, initial=1.0) - 1.0))
    if overshoot > EPS_CLAMP_TOL:
        raise ValueError(f"threshold excursion {overshoot!r} exceeds round-off window")
    return np.clip(eps, 0.0, 1.0)


def _eps_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """eps_max along the last axis of simplex rows."""
    return _threshold_rows(_pnorm_rows(rows, p), rows.shape[-1], p)


def eps_max(x: SimplexVector, p: float) -> float:
    """Largest epsilon for which x is at least (eps, p)-fair.

    Equals (1 - ||x||_p) / (D_p ||x||_p): 0 exactly at the simplex vertices,
    1 exactly at the uniform point. Round-off excursions outside [0, 1] of at
    most 1e-12 are clamped; anything larger raises.
    """
    return float(_eps_rows(x.values, check_exponent(p)))


def _member_rows(t, l1, n: int, eps, p: float, tol: float):
    """(1 + eps D_p) ||x||_p <= ||x||_1 (1 + tol), from the rows' p-norms t and 1-norms l1."""
    return (1.0 + eps * dispersion_constant(n, p)) * t <= l1 * (1.0 + tol)


def _slack_rows(t, n: int, eps, p: float):
    """1 - (1 + eps D_p) t: at least 0 exactly when simplex rows with p-norms t are members at eps."""
    return 1.0 - (1.0 + eps * dispersion_constant(n, p)) * t


def is_fair(x: NonNegVector, spec: FairnessSpec, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether (1 + eps D_p) ||x||_p <= ||x||_1 (1 + tol).

    The tolerance is relative, so the verdict is identical for x and t*x.
    """
    t, l1 = _pnorm_rows(x.values, (spec.p, 1.0))
    return bool(_member_rows(t, l1, x.n, spec.epsilon, spec.p, tol))


def _cv2_rows(t, n: int):
    """Squared CV n ||x||_2^2 - 1 of simplex rows whose 2-norms are t."""
    return n * (t * t) - 1.0


def coefficient_of_variation(x: SimplexVector) -> float:
    """CV(x) = sqrt(n ||x||_2^2 - 1), in [0, sqrt(n-1)].

    This is the algebraic form of (std / mean) with mean fixed at 1/n by the
    simplex constraint.
    """
    return math.sqrt(max(float(_cv2_rows(_pnorm_rows(x.values, 2.0), x.n)), 0.0))


def _cv_bound_rows(n: int, p: float, eps):
    """(D_p+1)^2 / (1 + eps D_p)^2 - 1 for a scalar eps or an array of them."""
    d = dispersion_constant(n, p)
    ratio = (d + 1.0) / (1.0 + eps * d)
    return ratio * ratio - 1.0


def cv_bound(n: int, spec: FairnessSpec) -> float:
    """Upper bound on CV^2 over the fair set: (D_p+1)^2 / (1 + eps D_p)^2 - 1.

    Strictly decreasing in eps, from (D_p+1)^2 - 1 at eps = 0 down to exactly
    0 at eps = 1.
    """
    return float(_cv_bound_rows(n, spec.p, spec.epsilon))


@dataclass(frozen=True)
class ConeConstraint:
    """Descriptive record of the normalized constraint ||x||_p <= radius on the simplex.

    ``kind`` is "second-order" at p = 2, "lp-cone" for finite p > 2, and
    "linear-system" at p = infinity. The radius 1 / (1 + eps D_p) applies
    after l1-normalization.
    """

    kind: str
    radius: float
    n: int
    epsilon: float
    p: float


def _radius_rows(n: int, p: float, eps):
    """The fair radius 1 / (1 + eps D_p) for a scalar eps or an array of them."""
    return 1.0 / (1.0 + eps * dispersion_constant(n, p))


def cone_constraint(n: int, spec: FairnessSpec) -> ConeConstraint:
    """Exportable cone description of the constraint for a given (eps, p)."""
    if spec.p == 2.0:
        kind = "second-order"
    elif spec.p == INFINITY:
        kind = "linear-system"
    else:
        kind = "lp-cone"
    return ConeConstraint(
        kind=kind,
        radius=_radius_rows(n, spec.p, spec.epsilon),
        n=n,
        epsilon=spec.epsilon,
        p=spec.p,
    )


@dataclass(frozen=True)
class DispersionEntry:
    """Per-exponent diagnostics: thresholds, membership verdicts, and the CV bound."""

    p: float
    eps_max: np.ndarray
    member: np.ndarray
    cv_bound: float


@dataclass(frozen=True)
class DispersionReport:
    """CV, mean, and per-exponent entries for normalized rows, one value per row."""

    cv: np.ndarray
    mean: np.ndarray
    per_p: tuple[DispersionEntry, ...]


def dispersion_report(
    rows,
    ps: list[float],
    eps: float,
    tol: float = MEMBERSHIP_TOL,
) -> DispersionReport:
    """Normalize every row and assess it against every requested exponent at one eps.

    ``rows`` is a (k, n) array, which gives length-k arrays, or a single
    vector (a NonNegVector or a 1-D array), which gives numpy scalars. The
    first row with a non-finite or negative entry, or with no positive
    entry, raises ValueError naming its index; a row whose sum overflows is
    assessed as itself over its maximum. Entries come back sorted by p
    ascending with infinity last.
    """
    if not ps:
        raise ValueError("at least one exponent is required")
    specs = sorted((FairnessSpec(eps, p) for p in ps), key=lambda spec: spec.p)
    x = rows.values if isinstance(rows, NonNegVector) else np.asarray(rows, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise ValueError(f"expected rows of dimension at least 2, got shape {x.shape}")
    fault = _row_fault(x)
    if fault is not None:
        raise ValueError(f"vector {fault[0]}: {fault[1]}")
    with np.errstate(over="ignore"):
        total = x.sum(axis=-1, keepdims=True)
    huge = ~np.isfinite(total)
    if huge.any():  # a finite row whose sum overflows is scaled by its maximum first
        x = np.where(huge, x / x.max(axis=-1, keepdims=True), x)
        total = x.sum(axis=-1, keepdims=True)
    y = x / total
    n = y.shape[-1]
    chain = sorted({1.0, 2.0, *(spec.p for spec in specs)})  # each exponent normed once, however often requested
    norms = dict(zip(chain, _pnorm_rows(y, chain)))
    l1 = norms[1.0]
    return DispersionReport(
        cv=np.sqrt(np.maximum(_cv2_rows(norms[2.0], n), 0.0)),
        mean=y.mean(axis=-1),
        per_p=tuple(
            DispersionEntry(
                p=spec.p,
                eps_max=_threshold_rows(norms[spec.p], n, spec.p),
                member=_member_rows(norms[spec.p], l1, n, spec.epsilon, spec.p, tol),
                cv_bound=float(_cv_bound_rows(n, spec.p, spec.epsilon)),
            )
            for spec in specs
        ),
    )
