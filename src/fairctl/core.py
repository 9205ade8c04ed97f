"""Scalar building blocks: lp norms, dispersion constants, power sums, Shannon entropy.

Everything here is a pure function of immutable vector values, so all
operations are safe to call concurrently. Large exponents are handled by
factoring out the largest component before powering, which keeps norms
accurate for p up to at least 1e4 without intermediate overflow or
underflow.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

#: Distinguished exponent value selecting the max-norm / linear-inequality form.
INFINITY = math.inf

#: Absolute tolerance on |sum(x) - 1| for simplex membership at construction.
SIMPLEX_SUM_TOL = 1e-12


def check_exponent(p: float, minimum: float = 2.0) -> float:
    """Validate a norm exponent: a finite real >= ``minimum``, or infinity."""
    p = float(p)
    if math.isnan(p) or p < minimum:
        raise ValueError(f"exponent must be >= {minimum} or infinity, got {p!r}")
    return p


def _as_vector(values: Iterable[float] | np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"dimension must be at least 2, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


class NonNegVector:
    """Immutable nonnegative vector with n >= 2 and at least one positive entry.

    The all-zero vector is rejected at construction so downstream operations
    never need to special-case it.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = _as_vector(values)
        if np.any(arr < 0):
            raise ValueError("vector entries must be nonnegative")
        if not np.any(arr > 0):
            raise ValueError("the zero vector is not accepted")
        self._validate(arr)
        arr.flags.writeable = False
        self._values = arr

    def _validate(self, arr: np.ndarray) -> None:
        pass

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the underlying float array."""
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, i):
        return self._values[i]

    def __iter__(self):
        return iter(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._values.tolist()!r})"


class SimplexVector(NonNegVector):
    """A validated point of the probability simplex: x >= 0, sum(x) = 1."""

    __slots__ = ()

    def _validate(self, arr: np.ndarray) -> None:
        total = float(arr.sum())
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(
                f"simplex vector must sum to 1 within {SIMPLEX_SUM_TOL:g}, "
                f"got sum {total!r}"
            )

    @classmethod
    def uniform(cls, n: int) -> "SimplexVector":
        """The barycenter e/n, the unique fully fair point."""
        return cls(np.full(n, 1.0 / n))


class WeightVector(SimplexVector):
    """Probability weights derived from a power sum: w_i in [0,1], sum(w) = 1."""

    __slots__ = ()

    def _validate(self, arr: np.ndarray) -> None:
        super()._validate(arr)
        if np.any(arr > 1.0):
            raise ValueError("weights must lie in [0, 1]")


def _pnorm_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """lp norm along the last axis, max-factored for large-p stability.

    Accepts 1-D vectors or stacked rows; rows must be nonnegative with a
    positive maximum. Supports any real p >= 1 and infinity.
    """
    rows = np.asarray(rows, dtype=float)
    if p == INFINITY:
        return rows.max(axis=-1)
    if p == 1.0:
        return rows.sum(axis=-1)
    peak = rows.max(axis=-1, keepdims=True)
    ratios = rows / peak
    total = np.power(ratios, p).sum(axis=-1)
    return peak[..., 0] * np.power(total, 1.0 / p)


def p_norm(x: NonNegVector, p: float) -> float:
    """(sum_i x_i^p)^(1/p) for finite p, max_i x_i for p = infinity.

    Evaluated as M * (sum (x_i/M)^p)^(1/p) with M = max_i x_i, so components
    spanning many orders of magnitude and exponents up to at least 1e4 stay
    accurate to machine-level relative error.
    """
    p = check_exponent(p, minimum=1.0)
    return float(_pnorm_rows(x.values, p))


def dispersion_constant(n: int, p: float) -> float:
    """n^(1 - 1/p) - 1, the tight l1-vs-lp equivalence constant; n - 1 at infinity."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    p = check_exponent(p, minimum=1.0)
    return float(n) ** (1.0 - 1.0 / p) - 1.0


class PowerSum(NamedTuple):
    """Value, p-derivative, and normalized weights of sum_i x_i^p."""

    value: float
    derivative: float
    weights: WeightVector


def _power_sum_rows(rows: np.ndarray, p: float):
    """sum x_i^p, its p-derivative sum x_i^p ln x_i, and the weights x_i^p / sum.

    Along the last axis, for a 1-D vector or stacked rows; terms with
    x_i = 0 contribute 0 to the derivative (0 * ln 0 = 0).
    """
    powered = rows**p
    value = powered.sum(axis=-1, keepdims=True)
    safe = np.where(rows > 0, rows, 1.0)
    derivative = (powered * np.log(safe)).sum(axis=-1)
    return value[..., 0], derivative, powered / value


def power_sum(x: SimplexVector, p: float) -> PowerSum:
    """sum_i x_i^p together with its derivative in p and the weights x_i^p / sum.

    Terms with x_i = 0 contribute 0 to the derivative (0 * ln 0 = 0).
    Requires finite p >= 2.
    """
    p = check_exponent(p)
    if math.isinf(p):
        raise ValueError("power_sum requires a finite exponent")
    value, derivative, weights = _power_sum_rows(x.values, p)
    return PowerSum(float(value), float(derivative), WeightVector(weights))


def _shannon_rows(w: np.ndarray) -> np.ndarray:
    """-sum w_i ln w_i along the last axis, with the 0 ln 0 = 0 convention."""
    safe = np.where(w > 0, w, 1.0)
    return -(w * np.log(safe)).sum(axis=-1)


def shannon_entropy(w: WeightVector) -> float:
    """-sum w_i ln w_i with the 0 ln 0 = 0 convention; lies in [0, ln n]."""
    return float(_shannon_rows(w.values))


def normalize(x: NonNegVector) -> SimplexVector:
    """Scale x onto the probability simplex by dividing by sum(x)."""
    return SimplexVector(x.values / x.values.sum())
