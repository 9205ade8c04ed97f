"""Building blocks: vector types, parameter checks, dispersion constants and the row kernels.

The row kernels work along the last axis of one vector or stacked rows: lp norms at
one exponent or a chain of them, power sums with their p-derivative, Shannon entropy.
Everything here is a pure function of immutable vector values, and every kernel makes
its own temporaries, so all operations are safe to call concurrently. Large exponents
are handled by factoring out the largest component before powering, which keeps norms
accurate for p up to at least 1e4 without intermediate overflow or underflow.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

#: Distinguished exponent value selecting the max-norm / linear-inequality form.
INFINITY = math.inf

#: Absolute tolerance on |sum(x) - 1| for simplex membership at construction.
SIMPLEX_SUM_TOL = 1e-12

#: Default convergence tolerance of the fair-region projection and the solver.
CONVERGENCE_TOL = 1e-8


def check_exponent(p: float, minimum: float = 2.0) -> float:
    """Validate a norm exponent: a finite real >= ``minimum``, or infinity."""
    p = float(p)
    if math.isnan(p) or p < minimum:
        raise ValueError(f"exponent must be >= {minimum} or infinity, got {p!r}")
    return p


def check_tolerance(tol: float) -> float:
    """Validate a convergence tolerance: a finite real > 0."""
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite real > 0, got {tol!r}")
    return tol


def check_iterations(cap: int) -> int:
    """Validate an iteration cap: an integer >= 1, or the decimal text of one."""
    text = str(cap).strip()
    if not (text.isdecimal() and int(text) >= 1):
        raise ValueError(f"iteration cap must be an integer >= 1, got {cap!r}")
    return int(text)


def _row_fault(rows: np.ndarray, nonneg: bool = True, positive: bool = True) -> tuple[int, str] | None:
    """The first row, in row order, that breaks a rule, and the rule it breaks; None if none does.

    Rows lie along the last axis, and a 1-D vector is row 0. Every row must
    have finite entries; with nonneg, no negative entry; with positive, a
    positive entry. A row that breaks several rules is named by the first
    of them in that order.
    """
    rules = [(~np.isfinite(rows).all(axis=-1), "entries must be finite")]
    if nonneg:
        rules.append(((rows < 0).any(axis=-1), "entries must be nonnegative"))
    if positive:
        rules.append((~(rows > 0).any(axis=-1), "the zero vector is not accepted"))
    bad = rules[0][0]
    for fault, _ in rules[1:]:
        bad = bad | fault
    if not bad.any():
        return None
    index = int(np.argmax(bad))
    return index, next(why for fault, why in rules if np.ravel(fault)[index])


def _as_vector(values: Iterable[float] | np.ndarray, nonneg: bool = False, stacked: bool = False) -> np.ndarray:
    """values as a 1-D float array of n >= 2 finite entries; with nonneg, nonnegative with a positive one.

    With stacked, a (k >= 1, n) array of such rows is accepted too, and a bad
    row is named by its index.
    """
    arr = np.array(values, dtype=float)
    if not (arr.ndim == 1 or (stacked and arr.ndim == 2 and len(arr))):
        kind = "a 1-D vector or a 2-D stack of rows" if stacked else "a 1-D vector"
        raise ValueError(f"expected {kind}, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError(f"dimension must be at least 2, got {arr.shape[-1]}")
    fault = _row_fault(arr, nonneg, nonneg)
    if fault is not None:
        raise ValueError(fault[1] if arr.ndim == 1 else f"row {fault[0]}: {fault[1]}")
    return arr


def _check_simplex_sums(sums) -> None:
    """Raise unless every row sum lies within SIMPLEX_SUM_TOL of 1, naming the first that does not."""
    off = abs(sums - 1.0) > SIMPLEX_SUM_TOL
    if off.any():
        total = float(np.ravel(sums)[np.argmax(off)])
        raise ValueError(f"simplex vector must sum to 1 within {SIMPLEX_SUM_TOL:g}, got sum {total!r}")


def _check_simplex_rows(rows: np.ndarray, sums: np.ndarray) -> None:
    """The checks of SimplexVector on every row of a stack at once, given its row sums.

    The first row that breaks a rule of _row_fault is named by that rule; only then is the first sum off 1 named.
    """
    fault = _row_fault(rows)
    if fault is not None:
        raise ValueError(fault[1])
    _check_simplex_sums(sums)


class NonNegVector:
    """Immutable nonnegative vector with n >= 2 and at least one positive entry.

    The all-zero vector is rejected at construction so downstream operations
    never need to special-case it.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = _as_vector(values, nonneg=True)
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
        _check_simplex_sums(arr.sum())

    @classmethod
    def uniform(cls, n: int) -> "SimplexVector":
        """The barycenter e/n, the unique fully fair point."""
        return cls(np.full(n, 1.0 / n))


#: Longest row that the row kernels reduce column by column. numpy reduces
#: slowly along a short last axis; an elementwise ufunc over the columns of
#: thousands of rows is many times faster. A 1-D vector, or a longer row, is
#: one numpy reduction, as fast as it gets.
COLUMN_ROW_LIMIT = 128

#: Fewest rows per entry of a row at which the row kernels reduce by columns.
#: The column loop makes one ufunc call per column, so a few rows are faster
#: as one contiguous reduction. Column loop time over the reduction's, on a
#: 2-core x86 host (C order; F order about half): n = 10, 8.6x at 1 row, 3.2x
#: at 64, 1.7x at 256, 0.7x at 1024; n = 50, 34x at 1 row, 3.8x at 256, 2.3x
#: at 1024. At 32 rows per entry the two are about even.
COLUMN_ROWS_PER_ENTRY = 32


def _by_columns(rows: np.ndarray) -> bool:
    """Whether the row kernels reduce rows, a stack of rows along the last axis, column by column."""
    n = rows.shape[-1]
    return rows.ndim > 1 and 0 < n <= COLUMN_ROW_LIMIT and rows.size // n >= COLUMN_ROWS_PER_ENTRY * n


def _row_max(rows: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """rows.max(axis=-1); a max is exact, so the column order gives the same bits.

    Only a stack of at least COLUMN_ROWS_PER_ENTRY rows per entry runs by
    columns; a vector or fewer rows is one numpy reduction.
    """
    if not _by_columns(rows):
        # axis, dtype, out, keepdims by position: the solver's and geometry's
        # root loops call this on vectors, where keyword parsing shows
        return np.maximum.reduce(rows, -1, None, None, keepdims)
    peak = rows[..., 0].copy()
    for j in range(1, rows.shape[-1]):
        np.maximum(peak, rows[..., j], out=peak)
    return peak[..., None] if keepdims else peak


def _row_sum(rows: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The sum along the last axis, bit for bit numpy's sum of each row laid out contiguously.

    numpy adds a contiguous row of n <= 128 entries to 0.0 pairwise: in
    order for n < 8; else in eight accumulators over the whole blocks of
    eight, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail
    in order. The columns are added here in that order, for a stack of at
    least COLUMN_ROWS_PER_ENTRY rows per entry. numpy itself adds the rows of
    a column-major block in plain order, so longer rows, and fewer rows, are
    summed from a contiguous copy.
    """
    if rows.ndim == 1:
        return np.add.reduce(rows, -1, None, None, keepdims)  # by position, as in _row_max
    if not _by_columns(rows):
        return np.add.reduce(np.ascontiguousarray(rows), -1, None, None, keepdims)
    n = rows.shape[-1]
    columns = [rows[..., j] for j in range(n)]
    if n >= 8:
        whole = n - n % 8
        r = columns[:8]
        for start in range(8, whole, 8):
            r = [a + b for a, b in zip(r, columns[start : start + 8])]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        columns = [head] + columns[whole:]
    total = np.zeros(rows.shape[:-1])
    for column in columns:
        total += column
    return total[..., None] if keepdims else total


def _pnorm_rows(rows: np.ndarray, p) -> np.ndarray:
    """lp norm along the last axis, max-factored for large-p stability.

    Accepts 1-D vectors or stacked rows; rows must be nonnegative with a
    positive maximum. Supports any real p >= 1 and infinity, or a tuple or
    list of them: the norms stacked, ``(len(p),) + rows.shape[:-1]``, from
    one peak and one ratio block. A single p is a chain of one, unstacked.
    """
    rows = np.asarray(rows, dtype=float)
    chain = p if isinstance(p, (tuple, list)) else (p,)
    norms = np.empty((len(chain),) + rows.shape[:-1])
    if set(chain) != {1.0}:  # p = 1 alone is a row sum and needs no peak
        peak = _row_max(rows, True)  # keepdims=True, by position as inside _row_max
    if set(chain) - {1.0, INFINITY}:  # some finite p other than 1 needs the ratio block
        ratios = rows / peak
    for k, q in enumerate(chain):
        if q == INFINITY:
            norms[k] = peak[..., 0]
        elif q == 1.0:
            norms[k] = _row_sum(rows)
        else:  # numpy's pow, not the operator, which may square where q == 2
            norms[k] = peak[..., 0] * np.power(_row_sum(np.power(ratios, q)), 1.0 / q)
    return norms if chain is p else norms[0]


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


def _log_rows(rows: np.ndarray) -> np.ndarray:
    """ln x: exactly ln x for every x > 0, and a finite ln(5e-324) at 0, so a term 0 ln 0 is ±0.

    5e-324 is the least positive double, so it raises no positive x. A row sum
    absorbs the ±0 terms: it starts at +0.0, and +0.0 + -0.0 is +0.0.
    """
    logs = np.maximum(rows, 5e-324)
    return np.log(logs, out=logs)


def _power_sum_rows(rows: np.ndarray, p: float, logs=None):
    """sum x_i^p, its p-derivative sum x_i^p ln x_i, and the weights x_i^p / sum.

    Along the last axis, for a 1-D vector or stacked rows; terms with x_i = 0 contribute ±0 to
    the derivative (0 ln 0 = 0). ``logs`` may bring ``_log_rows(rows)``, made once for all p.
    """
    powered = rows**p  # the operator: numpy may square where p == 2 rather than call pow
    value = _row_sum(powered, keepdims=True)
    if logs is None:
        logs = _log_rows(rows)
    derivative = _row_sum(powered * logs)
    return value[..., 0], derivative, np.divide(powered, value, out=powered)


def _shannon_rows(w: np.ndarray) -> np.ndarray:
    """-sum w_i ln w_i along the last axis, with the 0 ln 0 = 0 convention."""
    product = _log_rows(w)
    return -_row_sum(np.multiply(w, product, out=product))


def normalize(x: NonNegVector) -> SimplexVector:
    """Scale x onto the probability simplex by dividing by sum(x)."""
    return SimplexVector(x.values / x.values.sum())
