"""Projected gradient ascent over the fair region and Pareto sweeps in epsilon.

The feasible set Delta_n intersected with the fair lp ball is convex and
always contains e/n, so ascent starts there. Every projection is exact (a
monotone root on the simplex multiplier), so no step lowers the linear
objective, and the fixed point of x <- P(x + step * c) is the global
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SimplexVector
from .fairness import FairnessSpec, coefficient_of_variation, cv_bound, eps_max
from .geometry import project_fair_region


@dataclass(frozen=True)
class ObjectiveSpec:
    """A linear objective c . x to maximize; coefficients may be any finite reals."""

    coefficients: np.ndarray
    kind: str = "linear"

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"coefficients must be a 1-D vector of dimension >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if self.kind != "linear":
            raise ValueError(f"only linear objectives are supported, got {self.kind!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def n(self) -> int:
        return self.coefficients.size

    def value(self, x) -> float:
        v = x.values if isinstance(x, SimplexVector) else np.asarray(x, dtype=float)
        return float(self.coefficients @ v)

    @property
    def gradient(self) -> np.ndarray:
        return self.coefficients


@dataclass(frozen=True)
class SolveResult:
    """Optimum, diagnostics, and (optionally) the iterate trace."""

    x_opt: SimplexVector
    objective_value: float
    iterations: int
    converged: bool
    eps_max_at_opt: float
    cv_at_opt: float
    trace: tuple = field(default=(), repr=False)


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep sample: epsilon against achieved objective, CV, and the CV bound."""

    epsilon: float
    objective_value: float
    cv: float
    cv_bound: float
    converged: bool = True


def solve(
    obj: ObjectiveSpec,
    spec: FairnessSpec,
    n: int | None = None,
    step: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 20000,
    keep_trace: bool = False,
) -> SolveResult:
    """Maximize obj over the fair region via projected gradient ascent.

    Starts at e/n (feasible for every spec), uses the fixed step
    1 / (1 + ||c||_2) unless overridden, and stops once successive iterates
    move at most tol in the max norm. Non-convergence returns the last
    iterate with converged=False.
    """
    if n is not None and n != obj.n:
        raise ValueError(f"dimension mismatch: n={n} but objective has {obj.n} coefficients")
    n = obj.n
    c = obj.coefficients
    if step is None:
        step = 1.0 / (1.0 + float(np.linalg.norm(c)))
    elif not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and positive, got {step!r}")

    x = np.full(n, 1.0 / n)
    trace = [x.copy()] if keep_trace else None
    converged = False
    iterations = 0
    point = SimplexVector(x)
    for iterations in range(1, max_iter + 1):
        point = project_fair_region(x + step * c, spec, n=n).point
        x_new = point.values
        delta = float(np.abs(x_new - x).max())
        x = x_new
        if trace is not None:
            trace.append(x.copy())
        if delta <= tol:
            converged = True
            break
    return SolveResult(
        x_opt=point,
        objective_value=float(c @ x),
        iterations=iterations,
        converged=converged,
        eps_max_at_opt=eps_max(point, spec.p),
        cv_at_opt=coefficient_of_variation(point),
        trace=tuple(trace) if trace is not None else (),
    )


def pareto_sweep(
    obj: ObjectiveSpec,
    p: float,
    n: int | None = None,
    eps_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> list[ParetoPoint]:
    """Trace the efficiency-vs-fairness frontier by solving at each epsilon.

    The grid must be ascending within [0, 1]. Non-convergence at a point is
    flagged on that point, not raised. Points are pure per-epsilon solves,
    so any evaluation order produces identical results.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid must be non-empty")
    if any(e < 0.0 or e > 1.0 for e in grid):
        raise ValueError("epsilon grid values must lie in [0, 1]")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    if n is None:
        n = obj.n
    points = []
    for eps in grid:
        spec = FairnessSpec(eps, p)
        res = solve(obj, spec, n=n, tol=tol, max_iter=max_iter)
        points.append(
            ParetoPoint(
                epsilon=eps,
                objective_value=res.objective_value,
                cv=res.cv_at_opt,
                cv_bound=cv_bound(n, spec),
                converged=res.converged,
            )
        )
    return points
