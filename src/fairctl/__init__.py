"""Convex dispersion-control fairness constraints.

A single parameter eps in [0, 1] and a norm exponent p >= 2 define the
constraint (1 + eps * D_p) ||x||_p <= ||x||_1 on nonnegative vectors:
vacuous at eps = 0, forcing all components equal at eps = 1, and convex for
every p. The package provides membership tests and thresholds, coefficient
of variation bounds, constraint generation, Euclidean projection onto the
fair region, an exact solver for linear objectives with Pareto sweeps over
eps, and a seeded sampling verifier for the family's theorems.
"""

__version__ = "0.1.0"

from .core import (
    INFINITY,
    NonNegVector,
    SimplexVector,
    dispersion_constant,
    normalize,
    p_norm,
)
from .fairness import (
    ConeConstraint,
    DispersionEntry,
    DispersionReport,
    FairnessSpec,
    coefficient_of_variation,
    cone_constraint,
    cv_bound,
    dispersion_report,
    eps_max,
    is_fair,
)
from .geometry import (
    ProjectionResult,
    ProjectionRows,
    project_fair_region,
    project_simplex,
)
from .solver import ObjectiveSpec, ParetoPoint, SolveResult, pareto_sweep, solve
from .verifier import (
    DEFAULT_N_VALUES,
    DEFAULT_P_CHAIN,
    SUITE_NAMES,
    SuiteResult,
    VerificationReport,
    VerifyConfig,
    run_suite,
)

__all__ = [
    "__version__",
    "INFINITY",
    "NonNegVector",
    "SimplexVector",
    "p_norm",
    "dispersion_constant",
    "normalize",
    "FairnessSpec",
    "DispersionEntry",
    "DispersionReport",
    "ConeConstraint",
    "eps_max",
    "is_fair",
    "coefficient_of_variation",
    "cv_bound",
    "cone_constraint",
    "dispersion_report",
    "ProjectionResult",
    "ProjectionRows",
    "project_simplex",
    "project_fair_region",
    "ObjectiveSpec",
    "SolveResult",
    "ParetoPoint",
    "solve",
    "pareto_sweep",
    "VerifyConfig",
    "SuiteResult",
    "VerificationReport",
    "SUITE_NAMES",
    "DEFAULT_N_VALUES",
    "DEFAULT_P_CHAIN",
    "run_suite",
]
