"""Solver and verification toolkit for semilinear nonlocal Dirichlet problems.

Computes fixed points of u = G[u^p] for Green operators G on the unit
interval, measures the boundary decay exponent of the solution, and checks
it against closed-form regime predictions, including the logarithmic
correction at the critical parameter threshold.
"""

from .grids import Grid, InsufficientWindowError, boundary_distance, graded_mesh
from .operators import (
    DiagonalSingularityError,
    GreenKernel,
    GreenOperator,
    apply,
    apply_sector,
    assemble,
    check_kernel_bounds,
    green_q_norm,
    green_q_norm_profile,
    spectral_mt_operator,
    synthetic_k5,
)
from .eigen import (
    BoundaryRatio,
    EigenPair,
    eigenfunction_boundary_report,
    leading_eigenpairs,
)
from .solver import (
    BracketError,
    ConvergenceError,
    HarnackReport,
    SemilinearSolution,
    SolverConfig,
    enclosure,
    harnack_report,
    picard_map,
    picard_solve,
)
from .exponents import (
    BqClassification,
    EigenvalueProblemSignal,
    ExponentPrediction,
    ProblemParams,
    classify_bq,
    hls_ladder,
    nu_case_machine,
    predict_mu,
)
from .fitting import FitReport, fit_power, fit_report

__version__ = "0.1.0"

__all__ = [
    "Grid", "InsufficientWindowError", "boundary_distance", "graded_mesh",
    "DiagonalSingularityError", "GreenKernel", "ProblemParams",
    "check_kernel_bounds", "synthetic_k5",
    "GreenOperator", "apply", "apply_sector", "assemble", "green_q_norm",
    "green_q_norm_profile", "spectral_mt_operator",
    "BoundaryRatio", "EigenPair",
    "eigenfunction_boundary_report", "leading_eigenpairs",
    "BracketError", "ConvergenceError", "HarnackReport", "SemilinearSolution",
    "SolverConfig", "enclosure", "harnack_report", "picard_map", "picard_solve",
    "BqClassification", "EigenvalueProblemSignal",
    "ExponentPrediction", "classify_bq", "hls_ladder",
    "nu_case_machine", "predict_mu",
    "FitReport", "fit_power", "fit_report",
]
