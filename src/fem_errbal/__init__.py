"""1D finite elements with truncation/round-off error balancing.

Solves (D u_x)_x + r u = f on (0, 1) with standard and mixed formulations,
measures the discretization error under uniform refinement, and predicts the
attainable accuracy and the optimal DoF count from a few coarse solves by
balancing the extrapolated truncation error against a calibrated round-off
model."""

from .assembly import (
    BandedMatrix,
    LinearSystem,
    assemble_mixed,
    assemble_standard,
    scale_system,
)
from .calibration import (
    CalibrationReport,
    CalibrationRun,
    FloorFit,
    cpu_identifier,
    fit_floor,
    poisson_neumann_variant,
    sensitivity_suite,
)
from .error_analysis import (
    DEFAULT_ALPHA_R,
    ErrorCurve,
    ErrorRecord,
    FieldView,
    beta_R,
    beta_T,
    convergence_order,
    error_exact,
    error_refined,
    host_dof_count,
    l2_norm,
    reconstruct,
    variable_available,
)
from .mesh_basis import (
    LagrangeBasis,
    Mesh,
    QuadratureRule,
    build_mesh,
    gauss_legendre_rule,
    gauss_lobatto_nodes,
)
from .prediction import (
    AlgorithmDefaults,
    ErrorModel,
    NormalizationError,
    PredictionResult,
    brute_force_sweep,
    default_scheme,
    exact_norm_factors,
    fit_alpha_T,
    normalization,
    predict_opt,
    prediction_loop,
    solve_level,
)
from .problem import (
    CATALOG_NAMES,
    VARIABLES,
    BoundaryCondition,
    ProblemSpec,
    catalog,
    eval_exact,
)
from .solvers import (
    NonConvergenceError,
    SingularMatrixError,
    SolveReport,
    solve_system,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmDefaults",
    "BandedMatrix",
    "BoundaryCondition",
    "CalibrationReport",
    "CalibrationRun",
    "CATALOG_NAMES",
    "DEFAULT_ALPHA_R",
    "ErrorCurve",
    "ErrorModel",
    "ErrorRecord",
    "FieldView",
    "FloorFit",
    "LagrangeBasis",
    "LinearSystem",
    "Mesh",
    "NonConvergenceError",
    "NormalizationError",
    "PredictionResult",
    "ProblemSpec",
    "QuadratureRule",
    "SingularMatrixError",
    "SolveReport",
    "VARIABLES",
    "assemble_mixed",
    "assemble_standard",
    "beta_R",
    "beta_T",
    "brute_force_sweep",
    "build_mesh",
    "catalog",
    "convergence_order",
    "cpu_identifier",
    "default_scheme",
    "error_exact",
    "error_refined",
    "eval_exact",
    "exact_norm_factors",
    "fit_alpha_T",
    "fit_floor",
    "gauss_legendre_rule",
    "gauss_lobatto_nodes",
    "host_dof_count",
    "l2_norm",
    "normalization",
    "poisson_neumann_variant",
    "predict_opt",
    "prediction_loop",
    "reconstruct",
    "scale_system",
    "sensitivity_suite",
    "solve_level",
    "solve_system",
    "variable_available",
]
