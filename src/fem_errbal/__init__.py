"""1D finite elements with truncation/round-off error balancing.

Solves (D u_x)_x + r u = f on (0, 1) with standard and mixed formulations,
measures the discretization error under uniform refinement, and predicts the
attainable accuracy and the optimal DoF count from a few coarse solves by
balancing the extrapolated truncation error against a calibrated round-off
model."""

from .assembly import assemble_mixed, assemble_standard
from .calibration import cpu_identifier, fit_floor, sensitivity_suite
from .error_analysis import (
    DEFAULT_ALPHA_R,
    beta_R,
    beta_T,
    error_exact,
    error_refined,
    l2_norm,
    reconstruct,
    variable_available,
)
from .mesh_basis import build_mesh
from .prediction import brute_force_sweep, prediction_loop, solve_level
from .problem import catalog
from .solvers import solve_system

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA_R",
    "assemble_mixed",
    "assemble_standard",
    "beta_R",
    "beta_T",
    "brute_force_sweep",
    "build_mesh",
    "catalog",
    "cpu_identifier",
    "error_exact",
    "error_refined",
    "fit_floor",
    "l2_norm",
    "prediction_loop",
    "reconstruct",
    "sensitivity_suite",
    "solve_level",
    "solve_system",
    "variable_available",
]
