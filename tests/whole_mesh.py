"""Whole-mesh forms of the package's error quadratures, for bit-for-bit checks,
and point evaluation of a field view.

Each quadrature builds its quadrature points, exact values and field values
on every cell at once, the way the package computed them before it walked
the mesh in blocks of cells, and adds the per-cell sums with one np.sum.
"""

import numpy as np

from fem_errbal.mesh_basis import LagrangeBasis, basis_table, gauss_legendre_rule
from fem_errbal.problem import eval_exact


def evaluate(field, x) -> np.ndarray:
    """Values of a field view at points x in [0, 1]; a shared vertex takes its right cell."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise ValueError("evaluation points must lie in [0, 1]")
    t = field.mesh.cell_count
    cell = np.clip(np.floor(x * t).astype(np.int64), 0, t - 1)
    table = LagrangeBasis(*field.basis).eval(x * t - cell, field.deriv_order)
    vals = np.einsum("mi,mi->m", table.astype(field.coeffs.dtype), field.coeffs[cell])
    return vals / field.mesh.h**field.deriv_order


def _values(field, n_quad: int, child=None) -> np.ndarray:
    table = basis_table(*field.basis, n_quad, field.deriv_order, child)
    return (field.coeffs @ table.T) / field.mesh.h**field.deriv_order


def _norm(diff: np.ndarray, n_quad: int, h: float) -> float:
    return float(np.sqrt(h * np.sum(np.abs(diff) ** 2 @ gauss_legendre_rule(n_quad).weights)))


def l2_norm(field) -> float:
    n_quad = field.fem_degree + 4
    return _norm(_values(field, n_quad), n_quad, field.mesh.h)


def error_exact(field, spec) -> float:
    n_quad = field.fem_degree + 4
    rule = gauss_legendre_rule(n_quad)
    t, h = field.mesh.cell_count, field.mesh.h
    x_q = (np.arange(t)[:, None] + rule.points[None, :]) * h
    exact = eval_exact(spec, field.var, x_q)
    return _norm(_values(field, n_quad) - exact, n_quad, h)


def error_refined(coarse, fine) -> float:
    n_quad = fine.fem_degree + 4
    fine_vals = _values(fine, n_quad)
    coarse_vals = np.empty_like(fine_vals)
    coarse_vals[0::2] = _values(coarse, n_quad, child=0)
    coarse_vals[1::2] = _values(coarse, n_quad, child=1)
    return _norm(coarse_vals - fine_vals, n_quad, fine.mesh.h)
