"""Field reconstruction and L2 error measurement.

Solutions come back as coefficient vectors; this module turns them into
piecewise-polynomial views of u, u_x and u_xx that evaluate at each cell's
quadrature points, measures L2 errors against exact solutions or once-refined
solves, and tracks error curves over refinement ladders and writes them as
CSV.  A view copies the coefficients of the one field that hosts its variable
(`assembly.cell_coefficients`) and keeps that field's basis, the (degree,
continuous) tuple of `LinearSystem.layout`; for mixed systems the derivative
fields come from the gradient unknown, u_x = -v and u_xx = -v_x.  Every
error is measured unscaled; the prediction module divides it by the frame
of a scaling scheme, which keeps the round-off floor offsets
magnitude-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .assembly import LinearSystem, cell_coefficients
from .mesh_basis import Mesh, basis_table, build_mesh, gauss_legendre_rule
from .problem import VARIABLES, ProblemSpec, eval_exact
from .solvers import SolveReport

_DERIV_ORDER = {"u": 0, "ux": 1, "uxx": 2}

# offsets of the round-off floor E_R = alpha_R N^{beta_R}, calibrated per variable;
# budgets from above, to be recalibrated via the sensitivity suites when the floor
# level matters.  Element tables are rounded once (see mesh_basis), so they no
# longer depend on the numpy/LAPACK build, and real standard systems are solved by
# static condensation, whose bytes do not depend on the BLAS kernel:
# bench-poisson standard p=2 u fits alpha_R = 2.09e-17 at slope 2.000 under every
# kernel (the banded LU had fitted 1.2e-17 under OpenBLAS SkylakeX and bottomed out
# higher under Haswell).  Mixed and complex floors still come from the banded LU
# and move with the kernel.  The leggauss weights and Vandermonde-solved basis of
# earlier tables had added an N^2 error that fitted 4.2e-17 on one build
DEFAULT_ALPHA_R = {"u": 2e-17, "ux": 5e-17, "uxx": 1e-15}


def variable_available(flavor: str, var: str, p: int) -> bool:
    _check_tags(flavor, var)
    if flavor == "standard" and var == "uxx":
        return p >= 2
    return True


def beta_T(flavor: str, var: str, p: int) -> int:
    """Truncation-error convergence order of the variable under h-refinement."""
    _check_tags(flavor, var)
    if not variable_available(flavor, var, p):
        raise ValueError(f"{var} is not available for standard degree {p}")
    if flavor == "standard":
        return {"u": p + 1, "ux": p, "uxx": p - 1}[var]
    return {"u": p, "ux": p + 1, "uxx": p}[var]


def beta_R(flavor: str) -> int:
    """Round-off error growth order in the DoF count."""
    if flavor not in ("standard", "mixed"):
        raise ValueError(f"unknown flavor {flavor!r}")
    return 2 if flavor == "standard" else 1


def host_dof_count(flavor: str, var: str, p: int, cell_count: int, complex_valued: bool) -> int:
    """DoF count of the space hosting the variable, in real unknowns: a complex
    problem counts two per complex unknown, its real and imaginary parts."""
    _check_tags(flavor, var)
    if flavor == "standard":
        n = p * cell_count + 1
    else:
        n = p * cell_count if var == "u" else p * cell_count + 1
    return 2 * n if complex_valued else n


def _check_tags(flavor: str, var: str) -> None:
    if flavor not in ("standard", "mixed"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")


@dataclass
class FieldView:
    """Piecewise-polynomial view of one solution variable."""

    var: str
    flavor: str
    mesh: Mesh
    basis: tuple[int, bool]  # (degree, continuous) of the host field
    coeffs: np.ndarray  # (cells, local dofs)
    deriv_order: int
    fem_degree: int

    @property
    def complex_valued(self) -> bool:
        return bool(np.iscomplexobj(self.coeffs))

    @property
    def n_dof(self) -> int:
        return host_dof_count(
            self.flavor, self.var, self.fem_degree, self.mesh.cell_count, self.complex_valued
        )

    def eval_on_cells(self, n_quad: int, child: int | None = None,
                      cells: slice = slice(None)) -> np.ndarray:
        """Values at the points of the n_quad-point rule in each cell, shape (cells, n_quad).

        With child k in {0, 1} the points are those of the rule on each cell's
        k-th half (see `basis_table`).  `cells` picks a slice of the cells.
        """
        table = basis_table(*self.basis, n_quad, self.deriv_order, child)
        vals = self.coeffs[cells] @ table.T
        return vals / self.mesh.h**self.deriv_order if self.deriv_order else vals


def reconstruct(report: SolveReport, system: LinearSystem, var: str) -> FieldView:
    """Build the evaluator for one variable from a solve of the given system."""
    p = system.p
    if not variable_available(system.flavor, var, p):
        raise ValueError(f"uxx needs the per-cell polynomial degree >= 2; "
                         f"standard p={p} cannot host it")
    host = "v" if system.flavor == "mixed" and var != "u" else "u"
    coeffs = cell_coefficients(report.x, system, host)
    if host == "v":
        np.negative(coeffs, out=coeffs)
    return FieldView(var=var, flavor=system.flavor, mesh=system.mesh,
                     basis=system.layout.fields[host].basis, coeffs=coeffs,
                     deriv_order=_DERIV_ORDER[var] - (host == "v"), fem_degree=p)


@dataclass
class ErrorRecord:
    refinement_level: int
    n_dof: int
    value: float
    estimator: str  # 'exact' | 'refined'
    observed_rate: Optional[float] = None


@dataclass
class ErrorCurve:
    records: List[ErrorRecord] = field(default_factory=list)

    def __post_init__(self):
        ns = [r.n_dof for r in self.records]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("records must have strictly increasing DoF counts")

    def append(self, record: ErrorRecord) -> None:
        if self.records and record.n_dof <= self.records[-1].n_dof:
            raise ValueError("records must have strictly increasing DoF counts")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def min_index(self) -> int:
        if not self.records:
            raise ValueError("empty curve has no minimum")
        values = np.array([r.value for r in self.records])
        return int(np.argmin(values))  # first occurrence, i.e. the cheaper mesh

    def locate_min(self) -> ErrorRecord:
        return self.records[self.min_index]

    def post_min_records(self) -> List[ErrorRecord]:
        """Records strictly after the minimum, the round-off dominated branch."""
        return self.records[self.min_index + 1 :]


def write_curve_csv(path: str | Path, comment_lines: Sequence[str], curve: ErrorCurve) -> None:
    """Write '# '-prefixed comment lines, then one REF,N_h,E_h,rate row per record.

    Values carry 17 significant digits so they round-trip; a missing rate is nan.
    """
    lines = [f"# {line}" for line in comment_lines] + ["REF,N_h,E_h,rate"]
    for rec in curve:
        rate = float("nan") if rec.observed_rate is None else rec.observed_rate
        lines.append(f"{rec.refinement_level},{rec.n_dof},{rec.value:.17g},{rate:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _norm(mesh: Mesh, n_quad: int, integrand) -> float:
    """Composite n_quad-point Gauss L2 norm over the mesh of integrand(cells).

    integrand(cells) gives the values at the rule's points in a slice of
    cells, shape (cells, n_quad).  The mesh is walked in blocks
    (`Mesh.cell_blocks`), each writing its per-cell sums into one vector that
    a single np.sum adds up, so the norm has the bits of the whole-mesh sum
    while no temporary grows past one block.
    """
    weights = gauss_legendre_rule(n_quad).weights
    sums = np.empty(mesh.cell_count)
    for cells in mesh.cell_blocks():
        np.matmul(np.abs(integrand(cells)) ** 2, weights, out=sums[cells])
    return float(np.sqrt(mesh.h * np.sum(sums)))


def l2_norm(field) -> float:
    """Composite-Gauss L2 norm of a FieldView, or of a plain callable on [0, 1]."""
    if isinstance(field, FieldView):
        n_quad = field.fem_degree + 4
        return _norm(field.mesh, n_quad, lambda cells: field.eval_on_cells(n_quad, cells=cells))
    mesh, points = build_mesh(8), gauss_legendre_rule(10).points
    return _norm(mesh, 10, lambda cells: np.asarray(field(mesh.quadrature_points(points, cells))))


def error_exact(field: FieldView, spec: ProblemSpec) -> ErrorRecord:
    """E_h = ||var_h - var_exc|| by per-cell quadrature."""
    n_quad = field.fem_degree + 4
    points = gauss_legendre_rule(n_quad).points

    def diff(cells: slice) -> np.ndarray:
        exact = eval_exact(spec, field.var, field.mesh.quadrature_points(points, cells))
        return field.eval_on_cells(n_quad, cells=cells) - exact

    return ErrorRecord(
        refinement_level=field.mesh.refinement_level,
        n_dof=field.n_dof,
        value=_norm(field.mesh, n_quad, diff),
        estimator="exact",
    )


def error_refined(coarse: FieldView, fine: FieldView) -> ErrorRecord:
    """Estimator ||var_h - var_{h/2}||, integrated on the finer mesh.

    Nested dyadic meshes make the cell lookup exact: fine cell d sits in coarse
    cell d // 2 with the reference map xi -> (xi + d % 2) / 2.
    """
    if fine.mesh.refinement_level != coarse.mesh.refinement_level + 1:
        raise ValueError("estimator needs solves on adjacent refinement levels")
    if (coarse.var, coarse.flavor, coarse.fem_degree) != (fine.var, fine.flavor, fine.fem_degree):
        raise ValueError("estimator needs the same variable, flavor, and degree")
    n_quad = fine.fem_degree + 4

    def diff(cells: slice) -> np.ndarray:
        # fine cells start at an even index, so their parents are a slice too
        fine_vals = fine.eval_on_cells(n_quad, cells=cells)
        parents = slice(cells.start // 2, cells.stop // 2)
        coarse_vals = np.empty_like(fine_vals)
        coarse_vals[0::2] = coarse.eval_on_cells(n_quad, child=0, cells=parents)
        coarse_vals[1::2] = coarse.eval_on_cells(n_quad, child=1, cells=parents)
        return coarse_vals - fine_vals

    return ErrorRecord(
        refinement_level=coarse.mesh.refinement_level,
        n_dof=coarse.n_dof,
        value=_norm(fine.mesh, n_quad, diff),
        estimator="refined",
    )


def convergence_order(e_coarse: float, e_fine: float) -> float:
    """Observed order log2(E_coarse / E_fine) between adjacent levels."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("convergence order needs two positive error values")
    return float(np.log2(e_coarse / e_fine))
