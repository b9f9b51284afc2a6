"""Direct and iterative solvers for the assembled systems.

Assembly makes every real definite band it builds positive definite, the
standard operator and Schur's mass band alike, so no solver knows a sign.
The direct path, `lu`, solves a real standard system with a positive
diagonal by static condensation: the cell interiors are eliminated one
block of cells at a time with the right-hand side carried along, one dptsv
(LAPACK's tridiagonal LDL^T) solves the vertex complement, and the
interiors are back-substituted.  Every step is numpy elementwise
arithmetic or that one scalar LAPACK call, so its bytes depend on neither
the BLAS kernel nor numpy's CPU dispatch.  Complex and mixed systems, a
diagonal that is not positive, and a system that meets a pivot that is not
positive go to a banded LU with partial pivoting (LAPACK gbtrf/gbtrs) in
the band's own dtype: dgbtrf for real systems, zgbtrf for complex ones.
Its upper bandwidth grows by the lower bandwidth during pivoting, and no
iterative refinement is applied.  The iterative path is plain conjugate
gradients with the stopping rule ||F - A x||_2 <= tol_prm ||F||_2, for
real systems with a positive diagonal only.  It takes the identity rows of
strongly imposed boundary values from assembly
(`LinearSystem.constrained`).  CG's products run through the band's DIA
operator (`BandedMatrix.operator`), a view of the band wrapped once per
solve, which gives the bits of `BandedMatrix.matvec`.  Mixed saddle
systems can alternatively be solved segregated: an outer CG on the Schur
complement C M^{-1} B (C = B^T exactly, applied as B.T) with a three-step
matvec, then a mass solve recovers v.  Its mass solves use
`CondensedMass`, the same elimination of the cell interiors on the
continuous mass band, all cells at once, with a tridiagonal LDL^T (LAPACK
pttrf/pttrs) for the vertices, so no step calls BLAS.  Each solver returns
its solution and iteration count; `solve_system` times it and measures
||F - A x|| / ||F|| through `BandedMatrix.matvec`, the same residual
whichever solver ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .assembly import BandedMatrix, DofLayout, LinearSystem

SOLVERS = ("lu", "cg", "schur")  # the names solve_system dispatches on


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int):
        super().__init__(f"banded LU hit an exactly zero pivot at index {pivot}")
        self.pivot = pivot


class NotPositiveDefiniteError(RuntimeError):
    """A band that static condensation found not positive definite."""


class NonConvergenceError(RuntimeError):
    """An iteration that stopped without meeting its tolerance: it ran out of
    budget, or (breakdown) it met a direction p with p^T A p <= 0."""

    def __init__(self, stage: str, iterations: int, residual: float, best_x: np.ndarray,
                 breakdown: bool = False):
        what = (f"broke down at iteration {iterations}: the operator is not definite" if breakdown
                else f"did not converge within {iterations} iterations")
        super().__init__(f"{stage} {what} (relative residual {residual:.3e})")
        self.stage = stage
        self.iterations = iterations
        self.residual = residual
        self.best_x = best_x
        self.breakdown = breakdown


@dataclass
class SolveReport:
    x: np.ndarray
    method: str
    iterations: int
    rel_residual: float
    wall_time: float


class BandedLU:
    """Factorization PA = LU of a BandedMatrix, reusable for several solves.

    gbtrf factors in the band's dtype (dgbtrf real, zgbtrf complex) and in
    LAPACK's layout, which only this class knows: 2 kl + ku + 1 rows in
    Fortran order, the band's diagonals in descending offset order below kl
    rows of workspace for the fill-in of row interchanges.  That array is
    the one copy of the band made here, and gbtrf factors it in place, so
    the matrix is never written.
    """

    def __init__(self, mat: BandedMatrix):
        self.n, self.kl, self.ku = mat.n, mat.kl, mat.ku
        gbtrf, self._gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (mat.ab,))
        lu = np.zeros((2 * mat.kl + mat.ku + 1, mat.n), dtype=mat.ab.dtype, order="F")
        lu[mat.kl :] = mat.ab[::-1]
        lu, ipiv, info = gbtrf(lu, mat.kl, mat.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to the factorization")
        if info > 0:
            raise SingularMatrixError(info - 1)
        self._lu = lu
        self._ipiv = ipiv

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._gbtrs(self._lu, self.kl, self.ku, b, self._ipiv)
        if info != 0:
            raise ValueError(f"band back-substitution failed with code {info}")
        return x


def _eliminate_interiors(windows: np.ndarray, cells: slice, extra: np.ndarray,
                         band: str) -> np.ndarray:
    """Gauss-Jordan on the interior pivots of the cells in the slice, all at once.

    windows is `DofLayout.cell_windows` of a band whose cells have their
    vertices p apart: cell c's p - 1 interior unknowns, pc + 1 .. pc + p - 1,
    couple only with each other and with the vertices pc and pc + p.  The
    work rows are a cell's unknowns in order, left vertex, interiors, right
    vertex; its columns are the interiors, the left and the right vertex,
    then extra's columns, whose interior rows extra gives.  The vertex rows
    start at zero from the vertex columns on, as the vertex pairs are read
    from the band as assembled, so no vertex-vertex entry is read here.
    Elimination leaves [I, K_II^{-1} K_IV, K_II^{-1} X] in the interior rows
    and [0, -K_VI K_II^{-1} K_IV, -K_VI K_II^{-1} X] in the vertex rows, for
    the cell blocks K and extra columns X.  No pivoting: every pivot must be
    positive, as it is in a positive definite band, or
    NotPositiveDefiniteError names the band.  Each column is updated by
    elementwise operations of its own, so extra's columns do not change the
    bits of the others.
    """
    p = windows.shape[0] - 1
    q, block = p - 1, windows[:, :, cells]
    work = np.zeros((p + 1, p + 1 + extra.shape[1], block.shape[2]))
    work[:, :q] = block[:, 1:p]
    work[1:p, q : p + 1] = block[1:p, ::p]
    work[1:p, p + 1 :] = extra
    for k in range(q):
        factor, row = work[:, k : k + 1].copy(), work[k + 1, k:]
        pivot = factor[k + 1, 0]  # divides the pivot row before the factor's zero is set
        if not pivot.min() > 0:
            raise NotPositiveDefiniteError(f"{band}: interior pivot {k} of a cell is not positive")
        row /= pivot
        factor[k + 1] = 0.0
        work[:, k:] -= factor * row
    return work


def _add_to_vertices(sums: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Add each cell's contributions to the vertices on its sides, in place.

    Cell c adds left[c] to vertex c and right[c] to vertex c + 1.  The left
    contributions go in first, so the sums are the same whether the cells
    were eliminated all at once or block by block.
    """
    sums[:-1] += left
    sums[1:] += right


class CondensedMass:
    """Solves with the continuous degree-p mass band by static condensation.

    Set-up eliminates every cell's interiors at once (`_eliminate_interiors`),
    with the identity as extra columns, which gives M_II^{-1}, M_II^{-1} M_IV
    and M_VI M_II^{-1}, and factors the tridiagonal vertex complement
    T = M_VV - M_VI M_II^{-1} M_IV with dpttrf.  M_VV's diagonal and
    off-diagonal are read from the band as assembled, so the identity row of
    a strongly imposed end stays one.

    A solve is M^{-1} b = F b + G T^{-1}(E b): one CSR product stacks
    E b = b_V - M_VI M_II^{-1} b_I over F b = M_II^{-1} b_I (zero at the
    vertices), dpttrs solves with T, and a second sparse product G puts
    T^{-1}(E b) at the vertices and -M_II^{-1} M_IV T^{-1}(E b) inside the
    cells.  No step calls BLAS.  A band with an interior pivot or a pivot of
    T that is not positive raises NotPositiveDefiniteError.
    """

    def __init__(self, mat: BandedMatrix):
        p = mat.kl  # a cell's vertices are p apart
        q, cells = p - 1, (mat.n - 1) // p
        windows = DofLayout(p, cells, {}).cell_windows(mat)
        work = _eliminate_interiors(windows, slice(None), np.eye(q)[:, :, None], "mass band")
        diag = mat.diagonal()[::p].copy()
        _add_to_vertices(diag, work[0, q], work[p, p])
        d, e, info = lapack.dpttrf(diag, windows[p, 0] + work[p, q])
        if info > 0:
            raise NotPositiveDefiniteError(
                f"mass band: pivot {info - 1} of the vertex complement is not positive")
        self._d, self._e, self._vertices = d, e, cells + 1

        # E's row v and G's column v hold vertex v, then the interiors of the
        # cells on its two sides: the first vertex has none on its left, the
        # last none on its right.  E's entries there are 1 and -M_VI M_II^{-1},
        # G's are 1 and -M_II^{-1} M_IV, so G is the CSC matrix on E's pattern
        around = np.ones((2, cells + 1, 2 * q + 1))
        around[0, 1:, :q] = work[p, p + 1 :].T
        around[0, :-1, q + 1 :] = work[0, p + 1 :].T
        around[1, 1:, :q] = -work[1:p, p].T
        around[1, :-1, q + 1 :] = -work[1:p, q].T
        trim = slice(q, around[0].size - q)
        # scipy keeps 32-bit indices when every column index and entry count fits
        index = np.int32 if p * (mat.n + p) < 2**31 else np.int64
        e_cols = (p * np.arange(cells + 1, dtype=index)[:, None]
                  + np.arange(-q, q + 1, dtype=index)).ravel()[trim]
        e_ptr = (2 * q + 1) * np.arange(cells + 2, dtype=index) - q
        e_ptr[0], e_ptr[-1] = 0, e_ptr[-1] - q
        # F's interior row pc + i holds row i of the cell's M_II^{-1}
        f_data = work[1:p, p + 1 :].transpose(2, 0, 1)
        f_cols = np.repeat(p * np.arange(cells, dtype=index)[:, None]
                           + np.arange(1, p, dtype=index), q, axis=0)
        rows = np.arange(1, mat.n + 1, dtype=index)
        f_ptr = e_ptr[-1] + q * (rows - (rows + q) // p)  # q per interior row above
        self._ef = sp.csr_matrix((np.concatenate((around[0].ravel()[trim], f_data.ravel())),
                                  np.concatenate((e_cols, f_cols.ravel())),
                                  np.concatenate((e_ptr, f_ptr))),
                                 shape=(cells + 1 + mat.n, mat.n))
        self._g = sp.csc_matrix((around[1].ravel()[trim], e_cols, e_ptr), shape=(mat.n, cells + 1))

    def solve(self, b: np.ndarray) -> np.ndarray:
        eb_fb = self._ef @ b
        t_inv, info = lapack.dpttrs(self._d, self._e, eb_fb[: self._vertices])
        if info != 0:
            raise ValueError(f"tridiagonal back-substitution failed with code {info}")
        x = self._g @ t_inv
        x += eb_fb[self._vertices :]
        return x


def _condensed_solve(system: LinearSystem) -> np.ndarray:
    """Solve a real standard system by static condensation, one block of cells at a time.

    Each block of `Mesh.cell_blocks` has its interiors eliminated with the
    right-hand side F as the one extra column (`_eliminate_interiors`) and
    keeps, per row of the work, the columns of the two vertices and of F.
    One dptsv solves the vertex complement, and each block's interiors
    follow as K_II^{-1} F_I - (K_II^{-1} K_IV) x_V.  A constrained end's
    identity row enters the vertex complement as assembled.  Every step is a
    numpy elementwise operation, but for that one LAPACK call: no BLAS,
    no summing reduction, so the bytes depend on neither the BLAS kernel nor
    numpy's CPU dispatch.  A pivot that is not positive, in a cell or in the
    complement, raises NotPositiveDefiniteError.
    """
    mat, rhs, layout = system.matrix, system.rhs, system.layout
    p, cells, blocks = layout.stride, layout.cells, tuple(system.mesh.cell_blocks())
    windows = layout.cell_windows(mat)
    loads = rhs[:-1].reshape(cells, p)[:, 1:].T  # [i, c] is F at pc + 1 + i
    # the work's left vertex, right vertex and F columns, [column, row, cell]
    kept = np.empty((3, p + 1, cells))
    for block in blocks:
        work = _eliminate_interiors(windows, block, loads[:, None, block], "standard band")
        kept[:, :, block] = work[:, p - 1 :].transpose(1, 0, 2)
    left, right, load = kept
    diag = mat.diagonal()[::p].copy()
    _add_to_vertices(diag, left[0], right[p])
    lower = windows[p, 0] + left[p]
    vertex_rhs = rhs[::p].copy()
    _add_to_vertices(vertex_rhs, load[0], load[p])
    *_, x_v, info = lapack.dptsv(diag, lower, vertex_rhs, overwrite_d=1, overwrite_e=1,
                                 overwrite_b=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"standard band: pivot {info - 1} of the vertex complement is not positive")
    x = np.empty(mat.n)
    x[::p] = x_v
    inside = x[:-1].reshape(cells, p)[:, 1:].T
    for block in blocks:  # the interior rows: K_II^{-1} F_I, less K_II^{-1} K_IV times x_V
        by_left, by_right, inner = kept[:, 1:p, block]
        by_left *= x_v[block]
        by_right *= x_v[block.start + 1 : block.stop + 1]
        np.subtract(inner, by_left, out=inside[:, block])
        inside[:, block] -= by_right
    return x


def _cg_core(matvec, b: np.ndarray, tol: float, max_iter: int, x0: np.ndarray | None = None,
             stage: str = "cg"):
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - matvec(x)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    rs = np.dot(r, r)
    threshold = tol * b_norm
    if np.sqrt(rs) <= threshold:  # the seed already solves it, e.g. no free unknowns
        return x, 0
    p = r.copy()
    step = np.empty_like(b)  # work vector for the alpha-scaled updates
    for k in range(1, max_iter + 1):
        ap = matvec(p)
        denom = np.dot(p, ap)
        if denom <= 0.0:
            raise NonConvergenceError(stage, k, float(np.sqrt(rs) / b_norm), x, breakdown=True)
        alpha = rs / denom
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rs_new = np.dot(r, r)
        if np.sqrt(rs_new) <= threshold:
            return x, k
        p *= rs_new / rs
        p += r  # p = r + beta p; the sum is the same either way round
        rs = rs_new
    raise NonConvergenceError(stage, max_iter, float(np.sqrt(rs) / b_norm), x)


def cg_solve(system: LinearSystem, tol_prm: float) -> tuple[np.ndarray, int]:
    """Conjugate gradients on a real positive definite system.

    A complex system is refused before iterating: its operator is complex
    symmetric, not Hermitian.  The rows assembly constrained are identities;
    seeding the iterate with their values keeps the Krylov space inside the
    free rows.  The diagonal entries of a positive definite operator are its
    Rayleigh quotients on the unit vectors, so a diagonal that is not
    positive, such as a saddle's zero u-diagonal, is rejected.  An indefinite
    operator with a positive diagonal is not caught here: CG raises
    NonConvergenceError, naming the breakdown, when it meets it.

    Every product goes through the band's DIA operator
    (`BandedMatrix.operator`), a view of the band wrapped once per solve.
    It adds the diagonals in `BandedMatrix.matvec`'s order, so CG takes the
    same iterates as through `matvec`.
    """
    if system.complex_valued:
        raise ValueError("CG needs a real system; use the lu solver for complex problems")
    mat, rhs, constrained = system.matrix, system.rhs, system.constrained
    if not np.all(mat.diagonal() > 0):
        raise ValueError("diagonal is not positive; CG needs a positive definite operator")
    op = mat.operator()
    x0 = np.zeros(mat.n)
    x0[constrained] = rhs[constrained]
    return _cg_core(lambda v: op @ v, rhs, tol_prm, 10 * mat.n, x0=x0)


def schur_solve(system: LinearSystem, tol_prm: float = 1e-10) -> tuple[np.ndarray, int]:
    """Segregated solve of the real mixed saddle system.

    Outer CG runs on C M^{-1} B U = C M^{-1} G - H with the three-step
    matvec X = B W, M Y = X, Z = C Y; the gradient unknowns follow from
    M V = G - B U.  All three mass solves, the right-hand side's, every
    outer iteration's and v's, reuse one `CondensedMass` of M.  C = B^T
    exactly in the pure saddle form, so the operator is symmetric positive
    definite, and C is B.T, the CSC view on B's own arrays: it sums each
    output row in ascending column order, as a CSR copy of C would.
    tol_prm is the outer CG's stopping tolerance on the Schur system.
    """
    blocks = system.blocks
    if blocks is None:
        raise ValueError("segregated solve needs the real mixed block system")
    if not blocks.pure_saddle:
        raise ValueError(
            "segregated solve requires the pure saddle form (constant unit "
            "diffusion, no reaction term)"
        )
    m_solve = CondensedMass(blocks.M).solve
    b_mat, c_mat = blocks.B, blocks.B.T
    rhs_outer = c_mat @ m_solve(blocks.G) - blocks.H

    def s_matvec(w):
        return c_mat @ m_solve(b_mat @ w)

    u, iters = _cg_core(s_matvec, rhs_outer, tol_prm, 10 * len(rhs_outer), stage="outer-cg")
    v = m_solve(blocks.G - b_mat @ u)

    x = np.empty(system.n_unknowns)
    x[blocks.pos_v] = v
    x[blocks.pos_u] = u
    return x, iters


def _direct_solve(system: LinearSystem) -> np.ndarray:
    """The lu solver: static condensation where it applies, else the banded LU.

    A real standard system with a positive diagonal is condensed
    (`_condensed_solve`); one that meets a pivot that is not positive on the
    way, and every complex or mixed system, goes to `BandedLU`.
    """
    if (system.flavor == "standard" and not system.complex_valued
            and np.all(system.matrix.diagonal() > 0)):
        try:
            return _condensed_solve(system)
        except NotPositiveDefiniteError:
            pass
    return BandedLU(system.matrix).solve(system.rhs)


def solve_system(system: LinearSystem, solver: str = "lu", tol_prm: float = 1e-10) -> SolveReport:
    """Solve with the named solver (one of SOLVERS); drivers go through this single entry.

    `lu` condenses a real standard system with a positive diagonal and
    factors every other system with `BandedLU` (`_direct_solve`).
    wall_time covers the solver alone; rel_residual is ||F - A x|| / ||F||
    on the whole system, through `BandedMatrix.matvec`, for every solver.
    """
    start = time.perf_counter()
    if solver == "lu":
        x, iterations = _direct_solve(system), 0
    elif solver == "cg":
        x, iterations = cg_solve(system, tol_prm)
    elif solver == "schur":
        x, iterations = schur_solve(system, tol_prm)
    else:
        raise ValueError(f"unknown solver {solver!r}; expected one of {', '.join(SOLVERS)}")
    elapsed = time.perf_counter() - start
    rhs_norm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(system.rhs - system.matrix.matvec(x)) / rhs_norm if rhs_norm else 0.0
    return SolveReport(x=x, method=solver, iterations=iterations, rel_residual=float(res),
                       wall_time=elapsed)
