"""Direct and iterative solvers for the assembled systems.

The direct path is a banded LU with partial pivoting (LAPACK gbtrf/gbtrs) on
the band layout produced by assembly, in the band's own dtype: dgbtrf for
real systems, zgbtrf for complex ones.  Upper bandwidth grows by the lower
bandwidth during pivoting and no iterative refinement is applied.  The
iterative path is plain conjugate gradients with the stopping rule
||F - A x||_2 <= tol_prm ||F||_2, for real systems only.  It takes the
identity rows of strongly imposed boundary values from assembly
(`LinearSystem.constrained`), and the sign of the operator from the diagonal
of the remaining rows: the standard operator is negative definite by
construction, so the system is negated before iterating.  CG's products run
through the band's DIA operator (`BandedMatrix.operator`), built once per
solve, which gives the bits of `BandedMatrix.matvec`.  Mixed saddle systems
can alternatively be solved segregated: an outer CG on the Schur complement
C M^{-1} B (C = B^T exactly) with a three-step matvec, then a mass solve
recovers v.  Its mass solves use `CondensedMass`, static condensation of
the continuous mass band: the cell interiors are eliminated per cell, all
cells at once, and a tridiagonal LDL^T (LAPACK pttrf/pttrs) solves for the
vertices, so no step calls BLAS.  Each solver returns its solution and
iteration count; `solve_system` times it and measures ||F - A x|| / ||F||
through `BandedMatrix.matvec`, the same residual whichever solver ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .assembly import BandedMatrix, DofLayout, FieldSpace, LinearSystem

SOLVERS = ("lu", "cg", "schur")  # the names solve_system dispatches on


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int):
        super().__init__(f"banded LU hit an exactly zero pivot at index {pivot}")
        self.pivot = pivot


class NotPositiveDefiniteError(RuntimeError):
    """A mass band that static condensation found not positive definite."""


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

    The band goes to gbtrf as it is, in its own dtype (dgbtrf for a real band,
    zgbtrf for a complex one): with overwrite_ab=0 LAPACK's wrapper makes the
    one Fortran-order copy that it factors, so the matrix is never written.
    The band itself stays in C order, where each stored diagonal is
    contiguous for `BandedMatrix.matvec` and for the copy that
    `BandedMatrix.operator` makes of the diagonals.
    """

    def __init__(self, mat: BandedMatrix):
        self.n, self.kl, self.ku = mat.n, mat.kl, mat.ku
        gbtrf, self._gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (mat.ab,))
        lu, ipiv, info = gbtrf(mat.ab, mat.kl, mat.ku)
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to the factorization")
        if info > 0:
            raise SingularMatrixError(info - 1)
        self._lu = lu
        self._ipiv = ipiv

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._gbtrs(self._lu, self.kl, self.ku, np.asfortranarray(b.reshape(-1, 1)), self._ipiv)
        if info != 0:
            raise ValueError(f"band back-substitution failed with code {info}")
        return np.ascontiguousarray(x[:, 0])


class CondensedMass:
    """Solves with the continuous degree-p mass band by static condensation.

    Cell c's p - 1 interior unknowns, pc + 1 .. pc + p - 1, couple only with
    each other and with the cell's vertices pc and pc + p.  Set-up gathers
    each cell's blocks M_II, M_IV and M_VI from the band
    (`DofLayout.gather_blocks`), runs Gauss-Jordan on the interior pivots of
    all cells at once, without pivoting, as a positive definite band needs
    none, which gives M_II^{-1}, M_II^{-1} M_IV and M_VI M_II^{-1}, and
    factors the tridiagonal vertex complement T = M_VV - M_VI M_II^{-1} M_IV
    with dpttrf.  M_VV's diagonal and off-diagonal are the gathered vertex
    pairs, which read the band as assembled, so the identity row of a
    strongly imposed end stays one.

    A solve is M^{-1} b = F b + G T^{-1}(E b): one CSR product stacks
    E b = b_V - M_VI M_II^{-1} b_I over F b = M_II^{-1} b_I (zero at the
    vertices), dpttrs solves with T, and a second sparse product G puts
    T^{-1}(E b) at the vertices and -M_II^{-1} M_IV T^{-1}(E b) inside the
    cells.  No step calls BLAS.  A band with an interior pivot or a pivot of
    T that is not positive raises NotPositiveDefiniteError.
    """

    def __init__(self, mat: BandedMatrix, p: int):
        q, cells = p - 1, (mat.n - 1) // p
        # every cell's block, rows and columns in the order interiors, left and
        # right vertex; the work array appends an identity that becomes
        # M_II^{-1} and zeroes the vertex pairs, as M_VV comes from the band as
        # assembled
        order = FieldSpace((p, True), (*range(1, p), 0, p))
        cell = DofLayout(p, cells, {}).gather_blocks(mat, order, order)
        work = np.zeros((p + 1, 2 * p, cells))
        work[:, : p + 1] = cell.transpose(1, 2, 0)
        work[q:, q : p + 1] = 0.0
        work[range(q), range(p + 1, 2 * p)] = 1.0
        # Gauss-Jordan leaves [I, M_II^{-1} M_IV, M_II^{-1}] in the interior
        # rows and [0, -M_VI M_II^{-1} M_IV, -M_VI M_II^{-1}] in the vertex rows
        for k in range(q):
            pivot = work[k, k].copy()
            if not pivot.min() > 0:
                raise NotPositiveDefiniteError(
                    f"mass band: interior pivot {k} of a cell is not positive")
            work[k, k:] /= pivot
            factor = work[:, k].copy()
            factor[k] = 0.0
            work[:, k:] -= factor[:, None] * work[k, k:]
        diag = np.append(cell[:, q, q], cell[-1, p, p])  # each vertex's, as assembled
        diag[:-1] += work[q, q]
        diag[1:] += work[p, p]
        d, e, info = lapack.dpttrf(diag, cell[:, p, q] + work[p, q])
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
        around[0, :-1, q + 1 :] = work[q, p + 1 :].T
        around[1, 1:, :q] = -work[:q, p].T
        around[1, :-1, q + 1 :] = -work[:q, q].T
        trim = slice(q, around[0].size - q)
        # scipy keeps 32-bit indices when every column index and entry count fits
        index = np.int32 if p * (mat.n + p) < 2**31 else np.int64
        e_cols = (p * np.arange(cells + 1, dtype=index)[:, None]
                  + np.arange(-q, q + 1, dtype=index)).ravel()[trim]
        e_ptr = (2 * q + 1) * np.arange(cells + 2, dtype=index) - q
        e_ptr[0], e_ptr[-1] = 0, e_ptr[-1] - q
        # F's interior row pc + i holds row i of the cell's M_II^{-1}
        f_data = work[:q, p + 1 :].transpose(2, 0, 1)
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
    """Conjugate gradients on a real definite (possibly negated) system.

    A complex system is refused before iterating: its operator is complex
    symmetric, not Hermitian.  The rows assembly constrained are identities;
    seeding the iterate with their values keeps the Krylov space inside the
    free rows.  The diagonal entries of a definite operator are its Rayleigh
    quotients on the unit vectors, so the free rows' diagonal gives its sign;
    mixed signs, such as a saddle's zero u-diagonal, are rejected.  An
    indefinite operator whose diagonal has one sign is not caught here: CG
    raises NonConvergenceError, naming the breakdown, when it meets it.

    Every product goes through the band's DIA operator
    (`BandedMatrix.operator`), built once per solve; a negative definite one
    has its data negated in place.  It adds the diagonals in
    `BandedMatrix.matvec`'s order and negation is exact, so CG takes the
    same iterates as through sign times `matvec`.
    """
    if system.complex_valued:
        raise ValueError("CG needs a real system; use the lu solver for complex problems")
    mat, rhs, constrained = system.matrix, system.rhs, system.constrained
    op = mat.operator()
    diagonal = np.delete(op.diagonal(), constrained)
    if np.all(diagonal > 0):
        sign = 1.0  # also with no free unknowns, where CG has nothing to do
    elif np.all(diagonal < 0):
        sign = -1.0
        op.data *= -1.0
    else:
        raise ValueError("diagonal of the free rows has mixed signs; CG needs a definite operator")
    x0 = np.zeros(mat.n)
    x0[constrained] = rhs[constrained]
    return _cg_core(lambda v: op @ v, sign * rhs, tol_prm, 10 * mat.n, x0=x0)


def schur_solve(system: LinearSystem, tol_prm: float = 1e-10) -> tuple[np.ndarray, int]:
    """Segregated solve of the real mixed saddle system.

    Outer CG runs on C M^{-1} B U = C M^{-1} G - H with the three-step
    matvec X = B W, M Y = X, Z = C Y; the gradient unknowns follow from
    M V = G - B U.  All three mass solves, the right-hand side's, every
    outer iteration's and v's, reuse one `CondensedMass` of M.  C is the
    second-equation block taken from the system, equal to B^T exactly in
    the pure saddle form, so the operator is symmetric positive definite.
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
    m_solve = CondensedMass(blocks.M, system.p).solve
    b_mat, c_mat = blocks.B, blocks.C
    rhs_outer = c_mat @ m_solve(blocks.G) - blocks.H

    def s_matvec(w):
        return c_mat @ m_solve(b_mat @ w)

    u, iters = _cg_core(s_matvec, rhs_outer, tol_prm, 10 * len(rhs_outer), stage="outer-cg")
    v = m_solve(blocks.G - b_mat @ u)

    x = np.empty(system.n_unknowns)
    x[blocks.pos_v] = v
    x[blocks.pos_u] = u
    return x, iters


def solve_system(system: LinearSystem, solver: str = "lu", tol_prm: float = 1e-10) -> SolveReport:
    """Solve with the named solver (one of SOLVERS); drivers go through this single entry.

    wall_time covers the solver alone; rel_residual is ||F - A x|| / ||F||
    on the whole system, through `BandedMatrix.matvec`, for every solver.
    """
    start = time.perf_counter()
    if solver == "lu":
        x, iterations = BandedLU(system.matrix).solve(system.rhs), 0
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
