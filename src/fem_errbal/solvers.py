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
recovers v.  Each solver returns its solution and iteration count;
`solve_system` times it and measures ||F - A x|| / ||F|| through
`BandedMatrix.matvec`, the same residual whichever solver ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .assembly import BandedMatrix, LinearSystem

SOLVERS = ("lu", "cg", "schur")  # the names solve_system dispatches on


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int):
        super().__init__(f"banded LU hit an exactly zero pivot at index {pivot}")
        self.pivot = pivot


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
    matvec X = B W, M Y = X, Z = C Y, where the mass solves reuse one banded
    LU of M; the gradient unknowns follow from M V = G - B U.  C is the
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
    m_solve = BandedLU(blocks.M).solve
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
