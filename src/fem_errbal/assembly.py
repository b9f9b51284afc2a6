"""Discrete linear systems for the standard and mixed formulations.

Matrices live in LAPACK-compatible band storage, and this module alone
indexes it: the solvers go through `BandedMatrix.matvec` for a single
product, through `BandedMatrix.operator`, the one sparse form of the band,
for CG's products and for the block view `LinearSystem.blocks`, and the
banded LU hands the array to LAPACK as it is.  Each system records the rows
that strong boundary elimination made identities
(`LinearSystem.constrained`), so no solver has to find them in the band.
Complex-coefficient problems are assembled, constrained and stored in
complex arithmetic: the band's dtype is the one record of whether a system
is complex, and the banded LU factors it in that dtype.

Weak statements, with n the outward normal and (.,.) the L2 pairing:

  standard:  -(eta_x, D u_x) + (eta, r u) = (eta, f) - (eta, D h n)_GN
             Dirichlet data strong: identity row + symmetric column purge.
  mixed:     v = -u_x;  (w, v) - (w_x, u) = -(w, g n)_GD
             -(q, D_x v) - (q, D v_x) + (q, r u) = (q, f)
             Neumann data enters the v-space strongly (v = -h), Dirichlet data
             only through the first equation's right-hand side.

The mixed unknowns are interleaved cell by cell so the monolithic matrix stays
banded; the segregated solver's block (M, B, C, ...) view is sliced from the
band's sparse form on each access, so there is one copy of the system.

Assembly never scales the matrix or the right-hand side; the frame that
errors are measured in belongs to the prediction module.

Cell blocks go into the band by strided slices: cell c's unknowns sit at a
fixed stride times c plus a per-cell offset, so one slice-add per local pair
(i, j) covers every cell.  Within a slice the cells hit distinct slots, and a
slot gets at most two addends (the diagonal of a shared vertex), so the sums
do not depend on the order of the adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh_basis import Mesh, basis_table, gauss_legendre_rule, reference_integral
from .problem import ProblemSpec


class BandedMatrix:
    """Square banded matrix of order n with kl sub- and ku superdiagonals.

    Storage has 2*kl + ku + 1 rows: entry A[i, j] sits at ab[kl + ku + i - j, j]
    and the top kl rows are workspace for pivoting fill-in during LU.
    """

    __slots__ = ("n", "kl", "ku", "ab")

    def __init__(self, n: int, kl: int, ku: int, dtype=np.float64):
        if n < 1 or kl < 0 or ku < 0:
            raise ValueError("invalid band dimensions")
        self.n = n
        self.kl = kl
        self.ku = ku
        self.ab = np.zeros((2 * kl + ku + 1, n), dtype=dtype)

    def add_at(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add; duplicate (row, col) pairs accumulate."""
        np.add.at(self.ab, (self.kl + self.ku + rows - cols, cols), values)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n, dtype=np.result_type(self.ab.dtype, x.dtype))
        r0 = self.kl + self.ku
        for d in range(-self.kl, self.ku + 1):
            lo = max(0, d)
            hi = self.n + min(0, d)
            if hi > lo:
                y[lo - d : hi - d] += self.ab[r0 - d, lo:hi] * x[lo:hi]
        return y

    def operator(self) -> sp.dia_matrix:
        """The matrix as a DIA operator, for many products with it.

        It holds its own copy of the kl + ku + 1 stored diagonals in ascending
        offset order, the order in which `matvec` adds them, so each row sum
        of a real product rounds as `matvec`'s does.  Negating its data in
        place is exact: the product is then -matvec(x) bit for bit, but for
        the sign of an exactly zero entry.  A complex product can differ from
        `matvec`'s in its last bit where numpy's complex multiply fuses
        (FMA); this one rounds each real product.
        """
        data = self.ab[self.kl :][::-1].copy()
        return sp.dia_matrix((data, np.arange(-self.kl, self.ku + 1)), shape=(self.n, self.n))


def eliminate_dirichlet(mat: BandedMatrix, rhs: np.ndarray, index: int, value) -> None:
    """Impose x[index] = value by identity-row substitution plus column purge.

    The purge moves the known value to the right-hand side and zeroes the
    column, which keeps a symmetric matrix symmetric.
    """
    r0 = mat.kl + mat.ku
    rows = np.arange(max(0, index - mat.ku), min(mat.n, index + mat.kl + 1))
    rhs[rows] -= mat.ab[r0 + rows - index, index] * value
    mat.ab[r0 + rows - index, index] = 0.0
    cols = np.arange(max(0, index - mat.kl), min(mat.n, index + mat.ku + 1))
    mat.ab[r0 + index - cols, cols] = 0.0
    mat.ab[r0, index] = 1.0
    rhs[index] = value


# --- degree-of-freedom layouts -------------------------------------------------

def _add_cell_blocks(mat: BandedMatrix, values: np.ndarray, rows, cols, stride: int, t: int) -> None:
    """Add values[..., i, j] at (stride*c + rows[i], stride*c + cols[j]) for cells c < t.

    values is one (a, b) block shared by all cells or a (t, a, b) stack.
    """
    r0 = mat.kl + mat.ku
    for i, ri in enumerate(rows):
        for j, cj in enumerate(cols):
            mat.ab[r0 + ri - cj, cj : cj + stride * t : stride] += values[..., i, j]


def mixed_v_positions(p: int, t: int) -> np.ndarray:
    """Monolithic position of each continuous v unknown (block index 0..p*t)."""
    pos = np.empty(p * t + 1, dtype=np.int64)
    pos[0] = 0
    k = np.arange(1, p * t + 1)
    c = (k - 1) // p
    pos[k] = 2 * p * c + p + (k - c * p)
    return pos

def mixed_u_positions(p: int, t: int) -> np.ndarray:
    """Monolithic position of each discontinuous u unknown, shape (t, p)."""
    c = np.arange(t)[:, None]
    e = np.arange(p)[None, :]
    return 2 * p * c + 1 + e



@dataclass
class SaddleBlocks:
    """Block view of a real mixed system: M V + B U = G, C V + R U = H.

    pure_saddle means R = 0 and C = B^T exactly, which is what the
    segregated Schur path requires: with D = 1 and r = 0 both blocks are
    the same exactly rounded reference integrals.
    """

    M: BandedMatrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    G: np.ndarray
    H: np.ndarray
    pure_saddle: bool
    pos_v: np.ndarray  # monolithic position of each V and each U unknown
    pos_u: np.ndarray


@dataclass
class LinearSystem:
    matrix: BandedMatrix
    rhs: np.ndarray
    constrained: np.ndarray  # rows that strong elimination made identities
    flavor: str  # 'standard' | 'mixed'
    p: int
    mesh: Mesh

    @property
    def complex_valued(self) -> bool:
        return np.iscomplexobj(self.matrix.ab)

    @property
    def n_unknowns(self) -> int:
        return self.matrix.n

    @property
    def blocks(self) -> Optional[SaddleBlocks]:
        """Block view of a real mixed system, sliced from the band; None otherwise."""
        if self.flavor != "mixed" or self.complex_valued:
            return None
        p, t = self.p, self.mesh.cell_count
        pos_v, pos_u = mixed_v_positions(p, t), mixed_u_positions(p, t).ravel()
        a = self.matrix.operator().tocsr()  # drops the band's zeros
        a_v, a_u = a[pos_v], a[pos_u]
        b_block, c_block = a_v[:, pos_u], a_u[:, pos_v]
        m_dia = a_v[:, pos_v].todia()
        m_block = BandedMatrix(pos_v.size, p, p)
        m_block.ab[2 * p - m_dia.offsets] = m_dia.data
        pure_saddle = a_u[:, pos_u].nnz == 0 and (c_block != b_block.T).nnz == 0
        return SaddleBlocks(M=m_block, B=b_block, C=c_block, G=self.rhs[pos_v],
                            H=self.rhs[pos_u], pure_saddle=pure_saddle, pos_v=pos_v, pos_u=pos_u)


def _cell_integrals(coef: np.ndarray, weights: np.ndarray, n_quad: int, a: tuple, b: tuple) -> np.ndarray:
    """Integrals of coef * a_i * b_j over every reference cell.

    a and b name basis derivatives as (degree, continuous, order).  A
    coefficient that is constant over the mesh scales the exactly rounded
    reference integrals and gives one (na, nb) matrix for all cells; otherwise
    per-cell quadrature gives shape (cells, na, nb).
    """
    c0 = coef.flat[0]
    if np.all(coef == c0):
        return c0 * reference_integral(a, b)
    ta = basis_table(a[0], a[1], n_quad, a[2])
    tb = basis_table(b[0], b[1], n_quad, b[2])
    return np.einsum("cq,qi,qj->cij", weights[None, :] * coef, ta, tb)


def _cell_loads(spec: ProblemSpec, mesh: Mesh, x_q: np.ndarray, weights: np.ndarray,
                table: np.ndarray, dtype) -> np.ndarray:
    """Integrals of f times each basis function of `table` over every cell, shape (cells, nb).

    f is evaluated and weighted one block of cells at a time
    (`Mesh.cell_blocks`); each cell's sum rounds as on the whole mesh.
    """
    fe = np.empty((mesh.cell_count, table.shape[1]), dtype=dtype)
    for cells in mesh.cell_blocks():
        fv = np.asarray(spec.f(x_q[cells]), dtype=dtype)
        np.einsum("cq,qi->ci", weights[None, :] * fv, table, out=fe[cells])
    fe *= mesh.h
    return fe


# --- standard formulation ------------------------------------------------------

def assemble_standard(spec: ProblemSpec, mesh: Mesh, p: int) -> LinearSystem:
    n_quad = p + 2
    quad = gauss_legendre_rule(n_quad)
    t, h = mesh.cell_count, mesh.h
    m = p * t + 1
    dtype = complex if spec.complex_valued else float
    phi, dphi = (p, True, 0), (p, True, 1)
    x_q = mesh.quadrature_points(quad.points)

    dv = np.asarray(spec.D(x_q), dtype=dtype)
    ke = -(1.0 / h) * _cell_integrals(dv, quad.weights, n_quad, dphi, dphi)
    rv = np.asarray(spec.r(x_q), dtype=dtype)
    if np.any(rv != 0):
        ke = ke + h * _cell_integrals(rv, quad.weights, n_quad, phi, phi)
    fe = _cell_loads(spec, mesh, x_q, quad.weights, basis_table(p, True, n_quad, 0), dtype)

    mat = BandedMatrix(m, p, p, dtype=dtype)
    local = range(p + 1)
    _add_cell_blocks(mat, ke, local, local, p, t)
    rhs = np.zeros(m, dtype=dtype)
    for i in local:
        rhs[i : i + p * t : p] += fe[:, i]

    # boundary terms; basis values at the endpoints are exact Kronecker deltas.
    # Neumann loads go in before any Dirichlet elimination touches the rhs
    ends = [(bc, 0 if bc.side == "left" else m - 1) for bc in (spec.bc_left, spec.bc_right)]
    for bc, bdof in ends:
        if bc.kind == "neumann":
            d_here = np.asarray(spec.D(np.array([bc.location])), dtype=dtype)[0]
            rhs[bdof] -= d_here * bc.value * bc.normal
    constrained = []
    for bc, bdof in ends:
        if bc.kind == "dirichlet":
            eliminate_dirichlet(mat, rhs, bdof, bc.value)
            constrained.append(bdof)

    return LinearSystem(matrix=mat, rhs=rhs, constrained=np.array(constrained, dtype=np.int64),
                        flavor="standard", p=p, mesh=mesh)


# --- mixed formulation ---------------------------------------------------------

def assemble_mixed(spec: ProblemSpec, mesh: Mesh, p: int) -> LinearSystem:
    # continuous space carrying v, discontinuous space carrying u, as
    # (degree, continuous, derivative order)
    phi, dphi, psi = (p, True, 0), (p, True, 1), (p - 1, False, 0)
    n_quad = p + 2
    quad = gauss_legendre_rule(n_quad)
    t, h = mesh.cell_count, mesh.h
    total = 2 * p * t + 1
    dtype = complex if spec.complex_valued else float
    x_q = mesh.quadrature_points(quad.points)

    me = h * reference_integral(phi, phi)
    be = -reference_integral(psi, dphi).T                                # (p+1, p)
    dv = np.asarray(spec.D(x_q), dtype=dtype)
    dxv = np.asarray(spec.D_x(x_q), dtype=dtype)
    # -(q, D_x v) - (q, D v_x); the 1/h of the physical derivative cancels h dx
    ce = -(
        h * _cell_integrals(dxv, quad.weights, n_quad, psi, phi)
        + _cell_integrals(dv, quad.weights, n_quad, psi, dphi)
    )
    rv = np.asarray(spec.r(x_q), dtype=dtype)
    he = _cell_loads(spec, mesh, x_q, quad.weights, basis_table(p - 1, False, n_quad, 0), dtype)

    # cell c holds v at 2pc + v_off and u at 2pc + u_off
    v_off = [0, *range(p + 1, 2 * p + 1)]
    u_off = range(1, p + 1)
    mat = BandedMatrix(total, 2 * p, 2 * p, dtype=dtype)
    _add_cell_blocks(mat, me, v_off, v_off, 2 * p, t)
    _add_cell_blocks(mat, be, v_off, u_off, 2 * p, t)
    _add_cell_blocks(mat, ce, u_off, v_off, 2 * p, t)
    if np.any(rv != 0):
        re = h * _cell_integrals(rv, quad.weights, n_quad, psi, psi)
        _add_cell_blocks(mat, re, u_off, u_off, 2 * p, t)
    rhs = np.zeros(total, dtype=dtype)
    rhs[mixed_u_positions(p, t)] = he

    # Dirichlet data is natural here: G_k = -(w_k, g n) on the Dirichlet ends;
    # Neumann data is essential on the v space: v = -h on that end
    constrained = []
    for bc in (spec.bc_left, spec.bc_right):
        v_pos = 0 if bc.side == "left" else total - 1
        if bc.kind == "dirichlet":
            rhs[v_pos] += -bc.value * bc.normal
        else:
            eliminate_dirichlet(mat, rhs, v_pos, -bc.value)
            constrained.append(v_pos)

    return LinearSystem(matrix=mat, rhs=rhs, constrained=np.array(constrained, dtype=np.int64),
                        flavor="mixed", p=p, mesh=mesh)


# --- coefficient extraction ----------------------------------------------------

def extract_standard_coeffs(x: np.ndarray, system: LinearSystem) -> np.ndarray:
    """Per-cell nodal coefficients of the standard solution, shape (t, p+1).

    Row c is x[pc : pc + p + 1], copied from strided views of x.
    """
    p, t = system.p, system.mesh.cell_count
    coeffs = np.empty((t, p + 1), dtype=x.dtype)
    coeffs[:, :p] = x[:-1].reshape(t, p)
    coeffs[:, p] = x[p::p]
    return coeffs


def extract_mixed_coeffs(x: np.ndarray, system: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (v, u) coefficients of the mixed solution: (t, p+1) and (t, p).

    Cell c's unknowns are x[2pc : 2pc + 2p + 1], v at offsets 0 and p+1..2p
    and u at 1..p (see `assemble_mixed`); both are copied from strided views.
    """
    p, t = system.p, system.mesh.cell_count
    cell = x[:-1].reshape(t, 2 * p)
    v = np.empty((t, p + 1), dtype=x.dtype)
    v[:, 0] = cell[:, 0]
    v[:, 1:p] = cell[:, p + 1 :]
    v[:, p] = x[2 * p :: 2 * p]
    return v, cell[:, 1 : p + 1].copy()
