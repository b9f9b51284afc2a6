"""Discrete linear systems for the standard and mixed formulations.

Matrices live in LAPACK-compatible band storage, and this module alone
indexes it: the solvers go through `BandedMatrix.matvec` for a single
product, through `BandedMatrix.operator`, the one sparse form of the band,
for CG's products, and through `DofLayout.gather_blocks` for per-cell blocks
(the block view `LinearSystem.blocks` and the condensed mass solve), and the
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

One table, `_layout`, gives each formulation's stride and fields, with each
field's basis and the offsets of its unknowns in a cell: cell c's unknown i
sits at stride * c + offset i, and the mixed v and u interleave so the band
stays narrow.  Each system keeps its layout (`LinearSystem.layout`).  The
block (M, B, C, ...) view is gathered from the band cell by cell on each
access, so there is one copy of the system.

Assembly never scales the matrix or the right-hand side; the frame that
errors are measured in belongs to the prediction module.

Cell blocks go into the band by strided slices, one slice-add per local pair
(i, j) covering every cell.  Within a slice the cells hit distinct slots, and
a slot gets at most two addends (the diagonal of a shared vertex), so the
sums do not depend on the order of the adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

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

class FieldSpace(NamedTuple):
    """One unknown field: the basis it is expanded in and its unknowns' offsets in a cell."""

    basis: tuple[int, bool]  # (degree, continuous)
    offsets: tuple[int, ...]


class DofLayout(NamedTuple):
    """Cell c's unknown i of a field sits at stride * c + offsets[i]."""

    stride: int
    cells: int
    fields: dict[str, FieldSpace]

    def end(self, side: str) -> int:
        return 0 if side == "left" else self.stride * self.cells

    def slots(self, offset: int) -> slice:
        """The unknown at this offset in every cell."""
        return slice(offset, offset + self.stride * self.cells, self.stride)

    def empty_system(self, dtype) -> tuple[BandedMatrix, np.ndarray]:
        """Zero band and right-hand side; a cell couples unknowns at most stride apart."""
        n = self.stride * self.cells + 1
        return BandedMatrix(n, self.stride, self.stride, dtype=dtype), np.zeros(n, dtype=dtype)

    def positions(self, name: str) -> np.ndarray:
        """Position of each of the field's unknowns, numbered cell by cell."""
        field = self.fields[name]
        pos = self.stride * np.arange(self.cells)[:, None] + np.array(field.offsets)
        # a continuous field's first unknown in a cell is the last one of the cell before
        return np.concatenate(([0], pos[:, 1:].ravel())) if field.basis[1] else pos.ravel()

    def add_blocks(self, mat: BandedMatrix, values: np.ndarray, rows: FieldSpace,
                   cols: FieldSpace) -> None:
        """Add values[..., i, j] at every cell's (rows' i-th, cols' j-th) unknown pair.

        values is one (a, b) block shared by all cells or a (cells, a, b) stack.
        """
        r0, last = mat.kl + mat.ku, self.stride * self.cells
        for i, ri in enumerate(rows.offsets):
            for j, cj in enumerate(cols.offsets):
                mat.ab[r0 + ri - cj, cj : cj + last : self.stride] += values[..., i, j]

    def gather_blocks(self, mat: BandedMatrix, rows: FieldSpace, cols: FieldSpace) -> np.ndarray:
        """Every cell's (rows' i-th, cols' j-th) band entries as a (cells, a, b) stack.

        The mirror of `add_blocks`: a slot that two cells share (the diagonal
        of a shared vertex) reads its assembled sum in both.  The stack is a
        view of a C-ordered (a, b, cells) array, one strided copy per pair.
        """
        r0, last = mat.kl + mat.ku, self.stride * self.cells
        out = np.empty((len(rows.offsets), len(cols.offsets), self.cells), dtype=mat.ab.dtype)
        for i, ri in enumerate(rows.offsets):
            for j, cj in enumerate(cols.offsets):
                out[i, j] = mat.ab[r0 + ri - cj, cj : cj + last : self.stride]
        return out.transpose(2, 0, 1)

    def add_loads(self, rhs: np.ndarray, values: np.ndarray, field: FieldSpace) -> None:
        """Put values[c, i] at cell c's i-th unknown of the field; shared vertices sum."""
        for i, o in enumerate(field.offsets):
            s = self.slots(o)
            rhs[s] = rhs[s] + values[:, i] if field.basis[1] else values[:, i]


def _layout(flavor: str, p: int, cells: int) -> DofLayout:
    """Each formulation's fields and stride, the one statement of the interleaving."""
    if flavor == "standard":
        return DofLayout(p, cells, {"u": FieldSpace((p, True), tuple(range(p + 1)))})
    return DofLayout(2 * p, cells, {"v": FieldSpace((p, True), (0, *range(p + 1, 2 * p + 1))),
                                    "u": FieldSpace((p - 1, False), tuple(range(1, p + 1)))})


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
    layout: DofLayout  # where each field's unknowns sit, from `_layout`

    @property
    def complex_valued(self) -> bool:
        return np.iscomplexobj(self.matrix.ab)

    @property
    def n_unknowns(self) -> int:
        return self.matrix.n

    @property
    def blocks(self) -> Optional[SaddleBlocks]:
        """Block view of a real mixed system, gathered from the band cell by cell; else None."""
        if self.flavor != "mixed" or self.complex_valued:
            return None
        layout, p, mat = self.layout, self.p, self.matrix
        v, u = layout.fields["v"], layout.fields["u"]
        vv, vu, uv = (layout.gather_blocks(mat, a, b) for a, b in ((v, v), (v, u), (u, v)))
        pure_saddle = (not layout.gather_blocks(mat, u, u).any()
                       and np.array_equal(uv, vu.transpose(0, 2, 1)))
        n_v, n_u = p * layout.cells + 1, p * layout.cells
        m_block = BandedMatrix(n_v, p, p)  # v couples within one cell
        r0 = m_block.kl + m_block.ku
        for i in range(p + 1):
            for j in range(p + 1):  # a shared vertex's diagonal gets its one value twice
                m_block.ab[r0 + i - j, j : j + n_u : p] = vv[:, i, j]
        # cell c's u unknowns are columns pc .. pc + p - 1 of B, its v unknowns
        # columns pc .. pc + p of C.  The cells' rows of B in turn are B's rows,
        # but for a shared vertex, whose row holds the left cell's entries, then
        # the right cell's: each row's columns ascend
        index = np.int32 if vu.size < 2**31 else np.int64
        first = p * np.arange(layout.cells, dtype=index)[:, None, None]
        b_cols = np.repeat(first + np.arange(p, dtype=index), p + 1, axis=1)
        c_cols = np.repeat(first + np.arange(p + 1, dtype=index), p, axis=1)
        rows = np.arange(n_v + 1, dtype=index)
        b_ptr = p * (rows + (rows - 1) // p)  # p per row above, p more per shared vertex
        b_ptr[0], b_ptr[-1] = 0, vu.size
        c_ptr = (p + 1) * np.arange(n_u + 1, dtype=index)
        b_block = sp.csr_matrix((vu.ravel(), b_cols.ravel(), b_ptr), shape=(n_v, n_u))
        c_block = sp.csr_matrix((uv.ravel(), c_cols.ravel(), c_ptr), shape=(n_u, n_v))
        # the band's zeros, such as those of an eliminated v row, are no entries
        b_block.eliminate_zeros()
        c_block.eliminate_zeros()
        pos_v, pos_u = layout.positions("v"), layout.positions("u")
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
                field: FieldSpace, dtype) -> np.ndarray:
    """Integrals of f times each basis function of the field over every cell, shape (cells, nb).

    f is evaluated and weighted one block of cells at a time
    (`Mesh.cell_blocks`); each cell's sum rounds as on the whole mesh.
    """
    table = basis_table(*field.basis, weights.size, 0)
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
    dtype = complex if spec.complex_valued else float
    layout = _layout("standard", p, t)
    u = layout.fields["u"]
    phi, dphi = (*u.basis, 0), (*u.basis, 1)
    x_q = mesh.quadrature_points(quad.points)

    dv = np.asarray(spec.D(x_q), dtype=dtype)
    ke = -(1.0 / h) * _cell_integrals(dv, quad.weights, n_quad, dphi, dphi)
    rv = np.asarray(spec.r(x_q), dtype=dtype)
    if np.any(rv != 0):
        ke = ke + h * _cell_integrals(rv, quad.weights, n_quad, phi, phi)
    fe = _cell_loads(spec, mesh, x_q, quad.weights, u, dtype)

    mat, rhs = layout.empty_system(dtype)
    layout.add_blocks(mat, ke, u, u)
    layout.add_loads(rhs, fe, u)

    # boundary terms; basis values at the endpoints are exact Kronecker deltas.
    # Neumann loads go in before any Dirichlet elimination touches the rhs
    ends = [(bc, layout.end(bc.side)) for bc in (spec.bc_left, spec.bc_right)]
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
                        flavor="standard", p=p, mesh=mesh, layout=layout)


# --- mixed formulation ---------------------------------------------------------

def assemble_mixed(spec: ProblemSpec, mesh: Mesh, p: int) -> LinearSystem:
    n_quad = p + 2
    quad = gauss_legendre_rule(n_quad)
    t, h = mesh.cell_count, mesh.h
    dtype = complex if spec.complex_valued else float
    layout = _layout("mixed", p, t)
    v, u = layout.fields["v"], layout.fields["u"]
    phi, dphi, psi = (*v.basis, 0), (*v.basis, 1), (*u.basis, 0)
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
    he = _cell_loads(spec, mesh, x_q, quad.weights, u, dtype)

    mat, rhs = layout.empty_system(dtype)
    layout.add_blocks(mat, me, v, v)
    layout.add_blocks(mat, be, v, u)
    layout.add_blocks(mat, ce, u, v)
    if np.any(rv != 0):
        layout.add_blocks(mat, h * _cell_integrals(rv, quad.weights, n_quad, psi, psi), u, u)
    layout.add_loads(rhs, he, u)

    # Dirichlet data is natural here: G_k = -(w_k, g n) on the Dirichlet ends;
    # Neumann data is essential on the v space: v = -h on that end
    constrained = []
    for bc in (spec.bc_left, spec.bc_right):
        v_pos = layout.end(bc.side)
        if bc.kind == "dirichlet":
            rhs[v_pos] += -bc.value * bc.normal
        else:
            eliminate_dirichlet(mat, rhs, v_pos, -bc.value)
            constrained.append(v_pos)

    return LinearSystem(matrix=mat, rhs=rhs, constrained=np.array(constrained, dtype=np.int64),
                        flavor="mixed", p=p, mesh=mesh, layout=layout)


# --- coefficient extraction ----------------------------------------------------

def cell_coefficients(x: np.ndarray, system: LinearSystem, field: str) -> np.ndarray:
    """Per-cell coefficients of one field ('u', or the mixed 'v') of a solution x.

    Shape (cells, local unknowns), C-ordered; column i is one strided copy of x.
    """
    layout = system.layout
    offsets = layout.fields[field].offsets
    coeffs = np.empty((layout.cells, len(offsets)), dtype=x.dtype)
    for i, o in enumerate(offsets):
        coeffs[:, i] = x[layout.slots(o)]
    return coeffs
