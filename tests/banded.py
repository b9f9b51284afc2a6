"""Dense views of band storage, a scan for identity rows, a block view
sliced from the dense matrix, and a reference assembly with the global index
tables it scatters through, for checks on small systems.

Built on `BandedMatrix.ab`, `BandedMatrix.add_at` and the factors a `BandedLU`
keeps, so the package itself needs no dense or inspection API.
"""

import numpy as np
import scipy.sparse as sp

from fem_errbal.assembly import BandedMatrix, SaddleBlocks, _cell_integrals, eliminate_dirichlet
from fem_errbal.mesh_basis import basis_table, gauss_legendre_rule, reference_integral


def _dense(ab: np.ndarray, r0: int) -> np.ndarray:
    """Dense matrix of a band array whose main diagonal is stored in row r0."""
    n = ab.shape[1]
    k, j = np.indices(ab.shape)
    i = j + k - r0
    inside = (i >= 0) & (i < n)
    a = np.zeros((n, n), dtype=ab.dtype)
    a[i[inside], j[inside]] = ab[inside]
    return a


def to_dense(mat: BandedMatrix) -> np.ndarray:
    return _dense(mat.ab, mat.kl + mat.ku)


def from_dense(a: np.ndarray, kl: int, ku: int) -> BandedMatrix:
    mat = BandedMatrix(a.shape[0], kl, ku, dtype=a.dtype)
    rows, cols = np.nonzero(a)
    mat.add_at(rows, cols, a[rows, cols])
    return mat


def identity_rows(mat: BandedMatrix) -> np.ndarray:
    """Mask of the rows that are identities: a unit diagonal and no other
    entry in the row or the column.  The summed terms are absolute values,
    so the zero test does not depend on the order of summation."""
    r0 = mat.kl + mat.ku
    off = np.abs(mat.ab)
    off[r0] = 0.0
    rows = np.arange(mat.n) + (np.arange(off.shape[0]) - r0)[:, None]  # row of each entry
    inside = (rows >= 0) & (rows < mat.n)
    row_sums = np.bincount(rows[inside], weights=off[inside], minlength=mat.n)
    return (mat.ab[r0] == 1.0) & (row_sums + off.sum(axis=0) == 0.0)


def reconstruct(factor) -> np.ndarray:
    """The matrix a BandedLU factored, rebuilt from U by undoing each elimination
    step and row interchange, last step first.  The multipliers below the
    diagonal are LAPACK's, which later interchanges do not permute."""
    lu = _dense(factor._lu, factor.kl + factor.ku)
    a = np.triu(lu)
    for j in range(factor.n - 1, -1, -1):
        a[j + 1 :] += np.outer(lu[j + 1 :, j], a[j])
        pj = factor._ipiv[j]  # zero-based
        if pj != j:
            a[[j, pj]] = a[[pj, j]]
    return a


def cell_dofs(p: int, t: int) -> np.ndarray:
    """Global indices of each cell's p+1 continuous unknowns, shape (t, p+1)."""
    return np.arange(t)[:, None] * p + np.arange(p + 1)[None, :]


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


def dense_blocks(system) -> SaddleBlocks:
    """The block view of a real mixed system sliced from its dense matrix: M's
    band from the v-v slice, B and C as the CSR matrices of their slices (no
    zero entries, columns ascending), pure_saddle as R == 0 and C == B^T."""
    p, t = system.p, system.mesh.cell_count
    a = to_dense(system.matrix)
    v, u = mixed_v_positions(p, t), mixed_u_positions(p, t).ravel()
    b, c = a[np.ix_(v, u)], a[np.ix_(u, v)]
    pure_saddle = not a[np.ix_(u, u)].any() and np.array_equal(c, b.T)
    return SaddleBlocks(M=from_dense(a[np.ix_(v, v)], p, p), B=sp.csr_matrix(b), C=sp.csr_matrix(c),
                        G=system.rhs[v], H=system.rhs[u], pure_saddle=pure_saddle, pos_v=v, pos_u=u)


def _scatter(mat: BandedMatrix, row_dofs: np.ndarray, col_dofs: np.ndarray, values: np.ndarray) -> None:
    """np.add.at of per-cell blocks over full (cells, a, b) index tables."""
    shape = (row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1])
    rows = np.broadcast_to(row_dofs[:, :, None], shape)
    cols = np.broadcast_to(col_dofs[:, None, :], shape)
    mat.add_at(rows.ravel(), cols.ravel(), np.broadcast_to(values, shape).ravel())


def add_at_assembly(spec, mesh, p: int, flavor: str):
    """(ab, rhs) of `assemble_standard` or `assemble_mixed`, with every cell
    block and load vector scattered by np.add.at over global index tables,
    the way the package assembled them before it used strided slices."""
    n_quad = p + 2
    quad = gauss_legendre_rule(n_quad)
    t, h = mesh.cell_count, mesh.h
    dtype = complex if spec.complex_valued else float
    x_q = (np.arange(t)[:, None] + quad.points[None, :]) * h
    coef = {name: np.asarray(getattr(spec, name)(x_q), dtype=dtype) for name in ("D", "D_x", "r", "f")}
    phi, dphi, psi = (p, True, 0), (p, True, 1), (p - 1, False, 0)

    def integrals(name, a, b):
        return _cell_integrals(coef[name], quad.weights, n_quad, a, b)

    if flavor == "standard":
        m = p * t + 1
        ke = -(1.0 / h) * integrals("D", dphi, dphi)
        if np.any(coef["r"] != 0):
            ke = ke + h * integrals("r", phi, phi)
        fe = h * np.einsum("cq,qi->ci", quad.weights[None, :] * coef["f"], basis_table(p, True, n_quad, 0))
        gdof = cell_dofs(p, t)
        mat = BandedMatrix(m, p, p, dtype=dtype)
        _scatter(mat, gdof, gdof, ke)
        rhs = np.zeros(m, dtype=dtype)
        np.add.at(rhs, gdof.ravel(), fe.ravel())
        for bc in (spec.bc_left, spec.bc_right):
            if bc.kind == "neumann":
                bdof = 0 if bc.side == "left" else m - 1
                rhs[bdof] -= np.asarray(spec.D(np.array([bc.location])), dtype=dtype)[0] * bc.value * bc.normal
        for bc in (spec.bc_left, spec.bc_right):
            if bc.kind == "dirichlet":
                eliminate_dirichlet(mat, rhs, 0 if bc.side == "left" else m - 1, bc.value)
    else:
        total = 2 * p * t + 1
        me = h * reference_integral(phi, phi)
        be = -reference_integral(psi, dphi).T
        ce = -(h * integrals("D_x", psi, phi) + integrals("D", psi, dphi))
        he = h * np.einsum("cq,qe->ce", quad.weights[None, :] * coef["f"], basis_table(p - 1, False, n_quad, 0))
        pos_v, pos_u = mixed_v_positions(p, t), mixed_u_positions(p, t)
        vcell = pos_v[cell_dofs(p, t)]
        mat = BandedMatrix(total, 2 * p, 2 * p, dtype=dtype)
        _scatter(mat, vcell, vcell, me)
        _scatter(mat, vcell, pos_u, be)
        _scatter(mat, pos_u, vcell, ce)
        if np.any(coef["r"] != 0):
            _scatter(mat, pos_u, pos_u, h * integrals("r", psi, psi))
        rhs = np.zeros(total, dtype=dtype)
        np.add.at(rhs, pos_u.ravel(), he.ravel())
        for bc in (spec.bc_left, spec.bc_right):
            v_pos = int(pos_v[0 if bc.side == "left" else -1])
            if bc.kind == "dirichlet":
                rhs[v_pos] += -bc.value * bc.normal
            else:
                eliminate_dirichlet(mat, rhs, v_pos, -bc.value)
    return mat.ab, rhs
