"""Dense views of band storage for checks on small systems.

Built on `BandedMatrix.ab`, `BandedMatrix.add_at` and the factors a `BandedLU`
keeps, so the package itself needs no dense or inspection API.
"""

import numpy as np

from fem_errbal.assembly import BandedMatrix


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
