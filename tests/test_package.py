"""Package namespace tests: the public API list stays consistent."""

import numpy as np

import fem_errbal
from fem_errbal.assembly import BandedMatrix, assemble_mixed
from fem_errbal.mesh_basis import LagrangeBasis, build_mesh
from fem_errbal.problem import catalog
from fem_errbal.solvers import BandedLU


def test_all_names_resolve_once():
    names = fem_errbal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fem_errbal, name)]
    assert missing == []


def test_traced_methods_exist():
    # perfbench/tracer.py wraps these methods on their classes by name
    for cls, names in ((LagrangeBasis, ("__init__", "eval")),
                       (BandedMatrix, ("add_at", "matvec")),
                       (BandedLU, ("__init__", "solve"))):
        for name in names:
            assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"
    # and sizes each assembled system from these attributes
    system = assemble_mixed(catalog("bench-poisson"), build_mesh(2), 2)
    assert system.n_unknowns == system.matrix.n == 17
    for array in (system.matrix.ab, system.rhs):
        assert isinstance(array, np.ndarray)
    blocks = system.blocks
    for array in (blocks.M.ab, blocks.B.data, blocks.B.indices, blocks.B.indptr,
                  blocks.G, blocks.H):
        assert isinstance(array, np.ndarray) and array.nbytes > 0
