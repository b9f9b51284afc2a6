"""Package namespace tests: the public API list stays consistent."""

import fem_errbal
from fem_errbal.assembly import BandedMatrix
from fem_errbal.mesh_basis import LagrangeBasis
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
