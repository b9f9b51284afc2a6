"""Package namespace tests: the public API list stays consistent."""

import fem_errbal


def test_all_names_resolve_once():
    names = fem_errbal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fem_errbal, name)]
    assert missing == []
