"""One sha256 per solver path over the catalog's solutions, to show that a
change moved no bit of any solve.

    PYTHONPATH=src python3 tools/solve_digests.py

It hashes the `fem_errbal` on the import path, so two checkouts compare by
running this script once with each one's `src` on PYTHONPATH.  The problems
are every catalog problem, case1..case5 at coefficients 0.01, 1 and 100, and
`calibration.poisson_neumann_variant()`, each at p = 1..5.  Each system is
assembled unscaled and solved through `solve_system`:

  lu standard real / complex   levels 0, 3, 6, 9, by the problem's dtype
  lu mixed real / complex      levels 0, 3, 6, 9
  cg                           real standard systems, levels 0, 3, 6
  schur                        real mixed systems, levels 0, 3, 6

A solve adds its solution's bytes, its iteration count and repr of its
relative residual to its path's hash; a refusal adds its exception's type
and message.  It prints the arithmetic first, as the banded LU's bytes
depend on the BLAS kernel, then per path the digest, the number of solves
and how many of them were refused.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import fem_errbal
from fem_errbal.assembly import assemble_mixed, assemble_standard
from fem_errbal.calibration import blas_kernel, poisson_neumann_variant
from fem_errbal.mesh_basis import build_mesh
from fem_errbal.problem import CATALOG_NAMES, catalog
from fem_errbal.solvers import solve_system

LU_LEVELS, ITERATIVE_LEVELS = (0, 3, 6, 9), (0, 3, 6)
ASSEMBLE = {"standard": assemble_standard, "mixed": assemble_mixed}


def problems() -> list:
    specs = [catalog(name, c) for name in CATALOG_NAMES
             for c in ((0.01, 1.0, 100.0) if name.startswith("case") else (None,))]
    return specs + [poisson_neumann_variant()]


def paths(spec) -> list[tuple[str, str, str, tuple[int, ...]]]:
    """(path, flavor, solver, levels) of every path the problem takes."""
    kind = "complex" if spec.complex_valued else "real"
    out = [(f"lu {flavor} {kind}", flavor, "lu", LU_LEVELS) for flavor in ASSEMBLE]
    if not spec.complex_valued:
        out += [("cg", "standard", "cg", ITERATIVE_LEVELS),
                ("schur", "mixed", "schur", ITERATIVE_LEVELS)]
    return out


def main() -> None:
    digests, solves, refused = {}, Counter(), Counter()
    for spec in problems():
        for path, flavor, solver, levels in paths(spec):
            digest = digests.setdefault(path, hashlib.sha256())
            for p in range(1, 6):
                for level in levels:
                    system = ASSEMBLE[flavor](spec, build_mesh(level), p)
                    try:
                        report = solve_system(system, solver)
                    except (ValueError, RuntimeError) as err:
                        digest.update(f"{type(err).__name__}: {err}".encode())
                        refused[path] += 1
                    else:
                        digest.update(report.x.tobytes())
                        digest.update(f"{report.iterations} {report.rel_residual!r}".encode())
                    solves[path] += 1
    print(f"fem_errbal {fem_errbal.__file__}  blas_kernel={blas_kernel()}")
    for path, digest in digests.items():
        print(f"{path:20s} {digest.hexdigest()}  {solves[path]:4d} solves  "
              f"{refused[path]:3d} refused")


if __name__ == "__main__":
    main()
