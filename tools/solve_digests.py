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

The last line, `walks`, is one sha256 over both walks: `prediction_loop`
and `brute_force_sweep` (n_max 20,000, rise_streak 3) on bench-poisson,
bench-diffusion, validation-helmholtz, case1 at c = 100 and bench-poisson
without its closed form, in both formulations, at p = 1..5, for every
variable and the schemes auto and none.  A prediction adds repr of its
status, refinements used, frame, N_opt_real, E_min and N_opt_mesh; a sweep
adds repr of each record; an exception adds its type and message.  The
levels each walk solved are counted beside the digest, not in it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from collections import Counter

import fem_errbal
from fem_errbal.assembly import assemble_mixed, assemble_standard
from fem_errbal import prediction
from fem_errbal.calibration import blas_kernel, poisson_neumann_variant
from fem_errbal.error_analysis import variable_available
from fem_errbal.mesh_basis import build_mesh
from fem_errbal.problem import CATALOG_NAMES, VARIABLES, catalog
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


def walk_problems() -> list:
    stripped = dataclasses.replace(catalog("bench-poisson"), exact_u=None, exact_ux=None,
                                   exact_uxx=None)
    return [catalog("bench-poisson"), catalog("bench-diffusion"),
            catalog("validation-helmholtz"), catalog("case1", 100.0), stripped]


def _outcome(run) -> bytes:
    """repr of run()'s result, or its exception's type and message."""
    try:
        return repr(run()).encode()
    except (ValueError, RuntimeError) as err:
        return f"{type(err).__name__}: {err}".encode()


def walks() -> tuple[str, Counter]:
    """The digest over both walks, and the levels each walk solved."""
    digest, solves = hashlib.sha256(), Counter()
    solve_level = prediction.solve_level
    walk = ""

    def counted(*args, **kwargs):
        solves[walk] += 1
        return solve_level(*args, **kwargs)

    def predict(*args):
        res = prediction.prediction_loop(*args)
        return (res.status, res.refinements_used, res.frame, res.N_opt_real, res.E_min,
                res.N_opt_mesh)

    def sweep(*args):
        return prediction.brute_force_sweep(*args, n_max=20_000, rise_streak=3).records

    prediction.solve_level = counted
    try:
        for spec, flavor, p, var, scheme in itertools.product(
                walk_problems(), ASSEMBLE, range(1, 6), VARIABLES, ("auto", "none")):
            if variable_available(flavor, var, p):
                for walk, run in (("predict", predict), ("sweep", sweep)):
                    digest.update(_outcome(lambda: run(spec, flavor, p, var, scheme)))
    finally:
        prediction.solve_level = solve_level
    return digest.hexdigest(), solves


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
    digest, walk_solves = walks()
    print(f"{'walks':20s} {digest}  {walk_solves['predict']:4d} predict solves  "
          f"{walk_solves['sweep']:4d} sweep solves")


if __name__ == "__main__":
    main()
