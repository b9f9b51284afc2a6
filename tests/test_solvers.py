"""Solver tests: banded LU against frozen and dense oracles, the factorization
residual PA = LU, the condensed standard solve against dense solves and
across arithmetic settings, CG on the positive definite standard operator,
the condensed mass solve against the banded LU, and the segregated saddle solve
against the monolithic direct one."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fem_errbal
from fem_errbal import cli, mesh_basis, solvers
from fem_errbal.assembly import (
    BandedMatrix,
    LinearSystem,
    assemble_mixed,
    assemble_standard,
)
from fem_errbal.calibration import blas_kernel
from fem_errbal.mesh_basis import build_mesh
from fem_errbal.prediction import brute_force_sweep, solve_level
from fem_errbal.problem import CATALOG_NAMES, _const_real, catalog
from fem_errbal.solvers import (
    BandedLU,
    CondensedMass,
    NonConvergenceError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    _cg_core,
    _condensed_solve,
    schur_solve,
    solve_system,
)

from banded import dense_blocks, from_dense, reconstruct, to_dense


def _random_banded(n, kl, ku, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for d in range(-kl, ku + 1):
        idx = np.arange(max(0, -d), n - max(0, d))
        a[idx, idx + d] = rng.standard_normal(idx.size)
    # a tiny diagonal forces row interchanges during the factorization
    a[np.arange(n), np.arange(n)] *= 1e-8
    return a


class TestBandedLU:
    def test_frozen_two_by_two(self):
        mat = from_dense(np.array([[2.0, 1.0], [1.0, 3.0]]), 1, 1)
        x = BandedLU(mat).solve(np.array([3.0, 5.0]))
        assert np.allclose(x, [0.8, 1.4], rtol=1e-15, atol=0.0)

    def test_reconstruction_with_pivoting(self):
        a = _random_banded(40, 2, 3, seed=7)
        factor = BandedLU(from_dense(a, 2, 3))
        assert np.any(factor._ipiv != np.arange(40))  # interchanges actually happened
        scale = np.max(np.sum(np.abs(a), axis=1))
        assert np.max(np.abs(reconstruct(factor) - a)) <= 1e-13 * scale

    def test_reconstruction_sampled_columns_assembled(self):
        spec = catalog("bench-diffusion")
        system = assemble_standard(spec, build_mesh(7), p=3)
        factor = BandedLU(system.matrix)
        dense = to_dense(system.matrix)
        cols = np.random.default_rng(3).choice(dense.shape[1], size=60, replace=False)
        rebuilt = reconstruct(factor)[:, cols]
        scale = np.max(np.sum(np.abs(dense), axis=1))
        assert np.max(np.abs(rebuilt - dense[:, cols])) <= 1e-13 * scale

    def test_singular_reports_pivot(self):
        a = np.eye(4)
        a[2, 2] = 0.0
        with pytest.raises(SingularMatrixError) as err:
            BandedLU(from_dense(a + np.diag([0, 0, 0, 0]), 1, 1))
        assert err.value.pivot == 2

    def test_complex_one_by_one(self):
        x = BandedLU(from_dense(np.array([[1.0 + 1.0j]]), 0, 0)).solve(np.array([2.0 + 0.0j]))
        assert x.dtype == np.complex128
        assert x[0] == 1.0 - 1.0j

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_band_agrees_with_dense_solve(self, dtype):
        # kl != ku, so a copy into LAPACK's layout that mixed up the two
        # bandwidths would solve another matrix; the band stays unwritten
        rng = np.random.default_rng(9)
        n, kl, ku = 12, 2, 3
        imag = 1j if dtype is complex else 0.0
        a = np.zeros((n, n), dtype=dtype)
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + ku + 1)):
                a[i, j] = rng.standard_normal() + imag * rng.standard_normal()
            a[i, i] += 4.0
        b = rng.standard_normal(n) + imag * rng.standard_normal(n)
        mat = from_dense(a, kl, ku)
        ab = mat.ab.copy()
        x = BandedLU(mat).solve(b)
        assert mat.ab.tobytes() == ab.tobytes()
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)

    def test_solve_matches_dense_complex(self):
        spec = catalog("bench-helmholtz")
        system = assemble_mixed(spec, build_mesh(3), p=2)
        report = solve_system(system)
        assert report.x.dtype == np.complex128
        dense = np.linalg.solve(to_dense(system.matrix), system.rhs)
        assert np.linalg.norm(report.x - dense) <= 1e-11 * np.linalg.norm(dense)
        assert report.method == "lu"
        assert report.iterations == 0
        assert report.rel_residual <= 1e-12

    @pytest.mark.parametrize("name", ["bench-poisson", "bench-helmholtz"])
    @pytest.mark.parametrize("flavor", ["standard", "mixed"])
    def test_solve_leaves_the_shared_band_unwritten(self, name, flavor):
        # the solved system keeps the assembled band, and dgbtrf must factor a
        # copy of it: solve_level's LU and a second one leave it as assembled
        assemble = assemble_standard if flavor == "standard" else assemble_mixed
        system, _ = solve_level(catalog(name), flavor, 3, 4)
        assembled = assemble(catalog(name), build_mesh(4), 3)
        assert system.matrix.ab.tobytes() == assembled.matrix.ab.tobytes()
        ab, rhs = system.matrix.ab.copy(), system.rhs.copy()
        solve_system(system)
        assert system.matrix.ab.tobytes() == ab.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()


class TestConjugateGradients:
    def test_matches_lu(self):
        # the standard operator is assembled positive definite
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(5), p=2)
        direct = solve_system(system)
        report = solve_system(system, "cg", tol_prm=1e-13)
        assert report.method == "cg"
        assert report.iterations > 0
        rel = np.linalg.norm(report.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-9

    def test_band_left_unwritten(self):
        # CG's operator wraps the band itself, and no product writes it
        system = assemble_standard(catalog("bench-poisson"), build_mesh(6), p=3)
        ab = system.matrix.ab.copy()
        solve_system(system, "cg", tol_prm=1e-10)
        assert system.matrix.ab.tobytes() == ab.tobytes()

    def test_constrained_rows_pinned_bit_exact(self):
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(4), p=3)
        report = solve_system(system, "cg", tol_prm=1e-10)
        assert report.x[0] == system.rhs[0]
        assert report.x[-1] == system.rhs[-1]

    def test_deterministic(self):
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(4), p=2)
        x1 = solve_system(system, "cg", tol_prm=1e-12).x
        x2 = solve_system(system, "cg", tol_prm=1e-12).x
        assert np.array_equal(x1, x2)

    def test_synthetic_positive_definite_system(self):
        # mass-like SPD tridiagonal wrapped as a system
        n = 17
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        base = assemble_standard(catalog("bench-poisson"), build_mesh(2), p=1)
        system = dataclasses.replace(base, matrix=from_dense(a, 1, 1), rhs=np.ones(n),
                                     constrained=np.array([], dtype=np.int64))
        report = solve_system(system, "cg", tol_prm=1e-13)
        dense = np.linalg.solve(a, np.ones(n))
        assert np.linalg.norm(report.x - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_complex_system_refused(self):
        # a complex symmetric operator is not Hermitian, so CG does not apply
        system = assemble_standard(catalog("bench-helmholtz"), build_mesh(3), p=2)
        with pytest.raises(ValueError, match="CG needs a real system"):
            solve_system(system, "cg", tol_prm=1e-10)

    def test_probe_rejects_saddle(self):
        spec = catalog("case5", coefficient=1.0)
        system = assemble_mixed(spec, build_mesh(3), p=2)
        with pytest.raises(ValueError, match="diagonal is not positive"):
            solve_system(system, "cg", tol_prm=1e-10)

    def test_no_free_unknowns_returns_the_boundary_values(self):
        # one linear cell with both ends Dirichlet: every row is an identity
        system = assemble_standard(catalog("bench-poisson"), build_mesh(0), p=1)
        report = solve_system(system, "cg", tol_prm=1e-10)
        assert report.iterations == 0
        assert np.array_equal(report.x, solve_system(system).x)

    def test_nonconvergence_carries_state(self):
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(6), p=2)
        # CG seeded with the boundary values as cg_solve does, stopped after
        # three iterations
        x0 = np.zeros(system.n_unknowns)
        x0[system.constrained] = system.rhs[system.constrained]
        with pytest.raises(NonConvergenceError) as err:
            _cg_core(system.matrix.matvec, system.rhs, 1e-14, 3, x0=x0)
        assert err.value.iterations == 3
        assert err.value.best_x.shape == system.rhs.shape
        assert err.value.residual > 0
        assert "cg did not converge within 3 iterations" in str(err.value)
        assert err.value.breakdown is False

    def test_breakdown_has_its_own_message(self):
        # p^T A p = 1 - 1 = 0 on the first direction of an indefinite operator
        a = np.diag([1.0, -1.0])
        with pytest.raises(NonConvergenceError) as err:
            _cg_core(lambda v: a @ v, np.ones(2), 1e-12, 10)
        assert err.value.iterations == 1
        assert str(err.value).startswith(
            "cg broke down at iteration 1: the operator is not definite")
        assert err.value.breakdown is True

    @staticmethod
    def _through_matvec(system, tol):
        """CG driven by matvec, seeded as cg_solve seeds it, with its
        relative residual ||F - A x|| / ||F||."""
        x0 = np.zeros(system.n_unknowns)
        x0[system.constrained] = system.rhs[system.constrained]
        mat, rhs = system.matrix, system.rhs
        x, iters = _cg_core(mat.matvec, rhs, tol, 10 * mat.n, x0=x0)
        return x, iters, np.linalg.norm(rhs - mat.matvec(x)) / np.linalg.norm(rhs)

    @pytest.mark.parametrize("name,coefficient", [
        ("bench-poisson", None), ("bench-diffusion", None),
        *[(f"case{i}", c) for i in range(1, 6) for c in (0.01, 1.0, 100.0)]])
    def test_operator_gives_the_iterates_of_matvec(self, name, coefficient):
        spec = catalog(name) if coefficient is None else catalog(name, coefficient=coefficient)
        for p in range(1, 5):
            system = assemble_standard(spec, build_mesh(5), p)
            report = solve_system(system, "cg", tol_prm=1e-10)
            x, iters, res = self._through_matvec(system, 1e-10)
            assert report.x.tobytes() == x.tobytes()
            assert report.iterations == iters
            assert report.rel_residual == res

    @pytest.mark.parametrize(("level", "iterations"), [(8, 281), (10, 1153)])
    def test_iteration_counts_pinned(self, level, iterations):
        # bench-poisson standard p=2 at tol 1e-10, as the iterative benchmark runs it
        system = assemble_standard(catalog("bench-poisson"), build_mesh(level), 2)
        report = solve_system(system, "cg", tol_prm=1e-10)
        assert report.iterations == iterations
        x, _, _ = self._through_matvec(system, 1e-10)
        assert report.x.tobytes() == x.tobytes()


# every real problem of the catalog, the case families at three coefficients
REAL_PROBLEMS = [
    (name, coefficient)
    for name in CATALOG_NAMES
    for coefficient in ((0.01, 1.0, 100.0) if name.startswith("case") else (None,))
    if not (catalog(name) if coefficient is None else catalog(name, coefficient)).complex_valued
]


def _negated(mat: BandedMatrix) -> BandedMatrix:
    neg = BandedMatrix(mat.n, mat.kl, mat.ku)
    neg.ab[:] = -mat.ab
    return neg


def _with_reaction(r: float):
    """bench-poisson with a constant reaction coefficient r; a large positive r
    makes the standard operator indefinite, and a larger one its diagonal
    negative."""
    return dataclasses.replace(catalog("bench-poisson"), r=_const_real(r))


class TestCondensedStandard:
    # the largest deviation from the dense solve seen over these cases is
    # 2.3e-12 relative (bench-diffusion p=5, level 6, condition number 5e5),
    # well inside condition number times the unit roundoff
    BOUND = 1e-11

    @pytest.mark.parametrize(("name", "coefficient"), REAL_PROBLEMS)
    def test_agrees_with_dense_solve(self, name, coefficient):
        spec = catalog(name) if coefficient is None else catalog(name, coefficient)
        for p in range(1, 6):
            for level in (0, 3, 6):
                system = assemble_standard(spec, build_mesh(level), p)
                assert (system.matrix.diagonal() > 0).all()
                x = solve_system(system).x
                assert x.tobytes() == _condensed_solve(system).tobytes()  # lu condensed
                dense = np.linalg.solve(to_dense(system.matrix), system.rhs)
                assert np.linalg.norm(x - dense) <= self.BOUND * np.linalg.norm(dense)

    def test_ends_keep_their_identity_rows(self):
        # bench-poisson's Dirichlet ends come out as their right-hand side values exactly
        system = assemble_standard(catalog("bench-poisson"), build_mesh(5), 3)
        x = solve_system(system).x
        assert x[system.constrained].tobytes() == system.rhs[system.constrained].tobytes()

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_blocks_give_the_bits_of_one_block(self, p, monkeypatch):
        # 128 cells are one block of Mesh.cell_blocks by default and sixteen
        # blocks of 8 here: the vertex sums add each cell's left contribution
        # first either way
        system = assemble_standard(catalog("bench-diffusion"), build_mesh(7), p)
        x = solve_system(system).x
        monkeypatch.setattr(mesh_basis, "QUADRATURE_BLOCK", 8)
        assert len(list(system.mesh.cell_blocks())) == 16
        assert solve_system(system).x.tobytes() == x.tobytes()

    @pytest.mark.parametrize(("spec", "flavor", "p", "level"), [
        (catalog("bench-poisson"), "mixed", 3, 4),
        (catalog("bench-helmholtz"), "standard", 2, 4),
        (_with_reaction(1e4), "standard", 3, 4),  # a diagonal of mixed signs
    ], ids=["mixed", "complex", "indefinite"])
    def test_other_systems_get_the_banded_lu(self, spec, flavor, p, level):
        assemble = assemble_standard if flavor == "standard" else assemble_mixed
        system = assemble(spec, build_mesh(level), p)
        if flavor == "standard" and not system.complex_valued:
            diagonal = system.matrix.diagonal()
            assert (diagonal > 0).any() and (diagonal < 0).any()
        x = solve_system(system).x
        assert x.tobytes() == BandedLU(system.matrix).solve(system.rhs).tobytes()

    @pytest.mark.parametrize(("r", "p", "level", "where"), [
        (10.0, 4, 0, "interior pivot 2 of a cell"),
        (10.0, 2, 4, "pivot 15 of the vertex complement"),
        (100.0, 4, 0, None),
    ])
    def test_non_positive_pivot_falls_back_to_the_banded_lu(self, r, p, level, where,
                                                            monkeypatch):
        # these reactions make the operator indefinite and leave it far from
        # singular (condition numbers 71 to 4.2e4), so the banded LU meets no
        # zero pivot under any kernel.  r = 10 keeps the diagonal positive,
        # and the elimination meets a pivot that is not; r = 100 on one
        # quartic cell makes every free diagonal entry negative, and lu goes
        # straight to the banded LU
        system = assemble_standard(_with_reaction(r), build_mesh(level), p)
        diagonal = system.matrix.diagonal()
        if where is None:
            assert (np.delete(diagonal, system.constrained) < 0).all()
            monkeypatch.setattr(solvers, "_condensed_solve", None)  # a call would raise
        else:
            assert (diagonal > 0).all()
            with pytest.raises(NotPositiveDefiniteError,
                               match=f"standard band: {where} is not positive"):
                _condensed_solve(system)
        x = solve_system(system).x
        assert x.tobytes() == BandedLU(system.matrix).solve(system.rhs).tobytes()


# hashes of bench-poisson standard solutions, solved as solve_level solves them
# (own) and from the systems assembled in the test process (given)
_HASH_SCRIPT = """
import dataclasses, hashlib, sys
import numpy as np
from fem_errbal.calibration import blas_kernel
from fem_errbal.prediction import solve_level
from fem_errbal.problem import catalog
from fem_errbal.solvers import solve_system
systems = np.load(sys.argv[1])
own, given = hashlib.sha256(), hashlib.sha256()
for p in range(1, 6):
    for level in (2, 6, 10):
        system, report = solve_level(catalog("bench-poisson"), "standard", p, level)
        own.update(report.x.tobytes())
        system.matrix.ab[...] = systems[f"ab_{p}_{level}"]
        system = dataclasses.replace(system, rhs=systems[f"rhs_{p}_{level}"])
        given.update(solve_system(system).x.tobytes())
print(blas_kernel(), own.hexdigest(), given.hexdigest())
"""


@pytest.mark.parametrize(("variable", "value"), [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"),
])
def test_standard_solution_bytes_do_not_depend_on_the_arithmetic(variable, value, tmp_path):
    # the condensed solve makes no BLAS call and no summing reduction, so a
    # child process under another BLAS kernel or under numpy's baseline loops
    # solves bench-poisson's standard systems to the same bytes.  numpy's
    # baseline np.exp rounds the load differently, so under those loops the
    # child's own assembly gives other systems; it solves the ones assembled
    # here instead, and its own solutions are compared only under the kernel
    systems, digest = {}, hashlib.sha256()
    for p in range(1, 6):
        for level in (2, 6, 10):
            system, report = solve_level(catalog("bench-poisson"), "standard", p, level)
            systems[f"ab_{p}_{level}"], systems[f"rhs_{p}_{level}"] = system.matrix.ab, system.rhs
            digest.update(report.x.tobytes())
    np.savez(tmp_path / "systems.npz", **systems)
    env = dict(os.environ, **{variable: value})
    src = str(Path(fem_errbal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _HASH_SCRIPT, str(tmp_path / "systems.npz")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    kernel, own, given = done.stdout.split()
    assert given == digest.hexdigest()
    if variable == "OPENBLAS_CORETYPE":
        if kernel != value:
            pytest.skip(f"the child ran the {kernel} BLAS kernel, not {value}")
        assert own == digest.hexdigest()


class TestCondensedMass:
    # the largest deviation seen over these cases is 4.4e-16 relative, of
    # the order of the unit roundoff, as two backward stable solves of a
    # well conditioned mass band give
    BOUND = 1e-15

    @pytest.mark.parametrize(("name", "coefficient"), REAL_PROBLEMS)
    def test_agrees_with_banded_lu(self, name, coefficient):
        spec = catalog(name) if coefficient is None else catalog(name, coefficient)
        rng = np.random.default_rng(5)
        for p in range(1, 6):  # p = 1 has no cell interiors: T is M itself
            for level in (0, 3, 8):
                blocks = assemble_mixed(spec, build_mesh(level), p).blocks
                factor, condensed = BandedLU(blocks.M), CondensedMass(blocks.M)
                for b in (blocks.G, rng.standard_normal(blocks.M.n)):
                    x = factor.solve(b)
                    assert np.linalg.norm(condensed.solve(b) - x) <= self.BOUND * np.linalg.norm(x)

    def test_constrained_end_keeps_its_identity_row(self):
        # bench-diffusion's Neumann end makes the last v unknown an identity
        # row of M: the solve returns the right-hand side's value there exactly
        system = assemble_mixed(catalog("bench-diffusion"), build_mesh(3), 3)
        blocks = system.blocks
        assert system.constrained.tolist() == [blocks.pos_v[-1]]
        x = CondensedMass(blocks.M).solve(blocks.G)
        assert x[-1] == blocks.G[-1]

    @pytest.mark.parametrize("p", [1, 3])
    def test_band_that_is_not_definite_is_refused(self, p):
        # -M: at p = 3 a cell's interior pivot is negative, at p = 1 (no
        # interiors) the vertex complement's first pivot
        mass = assemble_mixed(catalog("bench-poisson"), build_mesh(3), p).blocks.M
        with pytest.raises(NotPositiveDefiniteError, match="is not positive") as err:
            CondensedMass(_negated(mass))
        assert isinstance(err.value, RuntimeError)

    def test_cli_maps_the_refusal_to_exit_three(self, monkeypatch, tmp_path, capsys):
        class OfNegatedBand(CondensedMass):
            def __init__(self, mat):
                super().__init__(_negated(mat))

        monkeypatch.setattr(solvers, "CondensedMass", OfNegatedBand)
        code = cli.main(["sweep", "--problem", "bench-poisson", "--fem", "mixed", "--p", "3",
                         "--solver", "schur", "--n-max", "50", "--out-dir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: mass band: interior pivot 0 of a cell is not positive\n")


class TestSchur:
    def test_matches_monolithic_dirichlet_ends(self):
        spec = catalog("case5", coefficient=1.0)
        system = assemble_mixed(spec, build_mesh(4), p=2)
        direct = solve_system(system)
        seg = solve_system(system, "schur", tol_prm=1e-13)
        assert seg.method == "schur"
        assert seg.iterations > 0
        rel = np.linalg.norm(seg.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-10

    def test_matches_monolithic_with_essential_end(self):
        base = catalog("bench-poisson")
        # same interior problem, right end turned into a flux condition
        spec = dataclasses.replace(
            base,
            bc_right=dataclasses.replace(base.bc_right, kind="neumann", value=-np.exp(-0.25)),
        )
        system = assemble_mixed(spec, build_mesh(4), p=3)
        assert system.blocks is not None and system.blocks.pure_saddle
        direct = solve_system(system)
        seg = solve_system(system, "schur", tol_prm=1e-13)
        rel = np.linalg.norm(seg.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-9

    def test_matches_monolithic_under_m1_scaling(self):
        # a right-hand side divided by a number that is no power of two, as
        # ||u_x|| might be; the blocks stay a pure saddle
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(4), 3)
        system = dataclasses.replace(system, rhs=system.rhs / 3.7)
        direct = solve_system(system)
        assert system.blocks.pure_saddle
        seg = solve_system(system, "schur", tol_prm=1e-13)
        rel = np.linalg.norm(seg.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-9

    # outer iteration counts of bench-poisson mixed p=3 at tol 1e-10, by level,
    # keyed by the arithmetic they were measured under: the BLAS kernel, which
    # runs the outer CG's dot products, and NPY_DISABLE_CPU_FEATURES, which
    # sets numpy's loops for the load vector (tools/kernel_matrix.py's rows)
    ITERATIONS = {
        ("SkylakeX", ""): {6: 101, 8: 390},
        ("Haswell", ""): {6: 101, 8: 390},
        ("SkylakeX", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"): {6: 101, 8: 389},
    }

    @pytest.mark.parametrize("level", [6, 8])
    def test_iteration_counts_pinned(self, level):
        # as the iterative benchmark runs it
        arithmetic = (blas_kernel(), os.environ.get("NPY_DISABLE_CPU_FEATURES", ""))
        if arithmetic not in self.ITERATIONS:
            pytest.fail(f"no Schur iteration count was measured under the {arithmetic[0]} BLAS "
                        f"kernel with NPY_DISABLE_CPU_FEATURES={arithmetic[1]!r}")
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(level), 3)
        iterations = solve_system(system, "schur", tol_prm=1e-10).iterations
        assert iterations == self.ITERATIONS[arithmetic][level]

    @pytest.mark.parametrize("level", [5, 8])
    def test_gathered_blocks_solve_as_dense_slices(self, level, monkeypatch):
        # the block view gathered from the band gives the solution bytes and
        # iteration count of the one sliced from the dense matrix
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(level), 3)
        x, iterations = schur_solve(system)
        reference = dense_blocks(system)
        monkeypatch.setattr(LinearSystem, "blocks", property(lambda _: reference))
        x_ref, iterations_ref = schur_solve(system)
        assert iterations == iterations_ref
        assert x.tobytes() == x_ref.tobytes()

    def test_requires_pure_saddle(self):
        spec = catalog("bench-diffusion")
        system = assemble_mixed(spec, build_mesh(3), p=2)
        with pytest.raises(ValueError, match="pure saddle"):
            schur_solve(system)

    def test_requires_mixed_blocks(self):
        standard = assemble_standard(catalog("bench-poisson"), build_mesh(3), p=2)
        with pytest.raises(ValueError, match="mixed block"):
            schur_solve(standard)
        complex_mixed = assemble_mixed(catalog("bench-helmholtz"), build_mesh(3), p=2)
        with pytest.raises(ValueError, match="mixed block"):
            schur_solve(complex_mixed)


def test_schur_sweep_follows_lu_before_the_floor():
    # the iterative benchmark's check on its Schur sweep, at half its size:
    # before the floor, that is ahead of both minima and at least a decade
    # above them, Schur's errors stay within 10% of LU's
    spec = catalog("bench-poisson")
    lu, schur = (brute_force_sweep(spec, "mixed", 3, "u", n_max=1536, rise_streak=None,
                                   solver=solver) for solver in ("lu", "schur"))
    assert [r.n_dof for r in schur] == [r.n_dof for r in lu]
    floor = 10.0 * max(lu.locate_min().value, schur.locate_min().value)
    descent = min(lu.min_index, schur.min_index)
    deviations = [abs(it.value - ref.value) / ref.value
                  for it, ref in zip(schur[:descent], lu[:descent]) if ref.value >= floor]
    assert len(deviations) >= 5
    assert max(deviations) <= 0.10


@pytest.mark.parametrize(("name", "flavor", "p", "level", "solver"), [
    ("bench-poisson", "standard", 2, 6, "lu"),
    ("bench-helmholtz", "mixed", 2, 6, "lu"),
    ("bench-poisson", "standard", 2, 6, "cg"),
    ("bench-poisson", "mixed", 3, 6, "schur"),
    ("bench-poisson", "mixed", 3, 10, "schur"),
])
def test_report_carries_the_whole_system_residual(name, flavor, p, level, solver):
    # every solver reports ||F - A x|| / ||F|| of the system it was given,
    # Schur's too, not its outer CG's residual on the Schur system
    assemble = assemble_standard if flavor == "standard" else assemble_mixed
    system = assemble(catalog(name), build_mesh(level), p)
    report = solve_system(system, solver, tol_prm=1e-10)
    assert report.method == solver
    rhs = system.rhs
    assert report.rel_residual == (np.linalg.norm(rhs - system.matrix.matvec(report.x))
                                   / np.linalg.norm(rhs))


def test_dispatch():
    system = assemble_standard(catalog("bench-poisson"), build_mesh(3), p=2)
    assert solve_system(system, "lu").method == "lu"
    with pytest.raises(ValueError, match="unknown solver"):
        solve_system(system, "qr")
