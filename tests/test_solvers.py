"""Solver tests: banded LU against frozen and dense oracles, the factorization
residual PA = LU, CG with the sign read from the diagonal, the condensed mass
solve against the banded LU, and the segregated saddle solve against the
monolithic direct one."""

import dataclasses

import numpy as np
import pytest

from fem_errbal import cli, solvers
from fem_errbal.assembly import (
    BandedMatrix,
    LinearSystem,
    assemble_mixed,
    assemble_standard,
)
from fem_errbal.calibration import blas_kernel
from fem_errbal.mesh_basis import build_mesh
from fem_errbal.prediction import brute_force_sweep, frame_variable, solve_level
from fem_errbal.problem import CATALOG_NAMES, catalog
from fem_errbal.solvers import (
    BandedLU,
    CondensedMass,
    NonConvergenceError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    _cg_core,
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

    def test_complex_band_agrees_with_dense_solve(self):
        rng = np.random.default_rng(9)
        n, kl, ku = 12, 2, 3
        a = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + ku + 1)):
                a[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
            a[i, i] += 4.0
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
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

    @pytest.mark.parametrize(
        ("name", "flavor", "scheme"),
        [("bench-poisson", "standard", "S"), ("bench-helmholtz", "standard", "S"),
         ("bench-poisson", "mixed", "M2"), ("bench-helmholtz", "mixed", "M2")],
    )
    def test_solve_leaves_the_shared_band_unwritten(self, name, flavor, scheme):
        # a frame shares the band with the unscaled system, and dgbtrf must
        # factor a copy of it: solve_level's LU and a second one leave it as
        # it was assembled
        assemble = assemble_standard if flavor == "standard" else assemble_mixed
        assert frame_variable(flavor, scheme, "u") == "u"  # 0.9 stands for ||u||
        scaled, _ = solve_level(catalog(name), flavor, 3, 4, 0.9)
        assembled = assemble(catalog(name), build_mesh(4), 3)
        assert scaled.matrix.ab.tobytes() == assembled.matrix.ab.tobytes()
        ab, rhs = scaled.matrix.ab.copy(), scaled.rhs.copy()
        solve_system(scaled)
        assert scaled.matrix.ab.tobytes() == ab.tobytes()
        assert scaled.rhs.tobytes() == rhs.tobytes()


class TestConjugateGradients:
    def test_matches_lu_after_negation(self):
        # the standard operator is negative definite, so CG must negate it
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(5), p=2)
        direct = solve_system(system)
        report = solve_system(system, "cg", tol_prm=1e-13)
        assert report.method == "cg"
        assert report.iterations > 0
        rel = np.linalg.norm(report.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-9

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

    def test_positive_definite_runs_unflipped(self):
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
        with pytest.raises(ValueError, match="mixed signs"):
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
        # CG on the negated operator, seeded with the boundary values as
        # cg_solve does, stopped after three iterations
        x0 = np.zeros(system.n_unknowns)
        x0[system.constrained] = system.rhs[system.constrained]
        with pytest.raises(NonConvergenceError) as err:
            _cg_core(lambda v: -system.matrix.matvec(v), -system.rhs, 1e-14, 3, x0=x0)
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
        """CG driven by -matvec, seeded as cg_solve seeds it, with its
        relative residual ||F - A x|| / ||F||."""
        x0 = np.zeros(system.n_unknowns)
        x0[system.constrained] = system.rhs[system.constrained]
        mat, rhs = system.matrix, system.rhs
        x, iters = _cg_core(lambda v: -mat.matvec(v), -rhs, tol, 10 * mat.n, x0=x0)
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
                factor, condensed = BandedLU(blocks.M), CondensedMass(blocks.M, p)
                for b in (blocks.G, rng.standard_normal(blocks.M.n)):
                    x = factor.solve(b)
                    assert np.linalg.norm(condensed.solve(b) - x) <= self.BOUND * np.linalg.norm(x)

    def test_constrained_end_keeps_its_identity_row(self):
        # bench-diffusion's Neumann end makes the last v unknown an identity
        # row of M: the solve returns the right-hand side's value there exactly
        system = assemble_mixed(catalog("bench-diffusion"), build_mesh(3), 3)
        blocks = system.blocks
        assert system.constrained.tolist() == [blocks.pos_v[-1]]
        x = CondensedMass(blocks.M, 3).solve(blocks.G)
        assert x[-1] == blocks.G[-1]

    @pytest.mark.parametrize("p", [1, 3])
    def test_band_that_is_not_definite_is_refused(self, p):
        # -M: at p = 3 a cell's interior pivot is negative, at p = 1 (no
        # interiors) the vertex complement's first pivot
        mass = assemble_mixed(catalog("bench-poisson"), build_mesh(3), p).blocks.M
        with pytest.raises(NotPositiveDefiniteError, match="is not positive") as err:
            CondensedMass(_negated(mass), p)
        assert isinstance(err.value, RuntimeError)

    def test_cli_maps_the_refusal_to_exit_three(self, monkeypatch, tmp_path, capsys):
        class OfNegatedBand(CondensedMass):
            def __init__(self, mat, p):
                super().__init__(_negated(mat), p)

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
        # M1 frames u_xx by dividing the right-hand side by ||u_x||; the
        # blocks stay a pure saddle
        system, direct = solve_level(catalog("bench-poisson"), "mixed", 3, 4, 3.7)
        assert system.blocks.pure_saddle
        seg = solve_system(system, "schur", tol_prm=1e-13)
        rel = np.linalg.norm(seg.x - direct.x) / np.linalg.norm(direct.x)
        assert rel <= 1e-9

    @pytest.mark.parametrize(("level", "iterations"), [(6, 101), (8, 390)])
    def test_iteration_counts_pinned(self, level, iterations):
        # bench-poisson mixed p=3 at tol 1e-10, as the iterative benchmark
        # runs it.  The outer CG's dot products run in BLAS, so the counts are
        # pinned only for the kernels they were measured under; both give these
        kernel = blas_kernel()
        if kernel not in ("SkylakeX", "Haswell"):
            pytest.fail(f"no Schur iteration count was measured under the {kernel} BLAS kernel")
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(level), 3)
        assert solve_system(system, "schur", tol_prm=1e-10).iterations == iterations

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
