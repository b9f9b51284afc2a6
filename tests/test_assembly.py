"""Assembly tests: band storage, boundary handling, complex bands, scaling."""

import numpy as np
import pytest

from fem_errbal import prediction
from fem_errbal.assembly import (
    BandedMatrix,
    assemble_mixed,
    assemble_standard,
    cell_coefficients,
    eliminate_dirichlet,
)
from fem_errbal.calibration import poisson_neumann_variant
from fem_errbal.mesh_basis import LagrangeBasis, build_mesh
from fem_errbal.prediction import brute_force_sweep, prediction_loop, solve_level
from fem_errbal.error_analysis import host_dof_count, variable_available
from fem_errbal.problem import VARIABLES, BoundaryCondition, ProblemSpec, catalog

from banded import (add_at_assembly, cell_dofs, dense_blocks, from_dense, identity_rows,
                    mixed_u_positions, mixed_v_positions, to_dense)


def _zero(x):
    return np.zeros(np.shape(x))


def _one(x):
    return np.ones(np.shape(x))


_NEUMANN_BOTH = ProblemSpec(
    label="neumann-probe",
    D=_one,
    D_x=_zero,
    r=_zero,
    f=_one,
    bc_left=BoundaryCondition("left", "neumann", 0.0),
    bc_right=BoundaryCondition("right", "neumann", 0.0),
)


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_SCATTER_PROBLEMS = {
    **{name: (lambda name=name: catalog(name))
       for name in ("bench-poisson", "bench-diffusion", "bench-helmholtz", "validation-helmholtz")},
    **{f"case{i}-c{c:g}": (lambda i=i, c=c: catalog(f"case{i}", coefficient=c))
       for i in range(1, 6) for c in (0.01, 1.0, 100.0)},
    "poisson-neumann-variant": poisson_neumann_variant,
}
_REAL_PROBLEMS = sorted(name for name, make_spec in _SCATTER_PROBLEMS.items()
                        if not make_spec().complex_valued)


class TestBandedMatrix:
    def test_add_at_accumulates_in_band_slot(self):
        m = BandedMatrix(5, 1, 2)
        m.add_at(np.array([2, 2, 3]), np.array([3, 3, 2]), np.array([7.0, 0.5, -1.0]))
        assert m.ab[1 + 2 + 2 - 3, 3] == 7.5  # A[i, j] sits at ab[kl + ku + i - j, j]
        assert m.ab[1 + 2 + 3 - 2, 2] == -1.0
        assert np.count_nonzero(m.ab) == 2

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        a = np.triu(np.tril(rng.standard_normal((9, 9)), 3), -2)  # kl=2, ku=3
        m = from_dense(a, 2, 3)
        x = rng.standard_normal(9)
        np.testing.assert_allclose(m.matvec(x), a @ x, rtol=1e-14, atol=1e-14)

    def test_eliminate_dirichlet_keeps_symmetry(self):
        m = from_dense(2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1), 1, 1)
        rhs = np.ones(4)
        eliminate_dirichlet(m, rhs, 0, 5.0)
        np.testing.assert_array_equal(identity_rows(m), [True, False, False, False])
        a = to_dense(m)
        np.testing.assert_allclose(a, a.T)
        assert a[0, 0] == 1.0 and rhs[0] == 5.0
        assert rhs[1] == 1.0 - (-1.0) * 5.0

    def test_constrained_rows_need_empty_row_and_column(self):
        a = np.diag([1.0, 1.0, 1.0, 2.0])
        a[1, 3] = 0.5  # row 1 has an off-diagonal entry, column 1 none
        a[3, 2] = 0.5  # column 2 has one, row 2 none
        np.testing.assert_array_equal(identity_rows(from_dense(a, 1, 2)),
                                      [True, False, False, False])


def _unfused_matvec(mat: BandedMatrix, x: np.ndarray) -> np.ndarray:
    """`BandedMatrix.matvec` with every complex product formed from rounded
    real products, (ar xr - ai xi) + (ar xi + ai xr) i, as plain IEEE
    arithmetic forms it; numpy's complex multiply may fuse them (FMA)."""
    y = np.zeros(mat.n, dtype=np.result_type(mat.ab.dtype, x.dtype))
    r0 = mat.kl + mat.ku
    for d in range(-mat.kl, mat.ku + 1):
        lo, hi = max(0, d), mat.n + min(0, d)
        if hi > lo:
            a, v = mat.ab[r0 - d, lo:hi], x[lo:hi]
            re, im = a.real * v.real - a.imag * v.imag, a.real * v.imag + a.imag * v.real
            y[lo - d : hi - d] += re + 1j * im
    return y


@pytest.mark.parametrize("problem", sorted(_SCATTER_PROBLEMS))
@pytest.mark.parametrize("flavor", ["standard", "mixed"])
def test_operator_products_are_matvec_bit_for_bit(problem, flavor):
    # CG iterates through the DIA operator, negated in place as cg_solve
    # negates it, and the LU residual through matvec; a build whose DIA loop
    # fused its products would fail here rather than move the floors
    spec = _SCATTER_PROBLEMS[problem]()
    assemble = assemble_standard if flavor == "standard" else assemble_mixed
    rng = np.random.default_rng(17)
    for p in range(1, 5):
        for level in (0, 3, 6):
            mat = assemble(spec, build_mesh(level), p).matrix
            x = rng.standard_normal(mat.n)
            plus, minus = mat.operator(), mat.operator()
            minus.data *= -1.0
            if np.iscomplexobj(mat.ab):
                x = x + 1j * rng.standard_normal(mat.n)
                _assert_same_bits(plus @ x, _unfused_matvec(mat, x))
                # matvec itself differs only where numpy fuses a complex product
                np.testing.assert_allclose(plus @ x, mat.matvec(x), rtol=1e-14,
                                           atol=1e-14 * np.abs(mat.ab).max() * np.abs(x).max())
                _assert_same_bits(minus @ x, -(plus @ x))
            else:
                _assert_same_bits(plus @ x, mat.matvec(x))
                _assert_same_bits(minus @ x, -mat.matvec(x))


class TestStandardAssembly:
    def test_unconstrained_interior_row(self):
        # REF=1, p=1: the discrete operator's interior row is {+2, -4, +2}
        system = assemble_standard(_NEUMANN_BOTH, build_mesh(1), 1)
        a = to_dense(system.matrix)
        np.testing.assert_allclose(a[1], [2.0, -4.0, 2.0], atol=1e-12)

    def test_strong_dirichlet_rows(self):
        spec = catalog("bench-poisson")
        system = assemble_standard(spec, build_mesh(1), 1)
        a = to_dense(system.matrix)
        g = float(np.exp(-0.25))
        # identity rows, bit-exact boundary values, purged columns
        np.testing.assert_array_equal(a[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(a[2], [0.0, 0.0, 1.0])
        assert system.rhs[0] == g and system.rhs[2] == g
        np.testing.assert_allclose(a[1], [0.0, -4.0, 0.0], atol=1e-12)
        # purge moved 2g per boundary neighbor onto the load vector
        load = system.rhs[1] + 4.0 * g
        x_q = np.linspace(0, 1, 2001)
        phi1 = np.clip(1 - 2 * np.abs(x_q - 0.5), 0, None)
        oracle = np.trapezoid(phi1 * spec.f(x_q), x_q)
        # the assembled load uses the p+2-point cell rule, so agreement is at
        # quadrature-error level, not machine level
        assert abs(load - oracle) < 1e-4

    def test_symmetry_sampled(self):
        for name, p in (("bench-poisson", 3), ("bench-diffusion", 2)):
            a = to_dense(assemble_standard(catalog(name), build_mesh(4), p).matrix)
            rng = np.random.default_rng(11)
            scale = np.abs(a).max()
            for _ in range(50):
                i = int(rng.integers(0, len(a)))
                j = int(rng.integers(max(0, i - p), min(len(a), i + p + 1)))
                assert abs(a[i, j] - a[j, i]) <= 1e-14 * scale

    def test_dof_counts_and_bandwidth(self):
        system = assemble_standard(catalog("bench-poisson"), build_mesh(4), 2)
        assert system.n_unknowns == 33
        assert system.matrix.kl == system.matrix.ku == 2
        helm = assemble_standard(catalog("bench-helmholtz"), build_mesh(2), 2)
        assert helm.complex_valued and helm.matrix.ab.dtype == np.complex128
        assert helm.n_unknowns == 9
        assert helm.matrix.kl == helm.matrix.ku == 2

    def test_patch_exactness(self):
        spec = catalog("case5", 1.0)
        for p, ref in ((1, 5), (3, 3), (5, 2)):
            system = assemble_standard(spec, build_mesh(ref), p)
            x = np.linalg.solve(to_dense(system.matrix), system.rhs)
            coeffs = cell_coefficients(x, system, "u")
            nodes = LagrangeBasis(p).nodes
            exact = (np.arange(system.mesh.cell_count)[:, None] + nodes[None, :]) * system.mesh.h
            assert np.abs(coeffs - exact).max() <= 1e-12

    def test_neumann_load(self):
        # -(eta, D h n) lands only on the boundary unknown's equation
        spec = catalog("bench-diffusion")
        system = assemble_standard(spec, build_mesh(2), 1)
        f_only = assemble_standard(
            ProblemSpec(
                label="probe",
                D=spec.D,
                D_x=spec.D_x,
                r=spec.r,
                f=spec.f,
                bc_left=spec.bc_left,
                bc_right=BoundaryCondition("right", "neumann", 0.0),
            ),
            build_mesh(2),
            1,
        )
        delta = system.rhs - f_only.rhs
        expected = -spec.D(np.array([1.0]))[0] * 2 * np.pi
        assert abs(delta[-1] - expected) < 1e-12
        assert np.abs(delta[:-1]).max() == 0.0


class TestMixedAssembly:
    def test_dof_count_and_bandwidth(self):
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(4), 2)
        assert system.n_unknowns == 65
        assert system.matrix.kl == system.matrix.ku == 4  # <= 2(4p+1)
        helm = assemble_mixed(catalog("bench-helmholtz"), build_mesh(2), 2)
        assert helm.complex_valued and helm.matrix.ab.dtype == np.complex128
        assert helm.n_unknowns == 2 * 2 * 4 + 1
        assert helm.matrix.kl == helm.matrix.ku == 4

    def test_interleaved_positions(self):
        p, t = 2, 4
        blocks = assemble_mixed(catalog("bench-poisson"), build_mesh(2), p).blocks
        pos_v, pos_u = blocks.pos_v, blocks.pos_u
        np.testing.assert_array_equal(pos_v, mixed_v_positions(p, t))
        np.testing.assert_array_equal(pos_u, mixed_u_positions(p, t).ravel())
        combined = np.sort(np.concatenate([pos_v, pos_u.ravel()]))
        np.testing.assert_array_equal(combined, np.arange(2 * p * t + 1))
        assert pos_v[0] == 0
        # each cell's 2p unknowns after its left vertex v: p of u, then p of v
        assert ((pos_u - 1) % (2 * p) < p).all()
        assert not ((pos_v[1:] - 1) % (2 * p) < p).any()

    def test_mass_block_spd_one_cell(self):
        # oracle: exact P1 mass matrix [[h/3, h/6], [h/6, h/3]] on a single cell
        system = assemble_mixed(catalog("case5", 1.0), build_mesh(0), 1)
        m = to_dense(system.blocks.M)
        oracle = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        np.testing.assert_allclose(m, oracle, atol=1e-15)
        eigs = np.linalg.eigvalsh(m)
        assert abs(eigs[0] - np.linalg.eigvalsh(oracle)[0]) < 1e-15
        assert eigs[0] > 0

    def test_gradient_block_adjointness(self):
        system = assemble_mixed(catalog("bench-poisson"), build_mesh(3), 3)
        b = system.blocks.B
        rng = np.random.default_rng(5)
        scale = abs(b).max()
        for _ in range(20):
            q = rng.standard_normal(b.shape[1])
            w = rng.standard_normal(b.shape[0])
            lhs = np.dot(b @ q, w)
            rhs = np.dot(q, b.T @ w)
            assert abs(lhs - rhs) <= 1e-13 * scale * np.linalg.norm(q) * np.linalg.norm(w)

    @pytest.mark.parametrize("problem", _REAL_PROBLEMS)
    def test_blocks_are_slices_of_the_band(self, problem):
        # bench-diffusion is no pure saddle, and the Neumann variant's
        # eliminated v row leaves zeros in the band that are no entries of B
        # or C.  A CSR matrix's order of entries in a row sets the bits of its
        # products, so those are compared with the dense slices' byte for byte
        spec = _SCATTER_PROBLEMS[problem]()
        rng = np.random.default_rng(11)
        for p in range(1, 6):
            for level in (0, 3, 6):
                system = assemble_mixed(spec, build_mesh(level), p)
                blocks, ref = system.blocks, dense_blocks(system)
                np.testing.assert_array_equal(to_dense(blocks.M), to_dense(ref.M))
                for got, want in ((blocks.B, ref.B), (blocks.C, ref.C)):
                    np.testing.assert_array_equal(got.toarray(), want.toarray())
                    assert got.nnz == want.nnz, (p, level)
                    w = rng.standard_normal(got.shape[1])
                    assert (got @ w).tobytes() == (want @ w).tobytes(), (p, level)
                for name in ("G", "H", "pos_v", "pos_u"):
                    np.testing.assert_array_equal(getattr(blocks, name), getattr(ref, name))
                assert blocks.pure_saddle == ref.pure_saddle, (p, level)

    def test_pure_saddle_flag(self):
        # with D = 1 and r = 0, C and B^T are the same exactly rounded
        # reference integrals, so the flag tests C == B^T exactly
        for problem, make_spec in _SCATTER_PROBLEMS.items():
            spec = make_spec()
            for p in range(1, 5):
                for level in (0, 3, 6):
                    blocks = assemble_mixed(spec, build_mesh(level), p).blocks
                    assert assemble_standard(spec, build_mesh(level), p).blocks is None
                    if spec.complex_valued:
                        assert blocks is None, problem
                    elif problem == "bench-diffusion":
                        # on one linear cell whose Neumann end is eliminated,
                        # the one C entry left is D(0) = 1, which equals B's
                        assert blocks.pure_saddle == ((p, level) == (1, 0)), (p, level)
                    else:
                        assert blocks.pure_saddle, (problem, p, level)

    def test_dirichlet_enters_first_equation_rhs(self):
        system = assemble_mixed(catalog("case5", 1.0), build_mesh(2), 2)
        g = system.blocks.G
        # left value is 0, right value 1 with outward normal +1
        assert g[0] == 0.0 and g[-1] == -1.0
        assert np.abs(g[1:-1]).max() == 0.0

    def test_exact_linear_solution(self):
        spec = catalog("case5", 1.0)
        for p in (1, 2, 4):
            system = assemble_mixed(spec, build_mesh(1), p)
            x = np.linalg.solve(to_dense(system.matrix), system.rhs)
            v, u = (cell_coefficients(x, system, field) for field in ("v", "u"))
            np.testing.assert_allclose(v, -1.0, atol=1e-13)
            psi_nodes = LagrangeBasis(p - 1, continuous=False).nodes
            exact_u = (np.arange(2)[:, None] + psi_nodes[None, :]) * 0.5
            np.testing.assert_allclose(u, exact_u, atol=1e-13)

    def test_neumann_essential_on_v(self):
        # bench-diffusion has u_x(1) = 2 pi, so the last v unknown is -2 pi
        system = assemble_mixed(catalog("bench-diffusion"), build_mesh(3), 2)
        x = np.linalg.solve(to_dense(system.matrix), system.rhs)
        v = cell_coefficients(x, system, "v")
        assert abs(v[-1, -1] + 2 * np.pi) < 1e-12


@pytest.mark.parametrize("problem", sorted(_SCATTER_PROBLEMS))
@pytest.mark.parametrize("form", ["standard-strong", "mixed"])
def test_assembly_matches_add_at_scatter_bit_for_bit(problem, form):
    spec = _SCATTER_PROBLEMS[problem]()
    flavor = form.partition("-")[0]
    assemble = assemble_standard if flavor == "standard" else assemble_mixed
    for p in range(1, 6):
        for level in (1, 2, 5, 13):  # level 13 loads its cells in two blocks
            mesh = build_mesh(level)
            system = assemble(spec, mesh, p)
            ab, rhs = add_at_assembly(spec, mesh, p, flavor)
            _assert_same_bits(system.matrix.ab, ab)
            _assert_same_bits(system.rhs, rhs)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("flavor", ["standard", "mixed"])
def test_coefficient_extraction_matches_index_tables(flavor, dtype):
    # extraction copies strided views of x; the gathers through the global
    # index tables give the same bits, and both come out C-ordered
    rng = np.random.default_rng(5)
    for p in range(1, 6):
        for level in (0, 3):
            mesh = build_mesh(level)
            t = mesh.cell_count
            system = (assemble_standard if flavor == "standard" else assemble_mixed)(
                catalog("bench-poisson"), mesh, p)
            x = rng.standard_normal(system.n_unknowns).astype(dtype)
            if flavor == "standard":
                got, want = [cell_coefficients(x, system, "u")], [x[cell_dofs(p, t)]]
            else:
                got = [cell_coefficients(x, system, field) for field in ("v", "u")]
                want = [x[mixed_v_positions(p, t)[cell_dofs(p, t)]], x[mixed_u_positions(p, t)]]
            for a, b in zip(got, want):
                _assert_same_bits(a, b)
                assert a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("flavor", ["standard", "mixed"])
def test_layout_positions_count_the_host_space(flavor):
    # the layout and the DoF convention agree: a variable's host field has
    # host_dof_count distinct positions, and the fields tile the system
    assemble = assemble_standard if flavor == "standard" else assemble_mixed
    for p in range(1, 5):
        for level in (0, 3):
            system = assemble(catalog("bench-poisson"), build_mesh(level), p)
            fields = system.layout.fields
            pos = np.concatenate([system.layout.positions(name) for name in fields])
            np.testing.assert_array_equal(np.sort(pos), np.arange(system.n_unknowns))
            for var in VARIABLES:
                if variable_available(flavor, var, p):
                    host = "v" if flavor == "mixed" and var != "u" else "u"
                    assert system.layout.positions(host).size == host_dof_count(
                        flavor, var, p, system.mesh.cell_count, False)


@pytest.mark.parametrize("problem", sorted(_SCATTER_PROBLEMS))
@pytest.mark.parametrize("flavor", ["standard", "mixed"])
def test_recorded_constrained_rows_are_the_identity_rows(problem, flavor):
    # the rows assembly records are the ones a scan of the band finds, for
    # Dirichlet and Neumann ends, complex systems and one-cell meshes
    spec = _SCATTER_PROBLEMS[problem]()
    assemble = assemble_standard if flavor == "standard" else assemble_mixed
    for p in range(1, 5):
        for level in (0, 3):
            system = assemble(spec, build_mesh(level), p)
            assert system.constrained.dtype == np.int64
            np.testing.assert_array_equal(system.constrained,
                                          np.flatnonzero(identity_rows(system.matrix)))


class TestScaling:
    """Every scheme is one right-hand-side divisor, the frame solve_level applies."""

    @staticmethod
    def _framed(name, flavor, frame, level=3, p=2):
        """(solve_level's system in the frame, the same level assembled unscaled)."""
        assemble = assemble_standard if flavor == "standard" else assemble_mixed
        system, _ = solve_level(catalog(name), flavor, p, level, frame)
        return system, assemble(catalog(name), build_mesh(level), p)

    def test_scheme_s_divides_rhs(self):
        system, plain = self._framed("bench-poisson", "standard", 0.92)
        _assert_same_bits(system.rhs, plain.rhs / 0.92)
        _assert_same_bits(system.matrix.ab, plain.matrix.ab)

    @pytest.mark.parametrize("name", ["bench-poisson", "bench-helmholtz"])
    def test_scheme_m1_divides_rhs_by_the_gradient_norm(self, name):
        system, plain = self._framed(name, "mixed", 3.7, level=2)
        # no column is scaled: the band is the assembled one
        _assert_same_bits(system.matrix.ab, plain.matrix.ab)
        _assert_same_bits(system.rhs, plain.rhs / 3.7)

    def test_scheme_m2_divides_rhs(self):
        system, plain = self._framed("bench-poisson", "mixed", 2.0, level=2)
        _assert_same_bits(system.rhs, plain.rhs / 2.0)
        _assert_same_bits(system.matrix.ab, plain.matrix.ab)

    def test_scaled_solutions_are_divided_unknowns(self):
        spec = catalog("bench-poisson")
        _, plain = solve_level(spec, "standard", 2, 4)
        _, framed = solve_level(spec, "standard", 2, 4, 0.92)
        np.testing.assert_allclose(framed.x, plain.x / 0.92, rtol=1e-12)
        # dividing by a power of two commutes with every rounding and every pivot choice
        _, halved = solve_level(spec, "standard", 2, 4, 2.0)
        _assert_same_bits(halved.x, plain.x / 2.0)

    @pytest.mark.parametrize("name", ["bench-poisson", "bench-helmholtz"])
    @pytest.mark.parametrize("scheme", ["S", "M1", "M2"])
    def test_input_left_unwritten(self, name, scheme):
        # the frame divides a new right-hand side, and the LU factors a copy
        # of the band: after the solve the band is still the assembled one
        frame = 3.7 if scheme == "M1" else 0.9  # ||u_x|| frames ux under M1, ||u|| otherwise
        system, plain = self._framed(name, "standard" if scheme == "S" else "mixed", frame)
        _assert_same_bits(system.matrix.ab, plain.matrix.ab)
        _assert_same_bits(system.rhs, plain.rhs / frame)

    def test_scheme_flavor_validation(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the scheme was checked")

        monkeypatch.setattr(prediction, "solve_level", no_solve)
        # no closed form, so the frame norm would need a ladder of unscaled solves
        spec = catalog("validation-helmholtz")
        for flavor, scheme, message in [
            ("standard", "M1", "scheme M1 applies to the mixed formulation"),
            ("mixed", "S", "scheme S applies to the standard formulation"),
            ("standard", "Z", "unknown scaling scheme 'Z'"),
        ]:
            for run in (brute_force_sweep, prediction_loop):
                with pytest.raises(ValueError, match=message):
                    run(spec, flavor, 2, "u", scheme=scheme)
