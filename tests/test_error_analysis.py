"""Reconstruction and error-measurement tests.

Rate oracles come from the convergence table of the two formulations; the
estimator-to-exact ratio oracle |1 - 2^-beta| is checked by running both
estimators side by side on a problem with a closed-form solution."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fem_errbal.assembly import assemble_mixed, assemble_standard, cell_coefficients
from fem_errbal.error_analysis import (
    DEFAULT_ALPHA_R,
    ErrorCurve,
    ErrorRecord,
    beta_R,
    beta_T,
    convergence_order,
    error_exact,
    error_refined,
    host_dof_count,
    l2_norm,
    reconstruct,
    variable_available,
)
from fem_errbal.mesh_basis import QUADRATURE_BLOCK, build_mesh
from fem_errbal.prediction import solve_level
from fem_errbal.problem import VARIABLES, catalog, eval_exact
from fem_errbal.solvers import solve_system

import whole_mesh
from whole_mesh import evaluate


def _solve_standard(spec, ref, p):
    system = assemble_standard(spec, build_mesh(ref), p=p)
    return solve_system(system), system


def _solve_mixed(spec, ref, p):
    system = assemble_mixed(spec, build_mesh(ref), p=p)
    return solve_system(system), system


class TestReconstruct:
    def test_linear_exact_slope(self):
        spec = catalog("case5", coefficient=1.0)  # u = x
        report, system = _solve_standard(spec, 3, 1)
        ux = reconstruct(report, system, "ux")
        x = np.random.default_rng(11).uniform(0, 1, 50)
        assert np.max(np.abs(evaluate(ux, x) - 1.0)) <= 1e-13

    def test_standard_derivative_jumps_at_interfaces(self):
        spec = catalog("bench-poisson")
        report, system = _solve_standard(spec, 2, 2)
        ux = reconstruct(report, system, "ux")
        jump = evaluate(ux, 0.25 + 1e-10)[0] - evaluate(ux, 0.25 - 1e-10)[0]
        assert abs(jump) > 1e-8
        # within one cell the p=2 derivative is linear: second differences vanish
        xs = np.linspace(0.26, 0.49, 9)
        d2 = np.diff(evaluate(ux, xs), 2)
        assert np.max(np.abs(d2)) <= 1e-9

    def test_mixed_ux_is_negated_gradient_unknown(self):
        spec = catalog("bench-poisson")
        report, system = _solve_mixed(spec, 3, 2)
        ux = reconstruct(report, system, "ux")
        v_coeffs = cell_coefficients(report.x, system, "v")
        v_view = dataclasses.replace(ux, coeffs=v_coeffs)
        x = np.random.default_rng(5).uniform(0, 1, 40)
        assert np.array_equal(evaluate(ux, x), -evaluate(v_view, x))

    def test_mixed_uxx_from_gradient_derivative(self):
        spec = catalog("case5", coefficient=2.0)  # u = x / 2, uxx = 0
        report, system = _solve_mixed(spec, 3, 2)
        uxx = reconstruct(report, system, "uxx")
        assert np.max(np.abs(evaluate(uxx, np.linspace(0, 1, 33)))) <= 1e-10

    def test_standard_p1_uxx_unavailable(self):
        spec = catalog("bench-poisson")
        report, system = _solve_standard(spec, 2, 1)
        with pytest.raises(ValueError, match="degree"):
            reconstruct(report, system, "uxx")
        assert not variable_available("standard", "uxx", 1)
        assert variable_available("standard", "uxx", 2)
        assert variable_available("mixed", "uxx", 1)

    def test_evaluation_domain_checked(self):
        spec = catalog("bench-poisson")
        report, system = _solve_standard(spec, 2, 1)
        u = reconstruct(report, system, "u")
        assert np.isfinite(evaluate(u, np.array([0.0, 1.0]))).all()
        with pytest.raises(ValueError, match="0, 1"):
            evaluate(u, np.array([1.5]))


class TestNorm:
    def test_constant(self):
        assert abs(l2_norm(lambda x: np.ones_like(x)) - 1.0) <= 1e-14

    def test_sine(self):
        val = l2_norm(lambda x: np.sin(2 * np.pi * x))
        assert abs(val - 1 / np.sqrt(2)) <= 1e-10

    def test_helmholtz_solution_modulus(self):
        spec = catalog("bench-helmholtz")
        val = l2_norm(lambda x: eval_exact(spec, "u", x))
        assert abs(val - 1.26) <= 0.01

    def test_field_view_norm_matches_callable(self):
        spec = catalog("bench-poisson")
        report, system = _solve_standard(spec, 5, 3)
        u = reconstruct(report, system, "u")
        assert abs(l2_norm(u) - l2_norm(lambda x: eval_exact(spec, "u", x))) <= 1e-8


class TestErrorExact:
    def test_exactly_representable_solution(self):
        spec = catalog("case5", coefficient=1.0)
        report, system = _solve_standard(spec, 3, 1)
        record = error_exact(reconstruct(report, system, "u"), spec)
        assert record.value <= 1e-14
        assert record.estimator == "exact"
        assert record.n_dof == 9

    def test_second_order_u_convergence(self):
        spec = catalog("bench-poisson")
        errors = []
        for ref in (3, 4, 5, 6):
            report, system = _solve_standard(spec, ref, 1)
            errors.append(error_exact(reconstruct(report, system, "u"), spec).value)
        rates = [convergence_order(a, b) for a, b in zip(errors, errors[1:])]
        assert all(1.8 <= r <= 2.2 for r in rates)

    def test_fourth_order_p3_convergence(self):
        spec = catalog("bench-poisson")
        errors = []
        for ref in (3, 4, 5):
            report, system = _solve_standard(spec, ref, 3)
            errors.append(error_exact(reconstruct(report, system, "u"), spec).value)
        rates = [convergence_order(a, b) for a, b in zip(errors, errors[1:])]
        assert all(abs(r - 4.0) <= 0.2 for r in rates)


class TestErrorRefined:
    def test_identical_underlying_function(self):
        spec = catalog("case5", coefficient=1.0)
        rep_c, sys_c = _solve_standard(spec, 3, 1)
        rep_f, sys_f = _solve_standard(spec, 4, 1)
        record = error_refined(
            reconstruct(rep_c, sys_c, "u"), reconstruct(rep_f, sys_f, "u")
        )
        assert record.value <= 1e-14
        assert record.estimator == "refined"
        assert record.refinement_level == 3

    def test_level_adjacency_enforced(self):
        spec = catalog("bench-poisson")
        rep_c, sys_c = _solve_standard(spec, 3, 2)
        rep_f, sys_f = _solve_standard(spec, 5, 2)
        with pytest.raises(ValueError, match="adjacent"):
            error_refined(reconstruct(rep_c, sys_c, "u"), reconstruct(rep_f, sys_f, "u"))

    def test_ratio_to_exact_error(self):
        # in the asymptotic regime the estimator shadows the exact error with a
        # stable constant ratio; successive-level error functions are close to
        # uncorrelated locally, so the constant sits near 1 rather than at
        # 1 - 2^-beta.  Frozen from a side-by-side run of both estimators.
        expected = {"u": 0.992, "ux": 0.968, "uxx": 0.866}
        spec = catalog("bench-poisson")
        fields = {}
        for ref in (5, 6, 7):
            report, system = _solve_standard(spec, ref, 2)
            fields[ref] = {v: reconstruct(report, system, v) for v in expected}
        for var, ratio in expected.items():
            for coarse in (5, 6):
                e_exact = error_exact(fields[coarse][var], spec).value
                e_tilde = error_refined(fields[coarse][var], fields[coarse + 1][var]).value
                assert abs(e_tilde / e_exact - ratio) <= 0.02

    def test_estimator_rate_matches_exact_rate(self):
        spec = catalog("bench-poisson")
        fields = {}
        for ref in (4, 5, 6, 7):
            report, system = _solve_standard(spec, ref, 2)
            fields[ref] = reconstruct(report, system, "u")
        exact_rate = convergence_order(
            error_exact(fields[5], spec).value, error_exact(fields[6], spec).value
        )
        tilde_rate = convergence_order(
            error_refined(fields[4], fields[5]).value,
            error_refined(fields[5], fields[6]).value,
        )
        assert abs(exact_rate - tilde_rate) <= 0.3


class TestConvergenceOrder:
    def test_frozen_example(self):
        assert abs(convergence_order(1e-4, 2.5e-5) - 2.0) <= 1e-12

    def test_stalled(self):
        assert convergence_order(3e-7, 3e-7) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            convergence_order(0.0, 1e-5)
        with pytest.raises(ValueError):
            convergence_order(1e-5, -1.0)


class TestRates:
    def test_beta_t_table(self):
        assert beta_T("standard", "u", 3) == 4
        assert beta_T("standard", "ux", 3) == 3
        assert beta_T("standard", "uxx", 3) == 2
        assert beta_T("mixed", "u", 3) == 3
        assert beta_T("mixed", "ux", 3) == 4
        assert beta_T("mixed", "uxx", 3) == 3

    def test_beta_r(self):
        assert beta_R("standard") == 2
        assert beta_R("mixed") == 1

    def test_alpha_r_defaults(self):
        assert DEFAULT_ALPHA_R == {"u": 2e-17, "ux": 5e-17, "uxx": 1e-15}

    def test_host_dof_counts(self):
        assert host_dof_count("standard", "u", 2, 4, False) == 9
        assert host_dof_count("mixed", "u", 2, 4, False) == 8
        assert host_dof_count("mixed", "ux", 2, 4, False) == 9
        assert host_dof_count("mixed", "uxx", 2, 4, True) == 18


class TestErrorCurve:
    def _records(self, values):
        return [
            ErrorRecord(refinement_level=i, n_dof=2**i + 1, value=v, estimator="exact")
            for i, v in enumerate(values)
        ]

    def test_min_tie_breaks_to_smaller_n(self):
        curve = ErrorCurve(self._records([3.0, 1.0, 1.0, 2.0]))
        assert curve.min_index == 1
        assert curve.locate_min().n_dof == 3
        assert [r.value for r in curve.post_min_records()] == [1.0, 2.0]

    def test_monotone_dof_enforced(self):
        records = self._records([1.0, 0.5])
        records[1] = dataclasses.replace(records[1], n_dof=records[0].n_dof)
        with pytest.raises(ValueError, match="increasing"):
            ErrorCurve(records)
        curve = ErrorCurve(self._records([1.0, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            curve.append(ErrorRecord(5, curve[-1].n_dof, 0.1, "exact"))


class TestBlockedQuadrature:
    """The quadratures walk the mesh in blocks of QUADRATURE_BLOCK cells and
    must give the bits of the whole-mesh sums (tests/whole_mesh.py)."""

    @pytest.mark.parametrize("name", ["bench-poisson", "bench-helmholtz"])
    @pytest.mark.parametrize("flavor", ["standard", "mixed"])
    def test_matches_whole_mesh_bit_for_bit(self, name, flavor):
        spec = catalog(name)
        # the fine level has four blocks, the coarse one two
        views = {}
        for level in (13, 14):
            system, report = solve_level(spec, flavor, 3, level)
            views[level] = {var: reconstruct(report, system, var) for var in VARIABLES}
        assert build_mesh(13).cell_count == 2 * QUADRATURE_BLOCK
        for var in VARIABLES:
            coarse, fine = views[13][var], views[14][var]
            pairs = {
                "l2_norm": (l2_norm(fine), whole_mesh.l2_norm(fine)),
                "error_exact": (error_exact(fine, spec).value, whole_mesh.error_exact(fine, spec)),
                "error_refined": (error_refined(coarse, fine).value,
                                  whole_mesh.error_refined(coarse, fine)),
            }
            for what, (got, want) in pairs.items():
                assert got.hex() == want.hex(), (var, what)

    def test_error_exact_transient_memory_stays_in_blocks(self):
        # at 2**18 cells one whole-mesh (cells, n_quad) array takes 12 MiB; the
        # blocked walk holds the (cells,) vector of sums and one block at a time
        spec = catalog("bench-poisson")
        system, report = solve_level(spec, "standard", 2, 18)
        field = reconstruct(report, system, "u")
        t, n_quad = field.mesh.cell_count, field.fem_degree + 4
        whole_array = t * n_quad * 8
        tracemalloc.start()
        try:
            error_exact(field, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_array / 2, peak
