"""Prediction-stage tests.

The closed-form optimum has hand-computable oracles; loop behaviour is pinned
on catalog problems where the error model says what must happen (immediate
round-off on a linear exact solution, a clean anchor for smooth problems, the
DoF cap when the rate gate is made unreachable)."""

import dataclasses

import numpy as np
import pytest

from fem_errbal import prediction
from fem_errbal.assembly import assemble_mixed, assemble_standard
from fem_errbal.error_analysis import DEFAULT_ALPHA_R, host_dof_count, l2_norm
from fem_errbal.mesh_basis import build_mesh
from fem_errbal.prediction import (
    C_S,
    N_MAX,
    ErrorModel,
    NormalizationError,
    brute_force_sweep,
    c_r,
    default_scheme,
    fit_alpha_T,
    frame_variable,
    predict_opt,
    prediction_loop,
    ref_min,
    solve_level,
)
from fem_errbal.problem import catalog, eval_exact
from fem_errbal.solvers import solve_system


def _nan_load():
    return dataclasses.replace(
        catalog("bench-poisson"), f=lambda x: np.full(np.shape(x), np.nan)
    )


def _without_closed_form(spec):
    return dataclasses.replace(spec, exact_u=None, exact_ux=None, exact_uxx=None)


def _zero_data():
    """bench-poisson with zero load and zero boundary values: u = 0, and so is its norm."""
    spec = catalog("bench-poisson")
    return dataclasses.replace(
        spec, f=lambda x: np.zeros(np.shape(x)),
        bc_left=dataclasses.replace(spec.bc_left, value=0.0),
        bc_right=dataclasses.replace(spec.bc_right, value=0.0),
    )


def _recorded_solves(run, *args, **kwargs):
    """run's result, and the level of every level it solves, in order."""
    levels = []

    def recording_solve_level(spec, flavor, p, level, *rest, **level_kwargs):
        levels.append(level)
        return solve_level(spec, flavor, p, level, *rest, **level_kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prediction, "solve_level", recording_solve_level)
        result = run(*args, **kwargs)
    return result, levels


def _sweep_norm_ladder(spec, flavor, p, var, frame, scheme="auto"):
    """A short brute-force sweep's norm-ladder levels, the solves before its level 0.

    Checks the sweep's frame first: its values are those of the sweep under
    scheme 'none', each divided by frame, bit for bit.
    """
    curve, levels = _recorded_solves(brute_force_sweep, spec, flavor, p, var, scheme=scheme,
                                     n_max=10)
    plain = brute_force_sweep(spec, flavor, p, var, scheme="none", n_max=10)
    assert len(plain) and all(r.value > 0 for r in plain)
    assert [r.value for r in curve] == [r.value / frame for r in plain]
    return levels[:levels.index(0)]


def _stubborn_rate_gate(monkeypatch):
    """Rate gate that can never pass; forces the loop to walk to a stop check."""
    monkeypatch.setattr(prediction, "c_r", lambda p: 5.0)


class TestErrorModel:
    def test_branches_and_sum(self):
        m = ErrorModel(alpha_T=2.0, beta_T=3.0, alpha_R=1e-5, beta_R=2.0)
        assert m.truncation(10.0) == pytest.approx(2e-3, rel=1e-15)
        assert m.roundoff(10.0) == pytest.approx(1e-3, rel=1e-15)
        assert m.evaluate(10.0) == pytest.approx(3e-3, rel=1e-15)

    def test_vectorized_evaluate(self):
        m = ErrorModel(1.0, 2.0, 1e-10, 2.0)
        n = np.array([10.0, 100.0, 1000.0])
        out = m.evaluate(n)
        assert out.shape == (3,)
        assert np.all(out == m.truncation(n) + m.roundoff(n))

    @pytest.mark.parametrize("bad", [
        dict(alpha_T=0.0, beta_T=1.0, alpha_R=1.0, beta_R=1.0),
        dict(alpha_T=1.0, beta_T=-2.0, alpha_R=1.0, beta_R=1.0),
        dict(alpha_T=1.0, beta_T=1.0, alpha_R=0.0, beta_R=1.0),
        dict(alpha_T=1.0, beta_T=1.0, alpha_R=1.0, beta_R=-1.0),
    ])
    def test_positivity_enforced(self, bad):
        with pytest.raises(ValueError):
            ErrorModel(**bad)


class TestFitAlphaT:
    def test_hand_example(self):
        # E_c = 1e-4 at N_c = 100 with rate 2: alpha_T = 1e-4 * 100^2 = 1
        assert fit_alpha_T(1e-4, 100.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_unit_anchor(self):
        assert fit_alpha_T(1.0, 1.0, 5.0) == 1.0

    def test_round_trip(self):
        alpha, n, beta = 3.7e2, 513.0, 4.0
        e = alpha * n**-beta
        assert fit_alpha_T(e, n, beta) == pytest.approx(alpha, rel=1e-14)

    @pytest.mark.parametrize("args", [(0.0, 10.0, 2.0), (1.0, 0.0, 2.0), (1.0, 10.0, 0.0)])
    def test_nonpositive_rejected(self, args):
        with pytest.raises(ValueError):
            fit_alpha_T(*args)


class TestPredictOpt:
    def test_all_ones_model(self):
        n_opt, e_min = predict_opt(ErrorModel(1.0, 1.0, 1.0, 1.0))
        assert n_opt == 1.0
        assert e_min == 2.0

    def test_frozen_example(self):
        # alpha_T beta_T / (alpha_R beta_R) = 6e-2 / 2e-17 = 3e15, exponent 1/8
        n_opt, e_min = predict_opt(ErrorModel(1e-2, 6.0, 1e-17, 2.0))
        assert n_opt == pytest.approx((3e15) ** 0.125, rel=1e-12)
        assert n_opt == pytest.approx(86.02806544914777, rel=1e-12)
        assert e_min == pytest.approx(9.867770726563805e-14, rel=1e-12)

    def test_first_order_condition(self):
        m = ErrorModel(1e-2, 6.0, 1e-17, 2.0)
        n_opt, _ = predict_opt(m)
        h = 1e-6
        central = (m.evaluate(n_opt * (1 + h)) - m.evaluate(n_opt * (1 - h))) / (2 * h * n_opt)
        slope_scale = m.alpha_R * m.beta_R * n_opt ** (m.beta_R - 1)
        assert abs(central) <= 1e-6 * slope_scale

    def test_random_model_properties(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            m = ErrorModel(
                alpha_T=10.0 ** rng.uniform(-6, 2),
                beta_T=rng.uniform(0.5, 8.0),
                alpha_R=10.0 ** rng.uniform(-18, -10),
                beta_R=rng.uniform(0.5, 3.0),
            )
            n_opt, e_min = predict_opt(m)
            assert n_opt > 0 and e_min > 0
            assert e_min == m.evaluate(n_opt)
            # minimum among perturbed evaluations
            for k in (0.5, 0.9, 1.1, 2.0):
                assert m.evaluate(n_opt * k) >= e_min * (1 - 1e-12)
            # stationarity identity: beta_T E_T = beta_R E_R at the optimum
            et, er = m.truncation(n_opt), m.roundoff(n_opt)
            assert m.beta_T * et == pytest.approx(m.beta_R * er, rel=1e-10)
            assert e_min == pytest.approx((1 + m.beta_R / m.beta_T) * er, rel=1e-10)

    def test_scale_equivariance(self):
        base = ErrorModel(3.3e-1, 4.0, 7e-16, 2.0)
        n0, e0 = predict_opt(base)
        k = 37.0
        s = base.beta_T + base.beta_R
        n1, e1 = predict_opt(ErrorModel(base.alpha_T * k, 4.0, 7e-16, 2.0))
        assert n1 / n0 == pytest.approx(k ** (1 / s), rel=1e-12)
        assert e1 / e0 == pytest.approx(k ** (base.beta_R / s), rel=1e-12)
        n2, e2 = predict_opt(ErrorModel(3.3e-1, 4.0, 7e-16 * k, 2.0))
        assert n2 / n0 == pytest.approx(k ** (-1 / s), rel=1e-12)
        assert e2 / e0 == pytest.approx(k ** (base.beta_T / s), rel=1e-12)

    def test_unique_minimum_on_log_grid(self):
        m = ErrorModel(5.0, 3.0, 2e-17, 2.0)
        n_opt, e_min = predict_opt(m)
        grid = n_opt * 10.0 ** np.linspace(-2, 2, 100)
        vals = m.evaluate(grid)
        away = np.abs(np.log10(grid / n_opt)) > 0.02
        assert np.all(vals >= e_min)
        assert np.all(vals[away] > e_min * (1 + 1e-6))


class TestAlgorithmDefaults:
    def test_ref_min_table(self):
        for p, want in [(1, 8), (2, 7), (3, 6), (4, 5), (5, 4), (6, 4), (8, 4), (12, 4)]:
            assert ref_min(p) == want

    def test_rate_relaxation_table(self):
        for p, want in [(1, 0.9), (3, 0.9), (4, 0.7), (9, 0.7), (10, 0.5), (15, 0.5)]:
            assert c_r(p) == want

    def test_scalar_defaults(self):
        assert C_S == 0.001
        assert N_MAX == 10**8
        assert DEFAULT_ALPHA_R == {"u": 2e-17, "ux": 5e-17, "uxx": 1e-15}


class TestNormalization:
    """The c_s norm ladder, seen through prediction_loop(...).frame and through
    brute force without a closed form.  One ladder serves the norm and the
    walk: brute force settles the norm on its own ladder before it solves
    level 0, capped only by the default DoF cap, so a short sweep shows all
    of it."""

    def test_linear_solution_exact_norm(self):
        # u = x reproduced exactly at any level: accepted at the first comparison
        spec = catalog("case5", coefficient=1.0)
        frame = prediction_loop(spec, "standard", 1, "u").frame
        levels = _sweep_norm_ladder(_without_closed_form(spec), "standard", 1, "u", frame)
        assert levels == [7, 8]
        assert frame == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-10)

    def test_bench_poisson_magnitude(self):
        spec = catalog("bench-poisson")
        frame = prediction_loop(spec, "standard", 1, "u").frame
        levels = _sweep_norm_ladder(_without_closed_form(spec), "standard", 1, "u", frame)
        assert levels == [7, 8]
        assert abs(frame - 0.92) <= 0.01

    def test_oscillatory_needs_extra_levels(self):
        # 100 oscillation periods: the start level underresolves, the loop refines
        spec = catalog("case1", coefficient=100.0)
        frame = prediction_loop(spec, "standard", 2, "u").frame
        levels = _sweep_norm_ladder(_without_closed_form(spec), "standard", 2, "u", frame)
        assert levels == [6, 7, 8, 9, 10, 11]
        exact = (1.0 / np.sqrt(2.0)) / (200.0 * np.pi) ** 2
        assert frame == pytest.approx(exact, rel=1e-3)

    def test_unavailable_variable_rejected(self):
        spec = _without_closed_form(catalog("bench-poisson"))
        with pytest.raises(ValueError):
            brute_force_sweep(spec, "standard", 1, "uxx")

    def test_cap_raises_with_state(self):
        with pytest.raises(NormalizationError, match="did not stabilize before the DoF cap") as err:
            prediction_loop(catalog("bench-poisson"), "standard", 1, "u", n_max=200)
        assert err.value.refinement_level == 8
        assert err.value.last_norm > 0

    def test_non_finite_norm_raises_at_once(self, monkeypatch):
        # a NaN norm, or a norm of exactly 0, never settles: no walk to the cap,
        # which is lowered so that a walk to it stays small
        monkeypatch.setattr(prediction, "N_MAX", 10**5)
        for load, norm in [(_nan_load(), "nan"), (_zero_data(), "0.0")]:
            for run, spec in [(prediction_loop, load),
                              (brute_force_sweep, _without_closed_form(load))]:
                with pytest.raises(NormalizationError) as err:
                    run(spec, "standard", 1, "u")
                assert str(err.value) == f"norm estimate is {norm} at refinement 8"
                assert err.value.refinement_level == 8
                assert str(err.value.last_norm) == norm


class TestSchemeSelection:
    def test_default_mapping(self):
        for var in ("u", "ux", "uxx"):
            assert default_scheme("standard", var) == "S"
        assert default_scheme("mixed", "u") == "M2"
        assert default_scheme("mixed", "ux") == "M2"
        assert default_scheme("mixed", "uxx") == "M1"

    def test_frame_variable_table(self):
        for flavor, scheme, want in [
            ("standard", "S", {"u": "u", "ux": "u", "uxx": "u"}),
            ("mixed", "M2", {"u": "u", "ux": "u", "uxx": "u"}),
            ("mixed", "M1", {"u": "u", "ux": "ux", "uxx": "ux"}),
            ("standard", "none", {"u": None, "ux": None, "uxx": None}),
            ("mixed", "none", {"u": None, "ux": None, "uxx": None}),
        ]:
            assert {var: frame_variable(flavor, scheme, var) for var in want} == want

    def test_closed_form_frames(self):
        # u = sin(2 pi x) / 2 pi: ||u|| = 1 / (2 pi sqrt 2), ||u_x|| = 1 / sqrt 2
        spec = catalog("case4", coefficient=1.0)
        norm_u, norm_ux = 1.0 / (2.0 * np.pi * np.sqrt(2.0)), 1.0 / np.sqrt(2.0)
        for flavor, var, scheme, want in [
            ("standard", "ux", "S", norm_u),
            ("mixed", "u", "M1", norm_u),
            ("mixed", "uxx", "M1", norm_ux),
            ("mixed", "uxx", "M2", norm_u),
            ("mixed", "uxx", "none", 1.0),
        ]:
            frame_var = frame_variable(flavor, scheme, var)
            frame = 1.0 if frame_var is None else l2_norm(
                lambda x: eval_exact(spec, frame_var, x))
            assert frame == pytest.approx(want, rel=1e-8)
            # no norm ladder before the sweep
            assert _sweep_norm_ladder(spec, flavor, 2, var, frame, scheme) == []


class TestPredictionLoop:
    def test_smooth_high_order_prediction(self):
        res = prediction_loop(catalog("bench-poisson"), "standard", 5, "u")
        assert res.status == "converged"
        # p = 5 meets the rate gate at the very first level of the ladder
        assert res.N_c == 81
        assert 100 < res.N_opt_real < 200
        assert abs(np.log10(res.E_min / 7.4e-13)) <= 1.0

    def test_linear_solution_hits_roundoff_immediately(self):
        res = prediction_loop(catalog("case5", coefficient=1.0), "standard", 1, "u")
        assert res.status == "round-off_before_asymptote"
        assert res.model is None and res.N_c is None
        assert 0 < res.E_min <= 1e-11
        assert res.N_opt_mesh_ref == 8
        assert res.refinements_used == 9

    def test_dof_cap_status(self, monkeypatch):
        _stubborn_rate_gate(monkeypatch)
        res = prediction_loop(catalog("bench-poisson"), "standard", 1, "ux", n_max=5000)
        assert res.status == "hit_N_max"
        assert res.model is None
        assert res.E_min > 0
        assert res.N_opt_mesh == 8193
        assert res.refinements_used == 14

    def test_converged_result_invariants(self):
        res = prediction_loop(catalog("bench-diffusion"), "mixed", 3, "u")
        assert res.status == "converged"
        assert res.N_c > 0 and res.E_c > 0
        assert res.model.alpha_T == fit_alpha_T(res.E_c, res.N_c, res.model.beta_T)
        # anchor lies on the truncation branch, so the optimum is further out
        assert res.N_opt_real > res.N_c
        assert res.E_min <= 2 * res.E_c
        assert res.E_min == pytest.approx(res.model.evaluate(res.N_opt_real), rel=1e-12)
        assert res.N_opt_mesh >= res.N_opt_real
        assert res.N_opt_mesh == host_dof_count(
            "mixed", "u", 3, 1 << res.N_opt_mesh_ref, False
        )

    def test_unavailable_variable_rejected(self):
        with pytest.raises(ValueError):
            prediction_loop(catalog("bench-poisson"), "standard", 1, "uxx")

    def test_deterministic(self):
        a = prediction_loop(catalog("bench-helmholtz"), "mixed", 2, "ux")
        b = prediction_loop(catalog("bench-helmholtz"), "mixed", 2, "ux")
        assert a.status == b.status == "converged"
        assert a.E_min == b.E_min
        assert a.N_c == b.N_c

    def test_nan_load_reports_non_finite(self):
        res = prediction_loop(_nan_load(), "standard", 2, "u", scheme="none")
        assert res.status == "non_finite"
        assert res.model is None
        assert res.refinements_used == 8  # stops at the first estimate

    def test_unscaled_scheme_has_no_factors(self):
        res = prediction_loop(
            catalog("case5", coefficient=1.0), "standard", 1, "u", scheme="none"
        )
        assert res.frame == 1.0


class TestSingleLadder:
    """Each walk solves each level once and reads its frame norm off that ladder."""

    @pytest.mark.parametrize("name, flavor, p, var", [
        ("bench-poisson", "standard", 2, "u"),
        ("bench-poisson", "mixed", 4, "u"),
        ("bench-poisson", "mixed", 2, "uxx"),
    ])
    def test_each_level_solved_at_most_once(self, name, flavor, p, var):
        res, levels = _recorded_solves(prediction_loop, catalog(name), flavor, p, var)
        assert res.status == "converged"
        assert sorted(levels) == sorted(set(levels))
        assert max(levels) >= res.refinements_used

    @pytest.mark.parametrize("flavor, p, var, scheme", [
        ("standard", 2, "u", "auto"),
        ("mixed", 3, "uxx", "M1"),
    ])
    def test_sweep_solves_each_level_at_most_once(self, flavor, p, var, scheme):
        # no closed form: the sweep walks on through the levels its norm settled on
        curve, levels = _recorded_solves(brute_force_sweep, catalog("validation-helmholtz"),
                                         flavor, p, var, scheme=scheme, n_max=20000)
        norm_levels = levels[:levels.index(0)]
        assert norm_levels and max(norm_levels) <= curve[-1].refinement_level
        assert sorted(levels) == sorted(set(levels))

    @pytest.mark.parametrize("name, flavor, p, var", [
        ("bench-poisson", "standard", 2, "u"),
        ("case1", "standard", 2, "u"),  # the norm settles only past the prediction's levels
        ("validation-helmholtz", "mixed", 3, "ux"),
        ("validation-helmholtz", "mixed", 3, "uxx"),
    ])
    def test_factors_equal_normalization(self, name, flavor, p, var):
        spec = catalog(name, coefficient=100.0) if name == "case1" else catalog(name)
        res = prediction_loop(spec, flavor, p, var)
        assert res.scheme == default_scheme(flavor, var)
        # the one norm brute force settles on its own unscaled ladder
        assert _sweep_norm_ladder(_without_closed_form(spec), flavor, p, var, res.frame)

    @pytest.mark.parametrize("flavor, p, var, frame_var", [
        ("standard", 2, "u", "u"),
        ("mixed", 3, "u", "u"),
        ("mixed", 3, "uxx", "ux"),
    ])
    def test_estimates_are_the_unscaled_ones_divided(self, flavor, p, var, frame_var):
        spec = catalog("bench-diffusion")
        framed = prediction_loop(spec, flavor, p, var)
        plain = prediction_loop(spec, flavor, p, var, scheme="none")
        assert plain.frame == 1.0
        assert framed.N_c == plain.N_c
        assert framed.E_c == plain.E_c / framed.frame
        # the frame is the norm of u, or of u_x for u_xx under M1
        exact = l2_norm(lambda x: eval_exact(spec, frame_var, x))
        assert framed.frame == pytest.approx(exact, rel=1e-3)

    def test_scheme_checked_against_the_formulation(self):
        with pytest.raises(ValueError, match="scheme S applies to the standard"):
            prediction_loop(catalog("bench-poisson"), "mixed", 2, "u", scheme="S")


class TestSolveLevel:
    @pytest.mark.parametrize("solver, tol_prm", [("lu", 1e-10), ("schur", 1e-12)])
    def test_matches_the_pipeline_spelled_out(self, solver, tol_prm):
        spec = catalog("bench-poisson")
        system, report = solve_level(spec, "mixed", 3, 4, solver, tol_prm)
        assert system.mesh.refinement_level == 4
        manual = assemble_mixed(spec, build_mesh(4), 3)
        np.testing.assert_array_equal(system.rhs, manual.rhs)
        np.testing.assert_array_equal(report.x, solve_system(manual, solver, tol_prm=tol_prm).x)

    def test_unscaled_by_default(self):
        spec = catalog("bench-poisson")
        system, report = solve_level(spec, "standard", 2, 3)
        np.testing.assert_array_equal(system.rhs, assemble_standard(spec, build_mesh(3), 2).rhs)
        assert report.method == "lu" and report.x.shape == (system.n_unknowns,)

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="unknown flavor"):
            solve_level(catalog("bench-poisson"), "spectral", 2, 3)


class TestBruteForceSweep:
    def test_linear_solution_noise_floor(self):
        curve = brute_force_sweep(
            catalog("case5", coefficient=1.0), "standard", 1, "u", n_max=10000
        )
        values = [r.value for r in curve.records]
        assert len(values) >= 4
        assert max(values) <= 1e-12
        assert curve.locate_min().value <= 1e-14
        assert all(r.estimator == "exact" for r in curve.records)
        # a pure-noise curve trips the consecutive-rise stop quickly
        assert np.all(np.diff(values[-4:]) > 0)

    def test_refined_estimator_path(self):
        curve = brute_force_sweep(
            catalog("validation-helmholtz"), "standard", 1, "u", n_max=2000
        )
        assert curve[0].refinement_level == 0
        assert all(r.estimator == "refined" for r in curve.records)
        dofs = [r.n_dof for r in curve.records]
        assert np.all(np.diff(dofs) > 0)
        # records lag the solves by one level; the cap stops the solve ladder
        last_solved = curve[-1].refinement_level + 1
        assert host_dof_count("standard", "u", 1, 1 << last_solved, True) >= 2000
        assert curve[-1].n_dof < 2000
        # the degenerate-diffusion layer keeps early levels pre-asymptotic;
        # the rate settles to the theoretical 2 only once the layer resolves
        assert curve[-1].observed_rate == pytest.approx(2.0, abs=0.3)

    def test_second_derivative_rate(self):
        curve = brute_force_sweep(
            catalog("bench-poisson"), "standard", 2, "uxx", n_max=3000
        )
        # the exact estimator measures each solved level: the curve ends at
        # the first level whose host count reaches the cap
        last = curve[-1]
        assert last.n_dof == host_dof_count("standard", "uxx", 2, 1 << last.refinement_level, False)
        assert curve[-2].n_dof < 3000 <= last.n_dof
        assert curve[0].observed_rate is None
        for r in curve.records[4:]:
            assert r.observed_rate == pytest.approx(1.0, abs=0.1)

    def test_roundoff_branch_past_minimum(self):
        curve = brute_force_sweep(
            catalog("bench-poisson"), "standard", 2, "u", n_max=300000, rise_streak=4
        )
        low = curve.locate_min()
        assert 5e-13 <= low.value <= 8e-12
        post = curve.post_min_records()
        assert len(post) >= 3
        slope = np.polyfit(
            np.log10([r.n_dof for r in post]), np.log10([r.value for r in post]), 1
        )[0]
        assert 0.5 <= slope <= 3.0

    def test_agrees_with_prediction_at_high_order(self):
        for flavor in ("standard", "mixed"):
            pred = prediction_loop(catalog("bench-poisson"), flavor, 4, "u")
            bf = brute_force_sweep(
                catalog("bench-poisson"), flavor, 4, "u", n_max=100000
            )
            assert pred.status == "converged"
            gap = abs(np.log10(pred.E_min / bf.locate_min().value))
            assert gap <= 1.0

    def test_unavailable_variable_rejected(self):
        with pytest.raises(ValueError):
            brute_force_sweep(catalog("bench-poisson"), "standard", 1, "uxx")

    @pytest.mark.parametrize("var, frame_var", [("u", "u"), ("ux", "ux")])
    def test_m1_errors_are_the_unscaled_ones_divided_by_their_norm(self, var, frame_var):
        # before the floor the frame changes only the measuring stick: u is
        # divided by ||u||, the gradient variables by ||u_x||
        spec = catalog("bench-poisson")
        norm = l2_norm(lambda x: eval_exact(spec, frame_var, x))
        framed = brute_force_sweep(spec, "mixed", 3, var, scheme="M1", n_max=190)
        plain = brute_force_sweep(spec, "mixed", 3, var, scheme="none", n_max=190)
        assert [r.n_dof for r in framed] == [r.n_dof for r in plain]
        assert len(plain) == 7 and min(r.value for r in plain) > 1e-10  # all pre-floor
        np.testing.assert_allclose([r.value for r in framed],
                                   [r.value / norm for r in plain], rtol=1e-6)

    @pytest.mark.parametrize("name", ["bench-poisson", "validation-helmholtz"])
    @pytest.mark.parametrize("flavor, var, scheme", [
        ("standard", "u", "S"), ("standard", "ux", "none"), ("mixed", "u", "M1"),
        ("mixed", "uxx", "M1"), ("mixed", "ux", "M2"), ("mixed", "u", "none"),
    ])
    def test_values_are_the_unscaled_ones_divided_by_the_frame(self, name, flavor, var, scheme):
        # every scheme solves the levels 'none' solves and only divides the
        # values: by the closed-form norm, or by the norm the C_S rule settles
        spec = catalog(name)
        frame_var = frame_variable(flavor, scheme, var)
        if frame_var is None:
            frame = 1.0
        elif spec.has_exact:
            frame = l2_norm(lambda x: eval_exact(spec, frame_var, x))
        else:
            frame = prediction_loop(spec, flavor, 2, var, scheme).frame
        framed = brute_force_sweep(spec, flavor, 2, var, scheme=scheme, n_max=2000,
                                   rise_streak=None)
        plain = brute_force_sweep(spec, flavor, 2, var, scheme="none", n_max=2000,
                                  rise_streak=None)
        assert len(plain) >= 8 and all(r.value > 0 for r in plain)
        assert [r.value for r in framed] == [r.value / frame for r in plain]

    @pytest.mark.parametrize("var, scheme", [("uxx", "auto"), ("u", "M1")])
    def test_m1_settles_one_norm_on_one_ladder(self, var, scheme):
        # no closed form: the frame norm comes from unscaled solves, and M1
        # divides u by ||u|| and u_xx by ||u_x|| alone
        spec = catalog("validation-helmholtz")
        frame = prediction_loop(spec, "mixed", 3, var, scheme).frame
        levels = _sweep_norm_ladder(spec, "mixed", 3, var, frame, scheme)
        assert levels and sorted(levels) == sorted(set(levels))

    @pytest.mark.parametrize("estimator, solved", [("exact", [0]), ("refined", [0, 1])])
    def test_nan_load_raises_within_two_levels(self, monkeypatch, estimator, solved):
        spec = _nan_load()
        if estimator == "refined":
            spec = dataclasses.replace(spec, exact_u=None, exact_ux=None, exact_uxx=None)
        levels = []

        def counting_solve_level(*args, **kwargs):
            levels.append(args[3])
            assert len(levels) <= 2, "the sweep went on past a NaN error value"
            return solve_level(*args, **kwargs)

        monkeypatch.setattr(prediction, "solve_level", counting_solve_level)
        # default n_max (1e8 DoF): only the non-finite stop ends this sweep early
        with pytest.raises(RuntimeError, match="error estimate is nan"):
            brute_force_sweep(spec, "standard", 2, "u", scheme="none")
        assert levels == solved


class TestDefaultCap:
    """n_max=None means N_MAX in both entry points, read when the call runs."""

    def test_brute_force_without_a_cap(self, monkeypatch):
        spec = catalog("case5", coefficient=1.0)
        # the consecutive-rise stop ends this noise-floor curve far below N_MAX
        free = brute_force_sweep(spec, "standard", 1, "u", n_max=None, rise_streak=3)
        capped = brute_force_sweep(spec, "standard", 1, "u", n_max=10000, rise_streak=3)
        assert [(r.n_dof, r.value) for r in free] == [(r.n_dof, r.value) for r in capped]
        monkeypatch.setattr(prediction, "N_MAX", 600)
        curve = brute_force_sweep(catalog("bench-poisson"), "standard", 2, "u", n_max=None,
                                  rise_streak=3)
        assert curve[-1].n_dof == 1025  # the first level at or above the cap

    def test_prediction_without_a_cap(self, monkeypatch):
        spec = catalog("bench-poisson")
        assert (prediction_loop(spec, "standard", 2, "u", n_max=None)
                == prediction_loop(spec, "standard", 2, "u"))
        _stubborn_rate_gate(monkeypatch)
        monkeypatch.setattr(prediction, "N_MAX", 5000)
        res = prediction_loop(spec, "standard", 1, "ux", n_max=None)
        assert res.status == "hit_N_max" and res.N_opt_mesh == 8193
