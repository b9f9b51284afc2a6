"""Acceptance gate: nine end-to-end checks, one test and one printed
verdict line each, run against the shipped defaults.

Structural checks are tight; round-off floor levels are hardware sensitive,
so offset checks use decade tolerances and the one known machine-dependent
shortfall (check 4, absolute offset leg) is asserted honestly rather than
widened: the spread and contrast legs pass, the absolute leg reports its
measured distance.  Wall-clock checks assert orderings only, never
absolute seconds."""

import time

import numpy as np

from fem_errbal.calibration import fit_floor
from fem_errbal.error_analysis import (
    DEFAULT_ALPHA_R,
    beta_R,
    beta_T,
    host_dof_count,
    variable_available,
)
from fem_errbal.prediction import (
    ErrorModel,
    brute_force_sweep,
    predict_opt,
    prediction_loop,
    solve_level,
)
from fem_errbal.problem import catalog

_BENCHES = ("bench-poisson", "bench-diffusion", "bench-helmholtz")
_FLAVORS = ("standard", "mixed")
_VARS = ("u", "ux", "uxx")


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] check {number} {title}: {detail}")


def _available(flavor, p):
    return [v for v in _VARS if variable_available(flavor, v, p)]


def test_1_convergence_rates_match_theory():
    # observed rate in the pre-floor window vs the theoretical order, +-0.25
    worst, where = -1.0, None
    for name in _BENCHES:
        spec = catalog(name)
        for flavor in _FLAVORS:
            for p in (1, 2, 3):
                for var in _available(flavor, p):
                    curve = brute_force_sweep(spec, flavor, p, var, n_max=30000, rise_streak=3)
                    a_r, b_r = DEFAULT_ALPHA_R[var], beta_R(flavor)
                    rates = [
                        r.observed_rate
                        for r in curve
                        if r.observed_rate is not None
                        and r.value > 1e4 * a_r * r.n_dof**b_r
                    ]
                    assert rates, f"no pre-floor rates for {name} {flavor} p={p} {var}"
                    dev = abs(float(np.median(rates[-3:])) - beta_T(flavor, var, p))
                    if dev > worst:
                        worst, where = dev, (name, flavor, p, var)
    ok = worst <= 0.25
    _verdict(1, "convergence rates", ok, f"worst deviation {worst:.3f} at {where} (budget 0.25)")
    assert ok, f"rate deviation {worst:.3f} > 0.25 at {where}"


def test_2_linear_exact_solution_reaches_roundoff():
    # a linear solution lies in every trial space (except the piecewise-constant
    # mixed p=1 u host), so errors are pure round-off; tested wherever the
    # round-off model itself stays under half the 1e-12 budget
    spec = catalog("case5", 1.0)
    worst, where, tested = -1.0, None, 0
    for flavor in _FLAVORS:
        for p in range(1, 6):
            for var in _available(flavor, p):
                if flavor == "mixed" and p == 1 and var == "u":
                    continue  # P0 host cannot represent a linear solution
                cap = host_dof_count(flavor, var, p, 1 << 10, spec.complex_valued)
                curve = brute_force_sweep(
                    spec, flavor, p, var, scheme="auto", n_max=cap, rise_streak=None
                )
                a_r, b_r = DEFAULT_ALPHA_R[var], beta_R(flavor)
                for rec in curve:
                    if a_r * rec.n_dof**b_r > 5e-13:
                        continue
                    tested += 1
                    if rec.value > worst:
                        worst, where = rec.value, (flavor, p, var, rec.refinement_level)
    ok = worst <= 1e-12
    _verdict(2, "linear-solution exactness", ok, f"worst error {worst:.2e} at {where} over {tested} solves (budget 1e-12)")
    assert ok, f"error {worst:.2e} > 1e-12 at {where}"


def test_3_floor_slopes_standard_two_mixed_one():
    spec = catalog("bench-poisson")
    fit_std = fit_floor(brute_force_sweep(spec, "standard", 5, "u", rise_streak=3))
    fit_mix = fit_floor(brute_force_sweep(spec, "mixed", 5, "u", rise_streak=3))
    ok = 1.5 <= fit_std.beta_R_hat <= 2.5 and 0.5 <= fit_mix.beta_R_hat <= 1.5
    _verdict(3, "round-off slopes", ok, f"standard {fit_std.beta_R_hat:.3f} (band [1.5, 2.5]), mixed {fit_mix.beta_R_hat:.3f} (band [0.5, 1.5])")
    assert 1.5 <= fit_std.beta_R_hat <= 2.5
    assert 0.5 <= fit_mix.beta_R_hat <= 1.5


def test_4_scaled_floor_offsets_collapse():
    # normalizing the solution magnitude should collapse the fitted floor
    # offsets across coefficient scales onto a common value near 2e-17;
    # fits share one DoF window because free-slope offsets are only
    # comparable between equal windows
    coefficients = (0.01, 1.0, 100.0)
    offsets = {}
    for scheme in ("S", "none"):
        for c in coefficients:
            spec = catalog("case1", c)
            curve = brute_force_sweep(
                spec, "standard", 2, "u", scheme=scheme, n_max=9_000_000, rise_streak=None
            )
            offsets[(scheme, c)] = np.log10(fit_floor(curve).alpha_R_hat)
    scaled = [offsets[("S", c)] for c in coefficients]
    unscaled = [offsets[("none", c)] for c in coefficients]
    spread = max(scaled) - min(scaled)
    contrast = max(unscaled) - min(unscaled)
    distance = max(abs(v - np.log10(2e-17)) for v in scaled)
    ok = spread <= 1.0 and contrast > 2.0 and distance <= 1.0
    _verdict(
        4,
        "scaled floor offsets",
        ok,
        f"spread {spread:.3f} <= 1 decade, unscaled contrast {contrast:.3f} > 2 decades, "
        f"worst distance from 2e-17 = {distance:.3f} decades (budget 1)",
    )
    assert spread <= 1.0, f"scaled offsets spread {spread:.3f} decades > 1"
    assert contrast > 2.0, f"unscaled offsets spread only {contrast:.3f} decades"
    # this machine's direct solver preserves more structure than the offset
    # model assumes, leaving fitted offsets below the 2e-17 target band;
    # asserted as specified rather than widened
    assert distance <= 1.0, (
        f"fitted scaled offsets sit {distance:.3f} decades from 2e-17 "
        f"(fitted log10 offsets: {', '.join(f'{v:.3f}' for v in scaled)})"
    )


def test_5_predicted_accuracy_matches_brute_force():
    spec = catalog("bench-poisson")
    worst, where = -1.0, None
    for flavor in _FLAVORS:
        for p in (4, 5):
            for var in _available(flavor, p):
                res = prediction_loop(spec, flavor, p, var)
                curve = brute_force_sweep(spec, flavor, p, var, rise_streak=3)
                gap = abs(np.log10(res.E_min / curve.locate_min().value))
                if gap > worst:
                    worst, where = gap, (flavor, p, var)
    ok = worst <= 1.0
    _verdict(5, "prediction vs brute force", ok, f"worst gap {worst:.3f} decades at {where} (budget 1)")
    assert ok, f"gap {worst:.3f} decades > 1 at {where}"


def test_6_validation_problem_optima_and_reachability():
    # printed reference optima count complex unknowns; ours count real ones,
    # two per complex unknown, so the comparison doubles the reference values
    spec = catalog("validation-helmholtz")
    reference = {"u": 6042.0, "ux": 9812.0, "uxx": 123486.0}
    ratios = {}
    for var, target in reference.items():
        res = prediction_loop(spec, "mixed", 4, var)
        assert res.status == "converged"
        ratios[var] = max(res.N_opt_real / (2 * target), 2 * target / res.N_opt_real)
    verdicts = {}
    for flavor in _FLAVORS:
        for p in range(1, 6):
            flags = [
                prediction_loop(spec, flavor, p, v).E_min <= 1e-9
                for v in _available(flavor, p)
            ]
            verdicts[(flavor, p)] = all(flags)
    expected = {("standard", p): False for p in range(1, 6)}
    expected.update({("mixed", p): p >= 4 for p in range(1, 6)})
    ok = max(ratios.values()) <= 4.0 and verdicts == expected
    _verdict(
        6,
        "validation optima and reachability",
        ok,
        f"N_opt ratios u {ratios['u']:.2f}, ux {ratios['ux']:.2f}, uxx {ratios['uxx']:.2f} "
        f"(budget 4); reachable verdicts {'match' if verdicts == expected else verdicts}",
    )
    assert max(ratios.values()) <= 4.0, f"N_opt ratios {ratios}"
    assert verdicts == expected, f"reachability grid {verdicts}"


def test_7_solver_choice_insensitivity_and_tolerance_floor():
    spec = catalog("bench-poisson")
    worst = -1.0
    for var in ("u", "ux"):
        lu = brute_force_sweep(spec, "standard", 2, var, n_max=20000, rise_streak=None, solver="lu")
        cg = brute_force_sweep(
            spec, "standard", 2, var, n_max=20000, rise_streak=None, solver="cg", tol_prm=1e-10
        )
        pre_floor = min(lu.min_index, cg.min_index)
        assert pre_floor >= 5
        worst = max(
            worst,
            max(abs(cg[i].value - lu[i].value) / lu[i].value for i in range(pre_floor)),
        )
    tight = brute_force_sweep(
        spec, "standard", 2, "u", n_max=20000, rise_streak=None, solver="cg", tol_prm=1e-10
    )
    loose = brute_force_sweep(
        spec, "standard", 2, "u", n_max=20000, rise_streak=None, solver="cg", tol_prm=1e-4
    )
    plateau = loose.locate_min().value / tight.locate_min().value
    ok = worst <= 0.10 and plateau >= 10.0
    _verdict(7, "solver sensitivity", ok, f"max CG/LU deviation {worst:.4f} (budget 0.10); loose-tolerance plateau {plateau:.0f}x the tight floor (budget 10x)")
    assert worst <= 0.10, f"pre-floor CG/LU deviation {worst:.4f} > 0.10"
    assert plateau >= 10.0, f"plateau ratio {plateau:.1f} < 10"


def test_8_closed_form_optimum_properties():
    rng = np.random.default_rng(8)
    worst_fo, worst_eq = 0.0, 0.0
    for _ in range(1000):
        model = ErrorModel(
            alpha_T=float(10.0 ** rng.uniform(-6, 6)),
            beta_T=float(rng.uniform(0.5, 6.0)),
            alpha_R=float(10.0 ** rng.uniform(-18, -13)),
            beta_R=float(rng.uniform(0.5, 3.0)),
        )
        n_opt, e_min = predict_opt(model)
        h = 1e-6 * n_opt
        diff = (model.evaluate(n_opt + h) - model.evaluate(n_opt - h)) / (2 * h)
        worst_fo = max(worst_fo, abs(diff) * n_opt / e_min)
        assert e_min <= model.evaluate(1.01 * n_opt)
        assert e_min <= model.evaluate(0.99 * n_opt)
        s = float(10.0 ** rng.uniform(-3, 3))
        n_s, e_s = predict_opt(
            ErrorModel(s * model.alpha_T, model.beta_T, s * model.alpha_R, model.beta_R)
        )
        worst_eq = max(worst_eq, abs(n_s / n_opt - 1.0), abs(e_s / (s * e_min) - 1.0))
    ok = worst_fo <= 1e-6 and worst_eq <= 1e-12
    _verdict(8, "closed-form optimum", ok, f"worst first-order residual {worst_fo:.2e} (budget 1e-6); worst scale-equivariance defect {worst_eq:.2e} (budget 1e-12)")
    assert worst_fo <= 1e-6
    assert worst_eq <= 1e-12


# single-solve memory budget for the cost comparison, in real unknowns (two
# per complex unknown)
_COST_BUDGET = 4_000_000


def _memory_safe_ref(flavor: str, p: int, complex_valued: bool) -> int:
    factor = 2 if complex_valued else 1
    per_cell = (2 * p + 1) if flavor == "mixed" else p
    return int(np.log2(max(_COST_BUDGET // (factor * per_cell), 2)))


def _timed_prediction_plus(spec, flavor, p, var, n_max, target_ref):
    start = time.perf_counter()
    result = prediction_loop(spec, flavor, p, var, n_max=n_max)
    solve_level(spec, flavor, p, target_ref)
    return result, time.perf_counter() - start


def test_9_prediction_cheaper_than_brute_force():
    # ordering of wall times only; the deepest solve is clamped to a
    # memory-safe mesh on both sides, and the ladder walks to exactly that
    # depth so brute force is never overstated
    spec = catalog("validation-helmholtz")
    n_max = 1_000_000
    violations = []
    for flavor in _FLAVORS:
        for p in (2, 3, 4, 5):
            for var in _available(flavor, p):
                res = prediction_loop(spec, flavor, p, var, n_max=n_max)
                target = min(res.N_opt_mesh_ref, _memory_safe_ref(flavor, p, spec.complex_valued))
                cap = host_dof_count(flavor, var, p, 1 << target, spec.complex_valued)

                def t_plus():
                    return _timed_prediction_plus(spec, flavor, p, var, n_max, target)[1]

                def t_bf():
                    start = time.perf_counter()
                    brute_force_sweep(spec, flavor, p, var, n_max=cap, rise_streak=None)
                    return time.perf_counter() - start

                plus, bf = t_plus(), t_bf()
                if plus >= bf:
                    # guard short runs against scheduler noise: best of three
                    plus = min(plus, t_plus(), t_plus())
                    bf = min(bf, t_bf(), t_bf())
                if plus >= bf:
                    violations.append((flavor, p, var, plus, bf))
    ok = not violations
    _verdict(9, "prediction cost ordering", ok, f"PRED+ < BF on all 24 grid points" if ok else f"violations: {violations}")
    assert ok, f"PRED+ not cheaper than brute force at {violations}"
