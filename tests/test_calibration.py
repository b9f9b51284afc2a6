"""Calibration-stage tests.

fit_floor has an exact synthetic oracle: records placed on a power law must
come back with the law's parameters to near machine precision, and a dipped
minimum must be excluded from the fit.  The sensitivity suites are exercised
at small DoF caps where the run grid, CSV format, and note handling are what
is under test; two medium-depth sweeps pin the floor exponents the round-off
model predicts (slope near 2 for the standard flavor, near 1 for mixed)."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from fem_errbal.calibration import (
    FloorFit,
    blas_kernel,
    cpu_identifier,
    fit_floor,
    poisson_neumann_variant,
    sensitivity_suite,
)
from fem_errbal.error_analysis import ErrorCurve, ErrorRecord
from fem_errbal.prediction import brute_force_sweep
from fem_errbal.problem import catalog, eval_exact


def _curve(ns, values):
    records = [
        ErrorRecord(refinement_level=i, n_dof=int(n), value=float(v), estimator="exact")
        for i, (n, v) in enumerate(zip(ns, values))
    ]
    return ErrorCurve(records)


class TestFitFloor:
    def test_synthetic_quadratic_recovered(self):
        # E = 1e-16 N^2 exactly; min is the first record, the rest sit on the law
        ns = 2 ** np.arange(2, 14) + 1
        fit = fit_floor(_curve(ns, 1e-16 * ns.astype(float) ** 2))
        assert fit.alpha_R_hat == pytest.approx(1e-16, rel=1e-10)
        assert fit.beta_R_hat == pytest.approx(2.0, abs=1e-10)
        assert fit.point_count == len(ns) - 1
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_random_power_laws_recovered(self):
        rng = np.random.default_rng(20260823)
        ns = 2 ** np.arange(3, 15) + 1
        for _ in range(25):
            alpha = 10.0 ** rng.uniform(-18, -10)
            beta = rng.uniform(0.5, 3.0)
            fit = fit_floor(_curve(ns, alpha * ns.astype(float) ** beta))
            assert fit.alpha_R_hat == pytest.approx(alpha, rel=1e-9)
            assert fit.beta_R_hat == pytest.approx(beta, abs=1e-9)

    def test_exact_power_law_recovered_in_closed_form(self):
        # E = 2^-60 N^2 on N = 2^k + 1: the closed-form fit, summed exactly,
        # comes back with the law's parameters to a few units of roundoff
        ns = 2 ** np.arange(3, 20) + 1
        alpha, beta = 2.0**-60, 2.0
        fit = fit_floor(_curve(ns, alpha * ns.astype(float) ** beta))
        assert fit.alpha_R_hat == pytest.approx(alpha, rel=1e-13)
        assert fit.beta_R_hat == pytest.approx(beta, rel=1e-14)
        assert fit.residual <= 1e-15

    @pytest.mark.parametrize(("flavor", "p", "n_max"), [("standard", 2, 524_289),
                                                       ("mixed", 4, 131_072)])
    def test_agrees_with_polyfit_on_the_floor_sweep_curves(self, flavor, p, n_max):
        # the floor-sweep benchmark's two curves: the closed form and numpy's
        # least-squares line (LAPACK) differ only in their last bits
        curve = brute_force_sweep(catalog("bench-poisson"), flavor, p, "u", n_max=n_max,
                                  rise_streak=None)
        fit = fit_floor(curve)
        post = curve.post_min_records()
        slope, intercept = np.polyfit(np.log10([r.n_dof for r in post]),
                                      np.log10([r.value for r in post]), 1)
        assert fit.beta_R_hat == pytest.approx(slope, rel=1e-12)
        assert fit.alpha_R_hat == pytest.approx(10.0**intercept, rel=1e-12)

    def test_minimum_record_is_excluded(self):
        # dip one record far below the law; exact recovery from the rest
        # proves the fit starts strictly after the minimum
        ns = 2 ** np.arange(3, 12) + 1
        values = 1e-15 * ns.astype(float) ** 1.5
        values[2] /= 1000.0
        fit = fit_floor(_curve(ns, values))
        assert fit.alpha_R_hat == pytest.approx(1e-15, rel=1e-9)
        assert fit.beta_R_hat == pytest.approx(1.5, abs=1e-9)
        assert fit.point_count == len(ns) - 3

    def test_noise_shows_up_as_residual(self):
        ns = 2 ** np.arange(3, 11) + 1
        offsets = np.array([0.0, 0.0, 0.1, -0.12, 0.08, -0.05, 0.11, -0.09])
        fit = fit_floor(_curve(ns, 1e-16 * ns.astype(float) ** 2 * 10.0**offsets))
        assert fit.residual > 0.03
        assert fit.beta_R_hat == pytest.approx(2.0, abs=0.3)

    def test_needs_three_points_past_minimum(self):
        curve = _curve([3, 5, 9, 17, 33], [1.0, 0.1, 0.01, 0.02, 0.04])
        with pytest.raises(ValueError, match="at least 3 records past the minimum"):
            fit_floor(curve)

    def test_rejects_nonpositive_floor_values(self):
        curve = _curve([3, 5, 9, 17, 33], [-1.0, 0.0, 0.1, 0.2, 0.4])
        with pytest.raises(ValueError, match="positive error values"):
            fit_floor(curve)

    def test_fit_is_a_plain_record(self):
        fit = FloorFit(alpha_R_hat=1e-16, beta_R_hat=2.0, point_count=5, residual=0.1)
        assert dataclasses.asdict(fit)["point_count"] == 5


class TestNeumannVariant:
    def test_only_the_right_condition_changes(self):
        base = catalog("bench-poisson")
        variant = poisson_neumann_variant()
        assert variant.label == "bench-poisson-neumann"
        assert variant.bc_left == base.bc_left
        assert variant.bc_right.side == "right"
        assert variant.bc_right.kind == "neumann"
        assert variant.bc_right.value == pytest.approx(-np.exp(-0.25), rel=1e-15)
        x = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(eval_exact(variant, "u", x), eval_exact(base, "u", x))

    def test_natural_datum_matches_exact_derivative(self):
        variant = poisson_neumann_variant()
        ux_right = eval_exact(variant, "ux", np.array([1.0]))[0]
        assert variant.bc_right.value == pytest.approx(ux_right, rel=1e-13)

    def test_variant_still_converges(self):
        variant = poisson_neumann_variant()
        curve = brute_force_sweep(variant, "standard", 2, "u", n_max=600, rise_streak=None)
        values = [r.value for r in curve]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6
        assert curve[-1].observed_rate == pytest.approx(3.0, abs=0.4)


class TestMediumDepthFloors:
    # exponent bands hold for this specific cap; the floor steepens on
    # deeper windows, so the cap is part of the frozen expectation

    def test_standard_floor_slope_near_two(self):
        spec = catalog("bench-poisson")
        curve = brute_force_sweep(spec, "standard", 3, "u", n_max=200_000, rise_streak=None)
        fit = fit_floor(curve)
        assert 1.6 <= fit.beta_R_hat <= 2.4
        assert 1e-20 <= fit.alpha_R_hat <= 1e-16
        assert fit.point_count >= 6

    def test_mixed_floor_slope_near_one(self):
        spec = catalog("bench-poisson")
        curve = brute_force_sweep(spec, "mixed", 3, "ux", n_max=200_000, rise_streak=None)
        fit = fit_floor(curve)
        assert 0.6 <= fit.beta_R_hat <= 1.4
        assert 5e-19 <= fit.alpha_R_hat <= 5e-15
        assert fit.point_count >= 4


class TestSolverSuite:
    def test_runs_files_and_tolerance_floor(self, tmp_path):
        report = sensitivity_suite(
            "solver", out_dir=str(tmp_path), variables=("u",), n_max=4000, rise_streak=3
        )
        assert report.suite == "solver"
        assert report.cpu and isinstance(report.cpu, str)
        assert report.header() == f"suite=solver cpu={report.cpu} configurations=3"
        assert [r.solver for r in report.runs] == ["lu", "cg", "cg"]
        assert [r.tol_prm for r in report.runs] == [1e-10, 1e-10, 1e-4]

        # tight tolerances are still truncation dominated at this cap: the
        # minimum is the last record and no floor can be fitted
        direct, cg_tight, cg_loose = report.runs
        assert direct.fit is None
        assert "at least 3" in direct.note
        assert cg_tight.fit is None

        # a loose iterative tolerance raises the floor by orders of magnitude
        assert cg_loose.fit is not None
        assert cg_loose.curve.locate_min().value > 10 * direct.curve.locate_min().value

        for run, name in zip(
            report.runs,
            [
                "solver-lu_standard_2_u.csv",
                "solver-cg-1e-10_standard_2_u.csv",
                "solver-cg-1e-04_standard_2_u.csv",
            ],
        ):
            assert run.csv_path is not None
            path = tmp_path / name
            assert path.exists()
            assert run.csv_path == str(path)

    def test_csv_layout_round_trips(self, tmp_path):
        report = sensitivity_suite(
            "solver", out_dir=str(tmp_path), variables=("u",), n_max=4000, rise_streak=3
        )
        run = report.runs[0]
        lines = (tmp_path / "solver-lu_standard_2_u.csv").read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any(f"cpu={report.cpu}" in ln for ln in meta)
        assert any("solver=lu" in ln for ln in meta)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "REF,N_h,E_h,rate"
        assert len(body) - 1 == len(run.curve)
        ref, n_dof, value, _ = body[1].split(",")
        assert int(ref) == run.curve[0].refinement_level
        assert int(n_dof) == run.curve[0].n_dof
        assert float(value) == run.curve[0].value  # %.17g round-trips exactly

    def test_csv_names_the_blas_kernel(self, tmp_path):
        sensitivity_suite("solver", out_dir=str(tmp_path), variables=("u",), n_max=500)
        for path in tmp_path.glob("*.csv"):
            meta = [ln for ln in path.read_text().splitlines() if ln.startswith("# ")]
            kernel = [ln for ln in meta if ln.startswith("# blas_kernel=")]
            assert kernel == [f"# blas_kernel={blas_kernel()}"]
            assert blas_kernel().strip()

    def test_close_tolerances_get_files_of_their_own(self, tmp_path):
        # both round to 1e-04 with one digit; each CG run keeps its own CSV
        report = sensitivity_suite("solver", out_dir=str(tmp_path), variables=("u",),
                                   tolerances=(1e-4, 1.4e-4), n_max=500)
        paths = [run.csv_path for run in report.runs]
        assert [Path(p).name for p in paths] == [
            "solver-lu_standard_2_u.csv",
            "solver-cg-1e-04_standard_2_u.csv",
            "solver-cg-1.4e-04_standard_2_u.csv",
        ]
        assert sorted(tmp_path.glob("*.csv")) == sorted(Path(p) for p in paths)
        assert "tol_prm=0.00013999999999999999" in Path(paths[2]).read_text()

    def test_rerun_is_deterministic(self, tmp_path):
        kwargs = dict(variables=("u",), n_max=4000, rise_streak=3)
        first = tmp_path / "a"
        second = tmp_path / "b"
        sensitivity_suite("solver", out_dir=str(first), **kwargs)
        sensitivity_suite("solver", out_dir=str(second), **kwargs)
        name = "solver-cg-1e-04_standard_2_u.csv"
        assert (first / name).read_bytes() == (second / name).read_bytes()


class TestMagnitudeSuite:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="unknown suite kind"):
            sensitivity_suite("warp")
        with pytest.raises(ValueError, match="cases 1..5"):
            sensitivity_suite("magnitude", case=9, n_max=100)
        with pytest.raises(ValueError, match="unknown flavor"):
            sensitivity_suite("magnitude", flavor="spectral", n_max=100)

    def test_coefficient_grid_smoke(self):
        report = sensitivity_suite(
            "magnitude", case=5, variables=("u",), n_max=3000, rise_streak=3
        )
        assert [r.label for r in report.runs] == [
            "case5 c=0.0001 scheme=S",
            "case5 c=0.01 scheme=S",
            "case5 c=1 scheme=S",
            "case5 c=100 scheme=S",
            "case5 c=10000 scheme=S",
        ]
        for run in report.runs:
            assert run.flavor == "standard" and run.p == 2
            assert run.csv_path is None  # no out_dir, nothing written
            # the exact solution lies in the trial space, so every error is
            # pure round-off regardless of the coefficient magnitude
            assert run.curve.locate_min().value < 1e-13


@pytest.mark.parametrize("kind, option, message", [
    ("solver", {"flavor": "mixed"}, "flavor (--fem)"),
    ("solver", {"scheme": "M2"}, "scheme"),
    ("solver", {"scheme": "none"}, "scheme"),
    ("solver", {"case": 3}, "case"),
    ("boundary", {"case": 4}, "case"),
    ("boundary", {"tolerances": (1e-3,)}, "tolerances (--tol-prm)"),
    ("magnitude", {"tolerances": (1e-10,)}, "tolerances (--tol-prm)"),
])
def test_an_option_the_suite_does_not_read_is_refused(tmp_path, kind, option, message):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"^the {kind} suite does not read {re.escape(message)}$"):
        sensitivity_suite(kind, out_dir=str(out), variables=("u",), n_max=50, **option)
    assert not out.exists()


def test_the_options_a_suite_reads_keep_their_run():
    # the solver suite runs under S, so naming S is no change; the defaults
    # given explicitly are accepted by every suite
    for kind, option in (("solver", {"scheme": "S"}), ("magnitude", {"case": 5}),
                         ("boundary", {"tolerances": (1e-10, 1e-4)})):
        report = sensitivity_suite(kind, variables=("u",), n_max=50, **option)
        assert report.runs


class TestBoundarySuite:
    def test_natural_condition_leaves_floor_order_unchanged(self):
        report = sensitivity_suite("boundary", variables=("u",), n_max=30000)
        assert [r.problem for r in report.runs] == [
            "bench-poisson",
            "bench-poisson-neumann",
        ]
        fits = [r.fit for r in report.runs]
        assert all(f is not None for f in fits)
        for f in fits:
            assert 1.4 <= f.beta_R_hat <= 2.6
        ratio = fits[1].alpha_R_hat / fits[0].alpha_R_hat
        assert 0.02 <= ratio <= 50.0


def test_cpu_identifier_nonempty():
    name = cpu_identifier()
    assert isinstance(name, str) and name
