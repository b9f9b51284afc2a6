"""Round-off floor calibration from brute-force error curves.

fit_floor reads the round-off branch of an error curve: ordinary least
squares of log10 E against log10 N over the records after the curve minimum.
The minimum itself is excluded; it sits in the truncation/round-off
crossover, not on the floor.  The sensitivity suites re-measure the floors
across solver settings, solution magnitudes, and boundary-condition types,
writing one CSV per configuration.

Free-slope intercepts are extrapolations to N = 1, so they are only
comparable between curves fitted over the same DoF window.  The magnitude
and boundary suites therefore walk every configuration to one shared cap per
flavor instead of stopping on a rise streak; a configuration with a late
crossover would otherwise be fitted on a shifted window and its offset would
not mean the same thing.  Floors are machine dependent, so every report
carries a CPU identification string.
"""

from __future__ import annotations

import dataclasses
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .error_analysis import ErrorCurve
from .prediction import brute_force_sweep, default_scheme, exact_norm_factors
from .problem import BoundaryCondition, ProblemSpec, catalog

# one shared cap per flavor, deep enough that even a late crossover leaves
# several records on the floor; no streak stop, so all windows end together
_SWEEP_DEPTH = {
    "standard": dict(n_max=9_000_000, rise_streak=None),
    "mixed": dict(n_max=800_000, rise_streak=None),
}
# the magnitude study uses these fixed degrees
_MAGNITUDE_P = {"standard": 2, "mixed": 4}
_COEFF_GRID = {
    1: 10.0 ** np.arange(-2, 3),
    2: 10.0 ** np.arange(-4, 5, 2),
    3: 10.0 ** np.arange(-4, 5, 2),
    4: 10.0 ** np.arange(-2, 3),
    5: 10.0 ** np.arange(-4, 5, 2),
}


@dataclass
class FloorFit:
    """Least-squares fit of E = alpha_R_hat * N^beta_R_hat on the floor branch."""

    alpha_R_hat: float
    beta_R_hat: float
    point_count: int
    residual: float


def fit_floor(curve: ErrorCurve) -> FloorFit:
    """Fit the post-minimum branch of an error curve in log-log space.

    Needs at least three records past the minimum, all with positive error.
    """
    post = curve.post_min_records()
    if len(post) < 3:
        raise ValueError(
            f"floor fit needs at least 3 records past the minimum, got {len(post)}"
        )
    values = np.array([r.value for r in post], dtype=float)
    if np.any(values <= 0):
        raise ValueError("floor fit needs positive error values past the minimum")
    log_n = np.log10([r.n_dof for r in post])
    log_e = np.log10(values)
    slope, intercept = np.polyfit(log_n, log_e, 1)
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise ValueError("floor fit did not produce finite parameters")
    rms = float(np.sqrt(np.mean((log_e - (slope * log_n + intercept)) ** 2)))
    return FloorFit(
        alpha_R_hat=float(10.0**intercept),
        beta_R_hat=float(slope),
        point_count=len(post),
        residual=rms,
    )


def cpu_identifier() -> str:
    """Best-effort CPU identification for floor reports."""
    name = platform.processor()
    if not name:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.lower().startswith("model name"):
                        name = line.split(":", 1)[1].strip()
                        break
        except OSError:
            name = ""
    return name or platform.machine() or "unknown"


def poisson_neumann_variant() -> ProblemSpec:
    """The benchmark diffusion-free problem with its right condition made natural.

    Same equation and exact solution; u_x(1) = -e^(-1/4) replaces the right
    Dirichlet value, so only the imposition mechanism changes.
    """
    spec = catalog("bench-poisson")
    return dataclasses.replace(
        spec,
        label="bench-poisson-neumann",
        bc_right=BoundaryCondition("right", "neumann", float(-np.exp(-0.25))),
    )


@dataclass
class CalibrationRun:
    """One measured configuration: its full curve and the fitted floor."""

    suite: str
    label: str
    problem: str
    flavor: str
    p: int
    var: str
    solver: str
    tol_prm: float
    scheme: str
    curve: ErrorCurve
    fit: Optional[FloorFit]
    note: str = ""
    csv_path: Optional[str] = None


@dataclass
class CalibrationReport:
    suite: str
    cpu: str
    runs: List[CalibrationRun]

    def header(self) -> str:
        return f"suite={self.suite} cpu={self.cpu} configurations={len(self.runs)}"


def _write_run_csv(directory: Path, token: str, run: CalibrationRun, cpu: str) -> str:
    path = directory / f"{token}_{run.flavor}_{run.p}_{run.var}.csv"
    lines = [
        f"# suite={run.suite} label={run.label} problem={run.problem}",
        f"# flavor={run.flavor} p={run.p} var={run.var} solver={run.solver} "
        f"tol_prm={run.tol_prm:.17g} scheme={run.scheme}",
        f"# cpu={cpu}",
    ]
    if run.fit is not None:
        lines.append(
            f"# alpha_R_hat={run.fit.alpha_R_hat:.17g} "
            f"beta_R_hat={run.fit.beta_R_hat:.17g} "
            f"point_count={run.fit.point_count} residual={run.fit.residual:.17g}"
        )
    elif run.note:
        lines.append(f"# note={run.note}")
    lines.append("REF,N_h,E_h,rate")
    for rec in run.curve.records:
        rate = float("nan") if rec.observed_rate is None else rec.observed_rate
        lines.append(f"{rec.refinement_level},{rec.n_dof},{rec.value:.17g},{rate:.17g}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return str(path)


def _measured_run(
    suite: str,
    token: str,
    label: str,
    spec: ProblemSpec,
    flavor: str,
    p: int,
    var: str,
    scheme: str,
    factors: Dict[str, float],
    solver: str,
    tol_prm: float,
    n_max: int,
    rise_streak: Optional[int],
    out_dir: Optional[Path],
    cpu: str,
) -> CalibrationRun:
    curve = brute_force_sweep(
        spec,
        flavor,
        p,
        var,
        scheme=scheme,
        factors=factors,
        n_max=n_max,
        rise_streak=rise_streak,
        solver=solver,
        tol_prm=tol_prm,
    )
    try:
        fit, note = fit_floor(curve), ""
    except ValueError as err:
        fit, note = None, str(err)
    run = CalibrationRun(
        suite=suite,
        label=label,
        problem=spec.label,
        flavor=flavor,
        p=p,
        var=var,
        solver=solver,
        tol_prm=tol_prm,
        scheme=scheme,
        curve=curve,
        fit=fit,
        note=note,
    )
    if out_dir is not None:
        run.csv_path = _write_run_csv(out_dir, token, run, cpu)
    return run


def _solver_suite(
    out_dir: Optional[Path],
    cpu: str,
    tolerances: Sequence[float],
    variables: Sequence[str],
    n_max: int,
    rise_streak: int,
) -> List[CalibrationRun]:
    spec = catalog("bench-poisson")
    factors = exact_norm_factors(spec, "S")
    configs: List[Tuple[str, float, str, str]] = [("lu", 1e-10, "lu", "direct")]
    for tol in tolerances:
        configs.append(("cg", float(tol), f"cg-{tol:.0e}", f"cg tol_prm={tol:g}"))
    runs = []
    for solver, tol, tag, label in configs:
        for var in variables:
            runs.append(
                _measured_run(
                    "solver", f"solver-{tag}", label, spec, "standard", 2, var,
                    "S", factors, solver, tol, n_max, rise_streak, out_dir, cpu,
                )
            )
    return runs


def _swept_runs(
    suite: str,
    cases: Sequence[Tuple[ProblemSpec, str, str]],
    flavor: str,
    scheme: Optional[str],
    variables: Sequence[str],
    n_max: Optional[int],
    rise_streak: Optional[int],
    out_dir: Optional[Path],
    cpu: str,
) -> List[CalibrationRun]:
    """One LU curve per (spec, token, label) case and variable, at the flavor's depth.

    '{scheme}' in a token or label stands for the variable's scaling scheme.
    """
    if flavor not in _MAGNITUDE_P:
        raise ValueError(f"unknown flavor {flavor!r}")
    p = _MAGNITUDE_P[flavor]
    depth = _SWEEP_DEPTH[flavor]
    cap = n_max if n_max is not None else depth["n_max"]
    streak = rise_streak if rise_streak is not None else depth["rise_streak"]
    runs = []
    for spec, token, label in cases:
        for var in variables:
            var_scheme = scheme if scheme is not None else default_scheme(flavor, var)
            factors = exact_norm_factors(spec, var_scheme)
            runs.append(
                _measured_run(
                    suite, token.format(scheme=var_scheme), label.format(scheme=var_scheme),
                    spec, flavor, p, var, var_scheme, factors,
                    "lu", 1e-10, cap, streak, out_dir, cpu,
                )
            )
    return runs


def _magnitude_cases(case: int) -> List[Tuple[ProblemSpec, str, str]]:
    if case not in _COEFF_GRID:
        raise ValueError(f"magnitude study covers cases 1..5, got {case}")
    return [
        (catalog(f"case{case}", coefficient=float(c)),
         f"magnitude-case{case}-c{c:.0e}-{{scheme}}", f"case{case} c={c:g} scheme={{scheme}}")
        for c in _COEFF_GRID[case]
    ]


def _boundary_cases() -> List[Tuple[ProblemSpec, str, str]]:
    pairs = [("boundary-dd", catalog("bench-poisson")), ("boundary-dn", poisson_neumann_variant())]
    return [(spec, token, spec.label) for token, spec in pairs]


def sensitivity_suite(
    kind: str,
    out_dir: Optional[str] = None,
    case: int = 1,
    flavor: str = "standard",
    scheme: Optional[str] = None,
    variables: Optional[Sequence[str]] = None,
    tolerances: Sequence[float] = (1e-10, 1e-4),
    n_max: Optional[int] = None,
    rise_streak: Optional[int] = None,
) -> CalibrationReport:
    """Measure floor fits across one axis of variation and export the curves.

    kind 'solver' compares direct and iterative solves at the given tolerance
    list; 'magnitude' walks the coefficient grid of the selected catalog case;
    'boundary' compares the essential/essential benchmark against its
    essential/natural variant.  With out_dir set, each configuration writes
    one CSV and the run records its path.
    """
    directory = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    cpu = cpu_identifier()
    if kind == "solver":
        used = tuple(variables) if variables is not None else ("u", "ux")
        cap = n_max if n_max is not None else 20000
        streak = rise_streak if rise_streak is not None else 4
        runs = _solver_suite(directory, cpu, tolerances, used, cap, streak)
    elif kind in ("magnitude", "boundary"):
        cases = _magnitude_cases(case) if kind == "magnitude" else _boundary_cases()
        used = tuple(variables) if variables is not None else ("u", "ux", "uxx")
        runs = _swept_runs(kind, cases, flavor, scheme, used, n_max, rise_streak, directory, cpu)
    else:
        raise ValueError(f"unknown suite kind {kind!r}")
    return CalibrationReport(suite=kind, cpu=cpu, runs=runs)
