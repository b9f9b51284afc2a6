"""Round-off floor calibration from brute-force error curves.

fit_floor reads the round-off branch of an error curve: ordinary least
squares of log10 E against log10 N over the records after the curve minimum.
The minimum itself is excluded; it sits in the truncation/round-off
crossover, not on the floor.  The sensitivity suites re-measure the floors
across solver settings, solution magnitudes, and boundary-condition types.
Each suite is a list of configurations (problem, file token, label, flavor,
degree, variable, scheme, solver, tolerance) that one loop runs: a
brute-force sweep, a floor fit (a failed fit becomes the run's note), and
optionally one CSV per configuration.

Free-slope intercepts are extrapolations to N = 1, so they are only
comparable between curves fitted over the same DoF window.  The magnitude
and boundary suites therefore walk every configuration to one shared cap per
flavor instead of stopping on a rise streak; a configuration with a late
crossover would otherwise be fitted on a shifted window and its offset would
not mean the same thing.  Floors are machine dependent, so every report
carries a CPU identification string, and every CSV also names the BLAS
kernel that ran the LU.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
import scipy

from .error_analysis import ErrorCurve, write_curve_csv
from .prediction import brute_force_sweep, default_scheme
from .problem import BoundaryCondition, ProblemSpec, catalog

# one shared cap per flavor, deep enough that even a late crossover leaves
# several records on the floor; no streak stop, so all windows end together
_SWEEP_CAP = {"standard": 9_000_000, "mixed": 800_000}
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
    The slope and intercept are the closed-form least-squares ones, summed
    exactly (`math.fsum`), so the fit depends on no BLAS or LAPACK kernel.
    """
    post = curve.post_min_records()
    if len(post) < 3:
        raise ValueError(
            f"floor fit needs at least 3 records past the minimum, got {len(post)}"
        )
    if any(r.value <= 0 for r in post):
        raise ValueError("floor fit needs positive error values past the minimum")
    log_n = [math.log10(r.n_dof) for r in post]
    log_e = [math.log10(r.value) for r in post]
    mean_n, mean_e = math.fsum(log_n) / len(post), math.fsum(log_e) / len(post)
    dev_n = [x - mean_n for x in log_n]
    slope = (math.fsum(d * (y - mean_e) for d, y in zip(dev_n, log_e))
             / math.fsum(d * d for d in dev_n))
    intercept = mean_e - slope * mean_n
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError("floor fit did not produce finite parameters")
    rms = math.sqrt(math.fsum((y - (slope * x + intercept)) ** 2
                              for x, y in zip(log_n, log_e)) / len(post))
    return FloorFit(
        alpha_R_hat=10.0**intercept,
        beta_R_hat=slope,
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


def blas_kernel() -> str:
    """Name of the kernel that scipy's bundled OpenBLAS picked at run time.

    The banded LU of mixed and complex systems runs in that library, and
    their floors move with the kernel.
    Asks the library through ctypes; 'unknown' where scipy bundles no
    OpenBLAS that exports `scipy_openblas_get_corename`.
    """
    root = Path(scipy.__file__).parent
    for path in [*(root.parent / "scipy.libs").glob("libscipy_openblas*"),
                 *(root / ".dylibs").glob("libscipy_openblas*")]:
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename()
        if name:
            return name.decode()
    return "unknown"


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


def _csv_comments(run: CalibrationRun, cpu: str, kernel: str) -> List[str]:
    lines = [
        f"suite={run.suite} label={run.label} problem={run.problem}",
        f"flavor={run.flavor} p={run.p} var={run.var} solver={run.solver} "
        f"tol_prm={run.tol_prm:.17g} scheme={run.scheme}",
        f"cpu={cpu}",
        f"blas_kernel={kernel}",
    ]
    if run.fit is not None:
        lines.append(
            f"alpha_R_hat={run.fit.alpha_R_hat:.17g} beta_R_hat={run.fit.beta_R_hat:.17g} "
            f"point_count={run.fit.point_count} residual={run.fit.residual:.17g}"
        )
    elif run.note:
        lines.append(f"note={run.note}")
    return lines


# rise_streak default of sensitivity_suite: the suite's own stop rule, a
# streak of 4 for 'solver' and none for the others; None always walks to the cap
SUITE_STREAK = object()


def _tol_token(tol: float) -> str:
    """Shortest exponent form that reads back as tol: '1e-04', '1.4e-04'."""
    return np.format_float_scientific(tol, trim="-", exp_digits=2)


def _solver_configs(tolerances: Sequence[float], variables: Sequence[str]) -> List[tuple]:
    spec = catalog("bench-poisson")
    solvers = [("lu", 1e-10, "lu", "direct")] + [
        ("cg", float(tol), f"cg-{_tol_token(tol)}", f"cg tol_prm={tol:g}") for tol in tolerances
    ]
    return [
        (spec, f"solver-{tag}", label, "standard", 2, var, "S", solver, tol)
        for solver, tol, tag, label in solvers
        for var in variables
    ]


def _lu_configs(kind: str, case: int, flavor: str, scheme: str,
                variables: Sequence[str]) -> List[tuple]:
    """One LU configuration per (spec, token, label) case and variable.

    '{scheme}' in a token or label stands for the variable's scaling scheme,
    which 'auto' resolves by `default_scheme`.
    """
    if kind == "magnitude":
        if case not in _COEFF_GRID:
            raise ValueError(f"magnitude study covers cases 1..5, got {case}")
        cases = [
            (catalog(f"case{case}", coefficient=float(c)),
             f"magnitude-case{case}-c{c:.0e}-{{scheme}}", f"case{case} c={c:g} scheme={{scheme}}")
            for c in _COEFF_GRID[case]
        ]
    else:
        pairs = [("boundary-dd", catalog("bench-poisson")),
                 ("boundary-dn", poisson_neumann_variant())]
        cases = [(spec, token, spec.label) for token, spec in pairs]
    if flavor not in _MAGNITUDE_P:
        raise ValueError(f"unknown flavor {flavor!r}")
    configs = []
    for spec, token, label in cases:
        for var in variables:
            var_scheme = default_scheme(flavor, var) if scheme == "auto" else scheme
            configs.append((spec, token.format(scheme=var_scheme), label.format(scheme=var_scheme),
                            flavor, _MAGNITUDE_P[flavor], var, var_scheme, "lu", 1e-10))
    return configs


def sensitivity_suite(
    kind: str,
    out_dir: Optional[str] = None,
    case: int = 1,
    flavor: str = "standard",
    scheme: str = "auto",
    variables: Optional[Sequence[str]] = None,
    tolerances: Sequence[float] = (1e-10, 1e-4),
    n_max: Optional[int] = None,
    rise_streak=SUITE_STREAK,
) -> CalibrationReport:
    """Measure floor fits across one axis of variation and export the curves.

    kind 'solver' compares direct and iterative solves at the given tolerance
    list; 'magnitude' walks the coefficient grid of the selected catalog case;
    'boundary' compares the essential/essential benchmark against its
    essential/natural variant.  n_max and rise_streak override the suite's
    cap and stop rule.  With out_dir set, each configuration writes one CSV
    and the run records its path.  An option the suite does not read must
    keep its default, or the suite raises ValueError naming it.
    """
    if kind == "solver":
        unread = {"case": case != 1, "flavor (--fem)": flavor != "standard",
                  "scheme": scheme not in ("auto", "S")}
        used = tuple(variables) if variables is not None else ("u", "ux")
        configs = _solver_configs(tolerances, used)
        cap, streak = 20000, 4
    elif kind in ("magnitude", "boundary"):
        unread = {"case": kind == "boundary" and case != 1,
                  "tolerances (--tol-prm)": tuple(tolerances) != (1e-10, 1e-4)}
        used = tuple(variables) if variables is not None else ("u", "ux", "uxx")
        configs = _lu_configs(kind, case, flavor, scheme, used)
        cap, streak = _SWEEP_CAP[flavor], None
    else:
        raise ValueError(f"unknown suite kind {kind!r}")
    ignored = [name for name, changed in unread.items() if changed]
    if ignored:
        raise ValueError(f"the {kind} suite does not read {', '.join(ignored)}")
    cap = n_max if n_max is not None else cap
    streak = rise_streak if rise_streak is not SUITE_STREAK else streak
    directory = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    cpu, kernel = cpu_identifier(), blas_kernel()
    runs = []
    for spec, token, label, flv, p, var, var_scheme, solver, tol_prm in configs:
        curve = brute_force_sweep(spec, flv, p, var, scheme=var_scheme, n_max=cap,
                                  rise_streak=streak, solver=solver, tol_prm=tol_prm)
        try:
            fit, note = fit_floor(curve), ""
        except ValueError as err:
            fit, note = None, str(err)
        run = CalibrationRun(suite=kind, label=label, problem=spec.label, flavor=flv, p=p,
                             var=var, solver=solver, tol_prm=tol_prm, scheme=var_scheme,
                             curve=curve, fit=fit, note=note)
        if directory is not None:
            run.csv_path = str(directory / f"{token}_{flv}_{p}_{var}.csv")
            write_curve_csv(run.csv_path, _csv_comments(run, cpu, kernel), curve)
        runs.append(run)
    return CalibrationReport(suite=kind, cpu=cpu, runs=runs)
