"""Command line front end: sweeps, predictions, validation, calibration.

Options come from flags, optionally seeded by a flat key=value file given
with --config; flags win over file entries.  Nothing here draws random
numbers, so repeated invocations with one configuration produce identical
output bytes apart from lines prefixed '# timing', which carry wall-clock
measurements.  All numeric output uses 17 significant digits so files
round-trip exactly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .calibration import sensitivity_suite
from .error_analysis import beta_R, beta_T, variable_available
from .prediction import (AlgorithmDefaults, PredictionResult, brute_force_sweep,
                         prediction_loop, solve_level)
from .problem import CATALOG_NAMES, VARIABLES, catalog

_FLAVORS = ("standard", "mixed")
_SCHEMES = ("auto", "none", "S", "M1", "M2")
_SOLVERS = ("lu", "cg", "schur")
_SUITES = ("solver", "magnitude", "boundary")


class ConfigError(Exception):
    """Anything wrong with the requested configuration; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name} expects a number, got {text!r}") from None


def _parse_int(text: str, name: str) -> int:
    try:
        return int(str(text).replace("_", ""))
    except ValueError:
        raise ConfigError(f"{name} expects an integer, got {text!r}") from None


def _parse_degrees(text: str) -> Tuple[int, ...]:
    """Degree sets: '2', '1,3', '1..5', or any comma mix of the two forms."""
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo, _, hi = token.partition("..")
            lo_i = _parse_int(lo, "--p")
            hi_i = _parse_int(hi, "--p")
            out.extend(range(lo_i, hi_i + 1))
        else:
            out.append(_parse_int(token, "--p"))
    degrees = tuple(sorted(set(out)))
    if not degrees:
        raise ConfigError("the degree set is empty")
    if degrees[0] < 1:
        raise ConfigError(f"degrees start at 1, got {degrees[0]}")
    return degrees


def _parse_variables(text: str) -> Tuple[str, ...]:
    requested = [t.strip() for t in str(text).split(",") if t.strip()]
    unknown = [t for t in requested if t not in VARIABLES]
    if unknown:
        raise ConfigError(
            f"unknown variable(s) {', '.join(unknown)}; expected {', '.join(VARIABLES)}"
        )
    if not requested:
        raise ConfigError("the variable set is empty")
    return tuple(v for v in VARIABLES if v in requested)


def _parse_tolerance_list(text: str) -> Tuple[float, ...]:
    values = tuple(
        _parse_float(t.strip(), "--tol-prm") for t in str(text).split(",") if t.strip()
    )
    if not values:
        raise ConfigError("--tol-prm expects at least one tolerance")
    return values


def _parse_streak(text: str) -> Optional[int]:
    if str(text).strip().lower() == "none":
        return None
    value = _parse_int(text, "--rise-streak")
    if value < 1:
        raise ConfigError("--rise-streak must be positive (or 'none' to walk to the cap)")
    return value


def _choice(text: str, name: str, allowed: Tuple[str, ...]) -> str:
    if text not in allowed:
        raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {text!r}")
    return text


def _parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value lines; '#' starts a comment, keys may use '-' or '_'."""
    try:
        raw = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from None
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


@dataclass
class RunConfig:
    """Resolved settings for one invocation; every run is seed free."""

    subcommand: str
    problem: str = ""
    coefficient: Optional[float] = None
    fem: str = "standard"
    degrees: Tuple[int, ...] = (2,)
    variables: Optional[Tuple[str, ...]] = ("u",)
    tol_var: Optional[float] = None
    solver: str = "lu"
    tol_prm: float = 1e-10
    scheme: str = "auto"
    n_max: Optional[int] = 10**8
    rise_streak: Optional[int] = 3
    out_dir: str = "."
    suite: str = ""
    case: int = 1
    tolerances: Tuple[float, ...] = (1e-10, 1e-4)
    json_path: Optional[str] = None


# per-subcommand option tables: dest -> (converter, fallback); converters see
# raw strings from either the command line or the config file
_COMMON = {
    "problem": (str, ""),
    "coefficient": (lambda t: _parse_float(t, "--coefficient"), None),
    "fem": (lambda t: _choice(t, "--fem", _FLAVORS), "standard"),
    "degrees": (_parse_degrees, (2,)),
    "variables": (_parse_variables, ("u",)),
    "solver": (lambda t: _choice(t, "--solver", _SOLVERS), "lu"),
    "tol_prm": (lambda t: _parse_float(t, "--tol-prm"), 1e-10),
    "scheme": (lambda t: _choice(t, "--scheme", _SCHEMES), "auto"),
    "n_max": (lambda t: _parse_int(t, "--n-max"), 10**8),
    "out_dir": (str, "."),
}
_OPTIONS = {
    "sweep": dict(_COMMON, rise_streak=(_parse_streak, 3)),
    "predict": dict(
        _COMMON,
        tol_var=(lambda t: _parse_float(t, "--tol"), None),
        json_path=(str, None),
    ),
    "validate": dict(
        _COMMON,
        tol_var=(lambda t: _parse_float(t, "--tol"), None),
        rise_streak=(_parse_streak, 3),
    ),
    "calibrate": {
        "suite": (lambda t: _choice(t, "--suite", _SUITES), ""),
        "case": (lambda t: _parse_int(t, "--case"), 1),
        "fem": (lambda t: _choice(t, "--fem", _FLAVORS), "standard"),
        "scheme": (lambda t: _choice(t, "--scheme", _SCHEMES), "auto"),
        "variables": (_parse_variables, None),
        "tolerances": (_parse_tolerance_list, (1e-10, 1e-4)),
        "n_max": (lambda t: _parse_int(t, "--n-max"), None),
        "rise_streak": (_parse_streak, None),
        "out_dir": (str, "."),
    },
    "catalog": {},
}


def _resolve(args: argparse.Namespace) -> RunConfig:
    options = _OPTIONS[args.subcommand]
    file_entries = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_entries) - set(options)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    resolved = {}
    for dest, (convert, fallback) in options.items():
        raw = getattr(args, dest, None)
        if raw is None:
            raw = file_entries.get(dest)
        resolved[dest] = fallback if raw is None else convert(raw)
    return RunConfig(subcommand=args.subcommand, **resolved)


def _lookup_problem(config: RunConfig):
    if not config.problem:
        raise ConfigError(
            f"a problem name is required; available: {', '.join(CATALOG_NAMES)}"
        )
    return catalog(config.problem, config.coefficient)


def _combos(config: RunConfig):
    """(p, var) product in stable order; unavailable pairs are warned away."""
    runnable, skipped = [], []
    for p in config.degrees:
        for var in config.variables:
            target = runnable if variable_available(config.fem, var, p) else skipped
            target.append((p, var))
    for p, var in skipped:
        print(f"warning: {var} is not defined for {config.fem} p={p}; skipping", file=sys.stderr)
    if not runnable:
        raise ConfigError("no runnable (degree, variable) combinations remain")
    return runnable


def _out_dir(config: RunConfig) -> Path:
    directory = Path(config.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", newline="\n")


def cmd_sweep(config: RunConfig) -> int:
    spec = _lookup_problem(config)
    directory = _out_dir(config)
    written = 0
    for p, var in _combos(config):
        curve = brute_force_sweep(
            spec,
            config.fem,
            p,
            var,
            scheme=config.scheme,
            n_max=config.n_max,
            rise_streak=config.rise_streak,
            solver=config.solver,
            tol_prm=config.tol_prm,
        )
        path = directory / f"sweep_{spec.label}_{config.fem}_p{p}_{var}.csv"
        lines = [
            f"# problem={spec.label} fem={config.fem} p={p} var={var} "
            f"scheme={config.scheme} solver={config.solver} tol_prm={_fmt(config.tol_prm)}",
            f"# estimator={curve[0].estimator}",
            "REF,N_h,E_h,rate",
        ]
        for rec in curve:
            rate = float("nan") if rec.observed_rate is None else rec.observed_rate
            lines.append(f"{rec.refinement_level},{rec.n_dof},{_fmt(rec.value)},{_fmt(rate)}")
        _write_lines(path, lines)
        written += 1
        low = curve.locate_min()
        print(
            f"sweep {config.fem} p={p} {var}: {len(curve)} levels -> {path}; "
            f"minimum E={low.value:.6e} at REF={low.refinement_level} N={low.n_dof}"
        )
    print(f"wrote {written} file(s) to {directory}")
    return 0


def _result_json(result: PredictionResult, defaults: AlgorithmDefaults) -> dict:
    model = result.model
    return {
        "problem": result.problem,
        "fem": result.flavor,
        "p": result.p,
        "var": result.var,
        "N_c": result.N_c,
        "E_c": result.E_c,
        "alpha_T": None if model is None else model.alpha_T,
        "beta_T": float(beta_T(result.flavor, result.var, result.p)),
        "alpha_R": defaults.alpha_R[result.var],
        "beta_R": float(beta_R(result.flavor)),
        "N_opt_real": result.N_opt_real,
        "N_opt_mesh": result.N_opt_mesh,
        "E_min": result.E_min,
        "reachable": result.reachable,
        "status": result.status,
        "refinements_used": result.refinements_used,
    }


def _verdict(reachable: Optional[bool]) -> str:
    return "-" if reachable is None else ("yes" if reachable else "no")


def cmd_predict(config: RunConfig) -> int:
    spec = _lookup_problem(config)
    defaults = AlgorithmDefaults(n_max=config.n_max)
    results = [
        prediction_loop(
            spec,
            config.fem,
            p,
            var,
            tol_var=config.tol_var,
            defaults=defaults,
            scheme=config.scheme,
            solver=config.solver,
            tol_prm=config.tol_prm,
        )
        for p, var in _combos(config)
    ]
    print(f"problem={spec.label} fem={config.fem}")
    print(f"{'p':>3} {'var':<4} {'status':<28} {'N_opt':>10} {'E_min':>13} {'reachable':>9}")
    for res in results:
        print(
            f"{res.p:>3} {res.var:<4} {res.status:<28} {res.N_opt_mesh:>10} "
            f"{res.E_min:>13.3e} {_verdict(res.reachable):>9}"
        )
    payload = [_result_json(res, defaults) for res in results]
    path = Path(config.json_path) if config.json_path else (
        _out_dir(config) / f"predict_{spec.label}_{config.fem}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", newline="\n")
    print(f"wrote {path}")
    return 0


def _timed_optimal_solve(spec, config: RunConfig, result: PredictionResult) -> float:
    """One solve on the predicted optimal mesh, timed; the PRED+ increment."""
    start = time.perf_counter()
    solve_level(spec, result.flavor, result.p, result.N_opt_mesh_ref, result.scheme,
                result.factors, config.solver, config.tol_prm)
    return time.perf_counter() - start


def cmd_validate(config: RunConfig) -> int:
    spec = _lookup_problem(config)
    defaults = AlgorithmDefaults(n_max=config.n_max)
    rows, timing_lines = [], []
    print(f"problem={spec.label} fem={config.fem}")
    header = (
        f"{'p':>3} {'var':<4} {'E_min_pred':>12} {'E_min_bf':>12} "
        f"{'N_opt_pred':>11} {'N_opt_bf':>9} {'t_pred':>8} {'t_pred+':>8} {'t_bf':>8} {'saved':>7}"
    )
    print(header)
    for p, var in _combos(config):
        start = time.perf_counter()
        result = prediction_loop(
            spec,
            config.fem,
            p,
            var,
            tol_var=config.tol_var,
            defaults=defaults,
            scheme=config.scheme,
            solver=config.solver,
            tol_prm=config.tol_prm,
        )
        t_pred = time.perf_counter() - start
        t_plus = t_pred + _timed_optimal_solve(spec, config, result)
        start = time.perf_counter()
        curve = brute_force_sweep(
            spec,
            config.fem,
            p,
            var,
            scheme=config.scheme,
            n_max=config.n_max,
            rise_streak=config.rise_streak,
            solver=config.solver,
            tol_prm=config.tol_prm,
        )
        t_bf = time.perf_counter() - start
        low = curve.locate_min()
        saved = 100.0 * (1.0 - t_plus / t_bf) if t_bf > 0 else float("nan")
        rows.append(
            f"{config.fem},{p},{var},{result.status},{_fmt(result.E_min)},"
            f"{result.N_opt_mesh},{_fmt(low.value)},{low.n_dof}"
        )
        timing_lines.append(
            f"# timing {config.fem} p={p} {var}: PRED {t_pred:.3f}s "
            f"PRED+ {t_plus:.3f}s BF {t_bf:.3f}s saved {saved:.1f}%"
        )
        print(
            f"{p:>3} {var:<4} {result.E_min:>12.3e} {low.value:>12.3e} "
            f"{result.N_opt_mesh:>11} {low.n_dof:>9} {t_pred:>7.3f}s {t_plus:>7.3f}s "
            f"{t_bf:>7.3f}s {saved:>6.1f}%"
        )
    directory = _out_dir(config)
    path = directory / f"validate_{spec.label}_{config.fem}.csv"
    lines = [
        f"# problem={spec.label} fem={config.fem} scheme={config.scheme} "
        f"solver={config.solver} tol_prm={_fmt(config.tol_prm)}",
        "fem,p,var,status,E_min_pred,N_opt_mesh,E_min_bf,N_opt_bf",
    ]
    _write_lines(path, lines + rows + timing_lines)
    print(f"wrote {path}")
    return 0


def cmd_calibrate(config: RunConfig) -> int:
    if not config.suite:
        raise ConfigError(f"--suite is required; one of {', '.join(_SUITES)}")
    report = sensitivity_suite(
        config.suite,
        out_dir=str(_out_dir(config)),
        case=config.case,
        flavor=config.fem,
        scheme=None if config.scheme == "auto" else config.scheme,
        variables=config.variables,
        tolerances=config.tolerances,
        n_max=config.n_max,
        rise_streak=config.rise_streak,
    )
    print(report.header())
    for run in report.runs:
        if run.fit is not None:
            fit = run.fit
            detail = (
                f"alpha_R_hat={_fmt(fit.alpha_R_hat)} beta_R_hat={fit.beta_R_hat:.4f} "
                f"points={fit.point_count} residual={fit.residual:.3f}"
            )
        else:
            detail = f"no floor fit ({run.note})"
        print(f"{run.label} [{run.var}]: {detail}")
    return 0


def cmd_catalog(config: RunConfig) -> int:
    for name in CATALOG_NAMES:
        needs_c = name.startswith("case")
        spec = catalog(name, 1.0) if needs_c else catalog(name)
        usage = f"{name} --coefficient C" if needs_c else name
        exact = "closed-form solution" if spec.has_exact else "refined-solution estimator"
        kind = "complex valued" if spec.complex_valued else "real valued"
        print(f"{usage:<28} {exact}; {kind}")
    return 0


_DISPATCH = {
    "sweep": cmd_sweep,
    "predict": cmd_predict,
    "validate": cmd_validate,
    "calibrate": cmd_calibrate,
    "catalog": cmd_catalog,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fem-errbal",
        description="1D FEM error sweeps and attainable-accuracy prediction",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--problem", help="catalog problem name")
        sp.add_argument("--coefficient", help="coefficient for the case1..case5 families")
        sp.add_argument("--fem", help="standard | mixed (default standard)")
        sp.add_argument("--p", dest="degrees", help="degree set: '2', '1,3', or '1..5'")
        sp.add_argument("--var", dest="variables", help="comma list from u,ux,uxx")
        sp.add_argument("--solver", help="lu | cg | schur (default lu)")
        sp.add_argument("--tol-prm", dest="tol_prm", help="iterative solver tolerance")
        sp.add_argument("--scheme", help="scaling: auto | none | S | M1 | M2")
        sp.add_argument("--n-max", dest="n_max", help="DoF cap")
        sp.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
        sp.add_argument("--config", help="flat key=value file; flags override")

    sp = sub.add_parser("sweep", help="measure the full error curve per (p, var)")
    add_common(sp)
    sp.add_argument("--rise-streak", dest="rise_streak", help="stop after this many rises, or 'none'")

    sp = sub.add_parser("predict", help="predict attainable accuracy from coarse refinements")
    add_common(sp)
    sp.add_argument("--tol", dest="tol_var", help="target accuracy for the reachable verdict")
    sp.add_argument("--json", dest="json_path", help="JSON output path")

    sp = sub.add_parser("validate", help="prediction versus brute force, with timings")
    add_common(sp)
    sp.add_argument("--tol", dest="tol_var", help="target accuracy for the reachable verdict")
    sp.add_argument("--rise-streak", dest="rise_streak", help="brute-force stop streak, or 'none'")

    sp = sub.add_parser("calibrate", help="round-off floor sensitivity suites")
    sp.add_argument("--suite", help="solver | magnitude | boundary")
    sp.add_argument("--case", help="coefficient family for the magnitude suite")
    sp.add_argument("--fem", help="standard | mixed (default standard)")
    sp.add_argument("--scheme", help="scaling override; default per-variable")
    sp.add_argument("--var", dest="variables", help="comma list from u,ux,uxx")
    sp.add_argument("--tol-prm", dest="tolerances", help="comma list of iterative tolerances")
    sp.add_argument("--n-max", dest="n_max", help="DoF cap override")
    sp.add_argument("--rise-streak", dest="rise_streak", help="stop streak override, or 'none'")
    sp.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    sp.add_argument("--config", help="flat key=value file; flags override")

    sp = sub.add_parser("catalog", help="list the built-in problems")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(args)
        return _DISPATCH[config.subcommand](config)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
