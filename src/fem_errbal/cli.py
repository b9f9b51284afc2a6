"""Command line front end: sweeps, predictions, validation, calibration.

Options come from flags, optionally seeded by a flat key=value file given
with --config; flags win over file entries.  Each option's default and
converter are declared once, in build_parser; file entries become defaults
of the subcommand's parser, so they pass through the same converters.
Nothing here draws random numbers, so repeated invocations with one
configuration produce identical output bytes apart from lines prefixed
'# timing', which carry wall-clock measurements.  All numeric output uses 17 significant digits so files
round-trip exactly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .calibration import SUITE_STREAK, sensitivity_suite
from .error_analysis import DEFAULT_ALPHA_R, beta_R, beta_T, variable_available, write_curve_csv
from .mesh_basis import MAX_DEGREE
from .prediction import (N_MAX, SCHEMES, PredictionResult, brute_force_sweep, prediction_loop,
                         solve_level)
from .problem import CATALOG_NAMES, VARIABLES, catalog
from .solvers import SOLVERS

_FLAVORS = ("standard", "mixed")
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


def _parse_cap(text: str) -> int:
    value = _parse_int(text, "--n-max")
    if value < 1:
        raise ConfigError(f"--n-max must be positive, got {value}")
    return value


def _parse_positive(text: str, name: str) -> float:
    value = _parse_float(text, name)
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value:g}")
    return value


def _parse_degree(text: str) -> int:
    value = _parse_int(text, "--p")
    if value < 1:
        raise ConfigError(f"degrees start at 1, got {value}")
    if value > MAX_DEGREE:
        raise ConfigError(f"degrees go up to {MAX_DEGREE}, got {value}")
    return value


def _parse_degrees(text: str) -> Tuple[int, ...]:
    """Degree sets: '2', '1,3', '1..5', or any comma mix of the two forms.

    Every number is bounded before a range is expanded, so no range holds
    more than MAX_DEGREE entries and no degree fails after work has begun.
    """
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        lo, dots, hi = token.partition("..")
        first, last = _parse_degree(lo), _parse_degree(hi if dots else lo)
        if last < first:
            raise ConfigError(f"degree range {token!r} runs backwards")
        out.extend(range(first, last + 1))
    if not out:
        raise ConfigError("the degree set is empty")
    return tuple(sorted(set(out)))


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
    values = tuple(_parse_positive(t.strip(), "--tol-prm") for t in str(text).split(",")
                   if t.strip())
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


def _lookup_problem(args: argparse.Namespace):
    if not args.problem:
        raise ConfigError(
            f"a problem name is required; available: {', '.join(CATALOG_NAMES)}"
        )
    return catalog(args.problem, args.coefficient)


def _combos(args: argparse.Namespace):
    """(p, var) product in stable order; unavailable pairs are warned away."""
    runnable, skipped = [], []
    for p in args.degrees:
        for var in args.variables:
            target = runnable if variable_available(args.fem, var, p) else skipped
            target.append((p, var))
    for p, var in skipped:
        print(f"warning: {var} is not defined for {args.fem} p={p}; skipping", file=sys.stderr)
    if not runnable:
        raise ConfigError("no runnable (degree, variable) combinations remain")
    return runnable


def _out_dir(args: argparse.Namespace) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _sweep(spec, args: argparse.Namespace, p: int, var: str):
    return brute_force_sweep(spec, args.fem, p, var, scheme=args.scheme, n_max=args.n_max,
                             rise_streak=args.rise_streak, solver=args.solver,
                             tol_prm=args.tol_prm)


def _predict(spec, args: argparse.Namespace, p: int, var: str) -> PredictionResult:
    return prediction_loop(spec, args.fem, p, var, scheme=args.scheme, n_max=args.n_max,
                           solver=args.solver, tol_prm=args.tol_prm)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _lookup_problem(args)
    directory = _out_dir(args)
    written = 0
    for p, var in _combos(args):
        curve = _sweep(spec, args, p, var)
        path = directory / f"sweep_{spec.label}_{args.fem}_p{p}_{var}.csv"
        write_curve_csv(path, [
            f"problem={spec.label} fem={args.fem} p={p} var={var} "
            f"scheme={args.scheme} solver={args.solver} tol_prm={_fmt(args.tol_prm)}",
            f"estimator={curve[0].estimator}",
        ], curve)
        written += 1
        low = curve.locate_min()
        print(
            f"sweep {args.fem} p={p} {var}: {len(curve)} levels -> {path}; "
            f"minimum E={low.value:.6e} at REF={low.refinement_level} N={low.n_dof}"
        )
    print(f"wrote {written} file(s) to {directory}")
    return 0


def _result_json(result: PredictionResult, reachable: Optional[bool]) -> dict:
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
        "alpha_R": DEFAULT_ALPHA_R[result.var],
        "beta_R": float(beta_R(result.flavor)),
        "N_opt_real": result.N_opt_real,
        "N_opt_mesh": result.N_opt_mesh,
        "E_min": result.E_min,
        "reachable": reachable,
        "status": result.status,
        "refinements_used": result.refinements_used,
    }


def cmd_predict(args: argparse.Namespace) -> int:
    spec = _lookup_problem(args)
    results = [_predict(spec, args, p, var) for p, var in _combos(args)]
    verdicts = [None if args.tol is None else res.E_min <= args.tol for res in results]
    print(f"problem={spec.label} fem={args.fem}")
    print(f"{'p':>3} {'var':<4} {'status':<28} {'N_opt':>10} {'E_min':>13} {'reachable':>9}")
    for res, reachable in zip(results, verdicts):
        shown = "-" if reachable is None else ("yes" if reachable else "no")
        print(
            f"{res.p:>3} {res.var:<4} {res.status:<28} {res.N_opt_mesh:>10} "
            f"{res.E_min:>13.3e} {shown:>9}"
        )
    payload = [_result_json(res, reachable) for res, reachable in zip(results, verdicts)]
    path = Path(args.json_path) if args.json_path else (
        _out_dir(args) / f"predict_{spec.label}_{args.fem}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", newline="\n")
    print(f"wrote {path}")
    return 0


def _timed_optimal_solve(spec, args: argparse.Namespace, result: PredictionResult) -> float:
    """One solve on the predicted optimal mesh, timed; the PRED+ increment.

    NaN without a solve when that mesh exceeds the --n-max cap.
    """
    if result.N_opt_mesh > args.n_max:
        return float("nan")
    start = time.perf_counter()
    solve_level(spec, result.flavor, result.p, result.N_opt_mesh_ref, args.solver, args.tol_prm)
    return time.perf_counter() - start


def _timing(value: float, spec: str, unit: str) -> str:
    """A measured time or share with its unit; 'nan' for one not measured."""
    return f"{value:{spec}}{unit}" if np.isfinite(value) else "nan"


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _lookup_problem(args)
    rows, timing_lines = [], []
    print(f"problem={spec.label} fem={args.fem}")
    header = (
        f"{'p':>3} {'var':<4} {'E_min_pred':>12} {'E_min_bf':>12} "
        f"{'N_opt_pred':>11} {'N_opt_bf':>9} {'t_pred':>8} {'t_pred+':>8} {'t_bf':>8} {'saved':>7}"
    )
    print(header)
    for p, var in _combos(args):
        start = time.perf_counter()
        result = _predict(spec, args, p, var)
        t_pred = time.perf_counter() - start
        t_plus = t_pred + _timed_optimal_solve(spec, args, result)
        start = time.perf_counter()
        curve = _sweep(spec, args, p, var)
        t_bf = time.perf_counter() - start
        low = curve.locate_min()
        saved = 100.0 * (1.0 - t_plus / t_bf) if t_bf > 0 else float("nan")
        rows.append(
            f"{args.fem},{p},{var},{result.status},{_fmt(result.E_min)},"
            f"{result.N_opt_mesh},{_fmt(low.value)},{low.n_dof}"
        )
        pred, plus, bf = (_timing(t, ".3f", "s") for t in (t_pred, t_plus, t_bf))
        share = _timing(saved, ".1f", "%")
        timing_lines.append(
            f"# timing {args.fem} p={p} {var}: PRED {pred} PRED+ {plus} BF {bf} saved {share}"
        )
        print(
            f"{p:>3} {var:<4} {result.E_min:>12.3e} {low.value:>12.3e} "
            f"{result.N_opt_mesh:>11} {low.n_dof:>9} {pred:>8} {plus:>8} {bf:>8} {share:>7}"
        )
    directory = _out_dir(args)
    path = directory / f"validate_{spec.label}_{args.fem}.csv"
    lines = [
        f"# problem={spec.label} fem={args.fem} scheme={args.scheme} "
        f"solver={args.solver} tol_prm={_fmt(args.tol_prm)}",
        "fem,p,var,status,E_min_pred,N_opt_mesh,E_min_bf,N_opt_bf",
    ]
    path.write_text("\n".join(lines + rows + timing_lines) + "\n", newline="\n")
    print(f"wrote {path}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    if not args.suite:
        raise ConfigError(f"--suite is required; one of {', '.join(_SUITES)}")
    report = sensitivity_suite(
        args.suite,
        out_dir=args.out_dir,
        case=args.case,
        flavor=args.fem,
        scheme=args.scheme,
        variables=args.variables,
        tolerances=args.tolerances,
        n_max=args.n_max,
        rise_streak=args.rise_streak,
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


def cmd_catalog(args: argparse.Namespace) -> int:
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


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fem-errbal",
        description="1D FEM error sweeps and attainable-accuracy prediction",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fem = dict(type=partial(_choice, name="--fem", allowed=_FLAVORS), default="standard",
               help="standard | mixed (default standard)")
    scheme = dict(type=partial(_choice, name="--scheme", allowed=("auto", *SCHEMES)),
                  default="auto")
    variables = dict(dest="variables", type=_parse_variables, help="comma list from u,ux,uxx")
    streak = dict(type=_parse_streak, default=3)
    out_dir = dict(default=".", help="output directory (default .)")
    config = dict(help="flat key=value file; flags override")

    def add_common(sp):
        sp.add_argument("--problem", help="catalog problem name")
        sp.add_argument("--coefficient", type=partial(_parse_float, name="--coefficient"),
                        help="coefficient for the case1..case5 families")
        sp.add_argument("--fem", **fem)
        sp.add_argument("--p", dest="degrees", type=_parse_degrees, default=(2,),
                        help="degree set: '2', '1,3', or '1..5'")
        sp.add_argument("--var", **variables, default=("u",))
        sp.add_argument("--solver", type=partial(_choice, name="--solver", allowed=SOLVERS),
                        default="lu",
                        help="lu | cg | schur (default lu: static condensation for real "
                             "standard systems with a positive diagonal, banded LU for every "
                             "other system)")
        sp.add_argument("--tol-prm", type=partial(_parse_positive, name="--tol-prm"),
                        default=1e-10,
                        help="iterative solver tolerance")
        sp.add_argument("--scheme", **scheme, help="scaling: auto | none | S | M1 | M2")
        sp.add_argument("--n-max", type=_parse_cap, default=N_MAX, help="DoF cap")
        sp.add_argument("--out-dir", **out_dir)
        sp.add_argument("--config", **config)

    sp = sub.add_parser("sweep", help="measure the full error curve per (p, var)")
    add_common(sp)
    sp.add_argument("--rise-streak", **streak, help="stop after this many rises, or 'none'")

    sp = sub.add_parser("predict", help="predict attainable accuracy from coarse refinements")
    add_common(sp)
    sp.add_argument("--tol", type=partial(_parse_positive, name="--tol"),
                    help="target accuracy for the reachable verdict")
    sp.add_argument("--json", dest="json_path", help="JSON output path")

    sp = sub.add_parser("validate", help="prediction versus brute force, with timings")
    add_common(sp)
    sp.add_argument("--rise-streak", **streak, help="brute-force stop streak, or 'none'")

    sp = sub.add_parser("calibrate", help="round-off floor sensitivity suites")
    sp.add_argument("--suite", type=partial(_choice, name="--suite", allowed=_SUITES),
                    help="solver | magnitude | boundary")
    sp.add_argument("--case", type=partial(_parse_int, name="--case"), default=1,
                    help="coefficient family for the magnitude suite")
    sp.add_argument("--fem", **fem)
    sp.add_argument("--scheme", **scheme, help="scaling override; default per-variable")
    sp.add_argument("--var", **variables)
    sp.add_argument("--tol-prm", dest="tolerances", type=_parse_tolerance_list,
                    default=(1e-10, 1e-4), help="comma list of iterative tolerances")
    sp.add_argument("--n-max", type=_parse_cap, help="DoF cap override")
    sp.add_argument("--rise-streak", type=_parse_streak, default=SUITE_STREAK,
                    help="stop streak override, or 'none'")
    sp.add_argument("--out-dir", **out_dir)
    sp.add_argument("--config", **config)

    sub.add_parser("catalog", help="list the built-in problems")
    for sp in sub.choices.values():
        sp.allow_abbrev = False  # else validate --tol would silently mean --tol-prm
    return parser, sub.choices


# float options, whose value may start with '-' without being a plain
# negative number (-inf, -nan, -1e400), which argparse takes for an option
_SIGNED_VALUE_OPTIONS = ("--coefficient", "--tol", "--tol-prm")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write '--option -value' as '--option=-value' for the float options,
    so that such a value reaches the option's converter and its message."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    argv = _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            entries = _parse_config_file(args.config)
            unknown = set(entries) - (set(vars(args)) - {"config", "subcommand"})
            if unknown:
                raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
            subparsers[args.subcommand].set_defaults(**entries)
            args = parser.parse_args(argv)
        return _DISPATCH[args.subcommand](args)
    except (RuntimeError, np.linalg.LinAlgError) as err:  # LinAlgError is a ValueError
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
