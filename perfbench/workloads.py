"""The three benchmark workloads, their correctness checks and fingerprints.

A workload is a fixed set of operations on fixed problems: one brute-force
curve, one `prediction_loop` call or one `fit_floor` call per operation.
Operations come in groups (one group per (flavor, p, var) tuple); a pass
runs every group once, and the seed only shuffles the group order.  The
problems never change with the seed: the reference problems carry known
defects that must stay visible, and iterative cost depends strongly on the
right-hand side.

Each workload may also compute reference curves once per run, before any
pass and outside every timed region; their checks count like any other
operation's.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import fem_errbal
from fem_errbal.error_analysis import DEFAULT_ALPHA_R

# A banded LU with partial pivoting leaves relative residuals near machine
# precision times the band growth; the largest seen on these workloads is
# 2.2e-9 (validation-helmholtz, ill-conditioned near x = 0).  A solve above
# this bound counts as a failed operation.
RESIDUAL_BOUND = 1e-6
RATE_TOLERANCE = 0.25  # asymptotic rate vs beta_T, as in acceptance check 1
SLOPE_TOLERANCE = 0.5  # fit_floor slope vs beta_R, as in acceptance check 3
ITERATIVE_TOLERANCE = 0.10  # CG/Schur vs LU before the floor, as in check 7
NOPT_RATIO_LIMIT = 4.0  # mixed p=4 N_opt vs the published optima, as in check 6
# check 6's published optima count complex pairs; split systems count reals
VALIDATION_NOPT = {"u": 2 * 6042.0, "ux": 2 * 9812.0, "uxx": 2 * 123486.0}


@dataclass(frozen=True)
class Op:
    key: str
    kind: str  # 'sweep' | 'predict' | 'fit'
    run: Callable[[dict, dict], Any]  # (specs, results so far) -> result
    flavor: str
    p: int
    var: str
    rate_checked: bool = True


def _sweep(problem, flavor, p, var, n_max, solver="lu", rise_streak=None, tag="",
           rate_checked=True):
    key = f"sweep{tag} {problem} {flavor} p={p} {var} {solver}"

    def run(specs, results):
        return fem_errbal.brute_force_sweep(
            specs[problem], flavor, p, var, n_max=n_max, rise_streak=rise_streak, solver=solver
        )

    return Op(key, "sweep", run, flavor, p, var, rate_checked)


def _predict(problem, flavor, p, var, solver="lu"):
    key = f"predict {problem} {flavor} p={p} {var} {solver}"

    def run(specs, results):
        return fem_errbal.prediction_loop(specs[problem], flavor, p, var, solver=solver)

    return Op(key, "predict", run, flavor, p, var)


def _fit(sweep: Op):
    def run(specs, results):
        return fem_errbal.fit_floor(results[sweep.key])

    return Op("fit " + sweep.key, "fit", run, sweep.flavor, sweep.p, sweep.var)


def _gap(prediction, curve) -> float:
    return abs(math.log10(prediction.E_min / curve.locate_min().value))


class Workload:
    """Groups of operations run every pass, plus once-per-run references.

    `tiny` shrinks every size for smoke tests.
    """

    name = ""
    problems: tuple[str, ...] = ()

    def __init__(self, tiny: bool = False):
        self.groups: list[list[Op]] = []
        self.references: list[Op] = []

    def extra_checks(self, op: Op, result, references: dict) -> list[str]:
        return []

    def gap(self, results: dict, references: dict) -> float:
        """Worst E_min gap in decades; groups here start with (predict, sweep)."""
        return max(_gap(results[g[0].key], results[g[1].key]) for g in self.groups)


class FloorSweep(Workload):
    name = "floor-sweep"
    problems = ("bench-poisson",)

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        caps = (8193, 32768) if tiny else (524_289, 131_072)
        for (flavor, p), cap in zip((("standard", 2), ("mixed", 4)), caps):
            sweep = _sweep("bench-poisson", flavor, p, "u", cap)
            self.groups.append([_predict("bench-poisson", flavor, p, "u"), sweep, _fit(sweep)])


class PredictGrid(Workload):
    name = "predict-grid"
    problems = ("validation-helmholtz",)
    _GAP_TUPLE = ("standard", 5, "u")

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        if tiny:
            tuples = [("standard", 2, "u"), ("mixed", 4, "u"), self._GAP_TUPLE]
        else:
            tuples = [
                (flavor, p, var)
                for flavor in ("standard", "mixed")
                for p in range(1, 6)
                for var in ("u", "ux", "uxx")
                if fem_errbal.variable_available(flavor, var, p)
            ]
        self.groups = [[_predict("validation-helmholtz", *t)] for t in tuples]
        self._gap_key = _predict("validation-helmholtz", *self._GAP_TUPLE).key
        # the problem has no closed form, so E_min is compared against one
        # cheap brute-force curve computed once per run.  Its diffusion nearly
        # vanishes at x = 0 and the refined-estimator rates are still rising
        # (4.0, 4.6, 5.3 toward beta_T = 6) when the floor takes over, so the
        # asymptotic-rate check, like acceptance check 1, is left to the
        # problems with a closed-form solution.
        self.references = [
            _sweep("validation-helmholtz", *self._GAP_TUPLE, n_max=None, rise_streak=3,
                   tag=" reference", rate_checked=False)
        ]

    def extra_checks(self, op, result, references):
        if op.kind == "predict" and op.flavor == "mixed" and op.p == 4:
            target = VALIDATION_NOPT[op.var]
            ratio = max(result.N_opt_real / target, target / result.N_opt_real)
            if not ratio <= NOPT_RATIO_LIMIT:
                return [f"N_opt_real {result.N_opt_real:.6g} is {ratio:.2f}x off {target:g}"]
        return []

    def gap(self, results, references):
        return _gap(results[self._gap_key], references[self.references[0].key])


class Iterative(Workload):
    name = "iterative"
    problems = ("bench-poisson",)

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        caps = (1025, 1536) if tiny else (8193, 3072)
        for (flavor, p, solver), cap in zip((("standard", 2, "cg"), ("mixed", 3, "schur")), caps):
            self.groups.append([
                _predict("bench-poisson", flavor, p, "u", solver=solver),
                _sweep("bench-poisson", flavor, p, "u", cap, solver=solver),
            ])
            self.references.append(_sweep("bench-poisson", flavor, p, "u", cap, tag=" reference"))

    def extra_checks(self, op, result, references):
        if op.kind != "sweep" or op in self.references:
            return []
        lu = references[next(r.key for r in self.references
                             if (r.flavor, r.p) == (op.flavor, op.p))]
        # before the floor: ahead of both minima and at least a decade above
        # them, so CG/Schur tolerance plateaus (Schur's sits near 5e-12) are
        # not mistaken for disagreement
        floor = 10.0 * max(lu.locate_min().value, result.locate_min().value)
        descent = min(lu.min_index, result.min_index)
        worst = max(
            (abs(it.value - ref.value) / ref.value
             for it, ref in zip(result[:descent], lu[:descent]) if ref.value >= floor),
            default=math.inf,
        )
        if not worst <= ITERATIVE_TOLERANCE:
            return [f"{worst:.4f} relative deviation from LU before the floor"]
        return []


WORKLOADS = {w.name: w for w in (FloorSweep, PredictGrid, Iterative)}


# --- checks -----------------------------------------------------------------

def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check(workload: Workload, op: Op, result, reports, references) -> list[str]:
    """Reasons the operation failed; empty when every check passes."""
    reasons = []
    for report in reports:
        if not report.rel_residual <= RESIDUAL_BOUND:
            reasons.append(f"{report.method} relative residual {report.rel_residual:.3e} "
                           f"above {RESIDUAL_BOUND:g}")
    beta_t = fem_errbal.beta_T(op.flavor, op.var, op.p)
    beta_r = fem_errbal.beta_R(op.flavor)
    if op.kind == "sweep":
        values = [r.value for r in result]
        if not _finite(*values) or not _finite(*(r.observed_rate for r in result[1:])):
            return reasons + ["non-finite error value or rate"]
        if op.rate_checked:
            # pre-floor window as in acceptance check 1
            alpha_r = DEFAULT_ALPHA_R[op.var]
            rates = [r.observed_rate for r in result
                     if r.observed_rate is not None and r.value > 1e4 * alpha_r * r.n_dof**beta_r]
            tail = statistics.median(rates[-3:]) if rates else math.nan
            if not abs(tail - beta_t) <= RATE_TOLERANCE:
                reasons.append(f"asymptotic rate {tail:.3f} vs beta_T {beta_t}")
    elif op.kind == "predict":
        if result.status != "converged":
            reasons.append(f"status {result.status}")
        elif not _finite(result.E_min, result.N_opt_real):
            return reasons + ["non-finite E_min or N_opt_real"]
    elif op.kind == "fit":
        if not _finite(result.alpha_R_hat, result.beta_R_hat):
            return reasons + ["non-finite floor fit"]
        if not abs(result.beta_R_hat - beta_r) <= SLOPE_TOLERANCE:
            reasons.append(f"floor slope {result.beta_R_hat:.3f} vs beta_R {beta_r}")
    return reasons + workload.extra_checks(op, result, references)


# --- fingerprint ------------------------------------------------------------

def _g(value) -> str:
    return "None" if value is None else f"{value:.17g}"


def canonical(op: Op, result, reports) -> str:
    """17-significant-digit text of an operation's outputs and iteration counts."""
    lines = [op.key]
    if isinstance(result, BaseException):
        lines.append(f"error {type(result).__name__}")
    elif op.kind == "sweep":
        lines += [f"{r.refinement_level} {r.n_dof} {_g(r.value)} {_g(r.observed_rate)}"
                  for r in result]
    elif op.kind == "predict":
        lines.append(f"{result.status} {_g(result.N_opt_real)} {_g(result.E_min)}")
    elif op.kind == "fit":
        lines.append(f"{_g(result.alpha_R_hat)} {_g(result.beta_R_hat)}")
    lines.append("iterations " + " ".join(str(r.iterations) for r in reports))
    return "\n".join(lines)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(op_digests: dict[str, str]) -> str:
    """Order-independent sha256 over every operation's digest."""
    return digest("\n".join(f"{k} {op_digests[k]}" for k in sorted(op_digests)))
