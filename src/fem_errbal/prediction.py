"""Attainable-accuracy prediction from coarse refinements.

The discretization error under h-refinement follows three phases: a
pre-asymptotic start, a truncation-dominated descent E_T = alpha_T N^-beta_T,
and a round-off dominated rise E_R = alpha_R N^beta_R.  Balancing the two
modeled branches gives the optimal DoF count and the highest attainable
accuracy in closed form:

    N_opt = (alpha_T beta_T / (alpha_R beta_R))^(1 / (beta_T + beta_R))
    E_min = alpha_T N_opt^-beta_T + alpha_R N_opt^beta_R

alpha_T is fitted from a single anchor point (N_c, E_c) taken where the
measured convergence rate first reaches the theoretical order (relaxed by
c_r); beta_T comes from the convergence table; alpha_R and beta_R come from
the calibrated round-off model.

The algorithm's parameters are fixed here (C_S, ref_min, c_r, DEFAULT_ALPHA_R);
callers set only the DoF cap n_max (N_MAX when None) and test E_min <= target.

Every scaling scheme only picks the frame the errors are measured in: the L2
norm of one variable (`frame_variable`), ||u|| under S and M2, and under M1
||u|| for u and ||u_x|| for u_x and u_xx.  Both methods solve every level
unscaled (`solve_level`) and divide each error value by the frame, which
keeps the alpha_R offsets magnitude-independent.  In prediction each coarse
level is solved once, and the NORMALIZATION stage reads the norm from the
same solves, refining until it changes by less than C_S.  A brute-force
sweep over the full ladder serves as the validation baseline; its frame is
the closed-form norm or, without a closed form, the norm settled by the same
C_S rule on its own unscaled ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .assembly import LinearSystem, assemble_mixed, assemble_standard
from .error_analysis import (
    DEFAULT_ALPHA_R,
    ErrorCurve,
    FieldView,
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
from .mesh_basis import MAX_REFINEMENT, build_mesh
from .problem import ProblemSpec, eval_exact
from .solvers import SolveReport, solve_system


C_S = 0.001  # relative change between adjacent levels at which a norm counts as settled
N_MAX = 10**8  # DoF cap of both methods when the caller gives none
SCHEMES = ("none", "S", "M1", "M2")  # the frames frame_variable knows; "auto" picks one


def ref_min(p: int) -> int:
    """Minimal refinements before the normalization and prediction stages."""
    return 9 - p if p < 6 else 4


def c_r(p: int) -> float:
    """Relaxation on the theoretical rate when detecting the asymptote."""
    if p < 4:
        return 0.9
    if p < 10:
        return 0.7
    return 0.5


@dataclass
class ErrorModel:
    """Two-branch error model E(N) = alpha_T N^-beta_T + alpha_R N^beta_R."""

    alpha_T: float
    beta_T: float
    alpha_R: float
    beta_R: float

    def __post_init__(self):
        for name in ("alpha_T", "beta_T", "alpha_R", "beta_R"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def truncation(self, n):
        return self.alpha_T * np.asarray(n, dtype=float) ** -self.beta_T

    def roundoff(self, n):
        return self.alpha_R * np.asarray(n, dtype=float) ** self.beta_R

    def evaluate(self, n):
        return self.truncation(n) + self.roundoff(n)


def fit_alpha_T(E_c: float, N_c: float, beta_T_value: float) -> float:
    """Truncation offset through the anchor: alpha_T = E_c / N_c^-beta_T."""
    if E_c <= 0 or N_c <= 0 or beta_T_value <= 0:
        raise ValueError("anchor error, DoF count, and rate must be positive")
    return E_c / N_c ** -beta_T_value


def predict_opt(model: ErrorModel) -> tuple[float, float]:
    """Stationary point of the two-branch model, as reals.

    Rounding N_opt to an achievable mesh is the caller's concern.
    """
    n_opt = (model.alpha_T * model.beta_T / (model.alpha_R * model.beta_R)) ** (
        1.0 / (model.beta_T + model.beta_R)
    )
    e_min = float(model.evaluate(n_opt))
    return float(n_opt), e_min


class NormalizationError(RuntimeError):
    def __init__(self, last_norm: float, refinement_level: int):
        if np.isfinite(last_norm):
            message = (f"norm estimate did not stabilize before the DoF cap "
                       f"(last value {last_norm:.6e} at refinement {refinement_level})")
        else:
            message = f"norm estimate is {last_norm} at refinement {refinement_level}"
        super().__init__(message)
        self.last_norm = last_norm
        self.refinement_level = refinement_level


def solve_level(
    spec: ProblemSpec,
    flavor: str,
    p: int,
    level: int,
    solver: str = "lu",
    tol_prm: float = 1e-10,
) -> tuple[LinearSystem, SolveReport]:
    """Assemble one level of the refinement ladder and solve it, unscaled."""
    mesh = build_mesh(level)
    if flavor == "standard":
        system = assemble_standard(spec, mesh, p=p)
    elif flavor == "mixed":
        system = assemble_mixed(spec, mesh, p=p)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return system, solve_system(system, solver, tol_prm=tol_prm)


def _settled_norm(norm_at: Callable[[int], float], spec: ProblemSpec, flavor: str, var: str,
                  p: int, n_max: int) -> float:
    """The C_S stop rule on norm_at(level), the L2 norm of var at that level.

    Refines until the norm changes by less than C_S relative between adjacent
    levels; comparisons start only after the minimal refinement count.  Raises
    NormalizationError at the DoF cap, or at once when the norm is NaN or inf.
    """
    level = max(ref_min(p), 1)
    prev = norm_at(level - 1)
    cur = norm_at(level)
    while host_dof_count(flavor, var, p, 1 << level, spec.complex_valued) < n_max:
        if not np.isfinite(cur):
            break  # a NaN or inf norm never stabilizes
        if cur != 0.0 and abs((cur - prev) / cur) < C_S:
            return cur
        level += 1
        prev, cur = cur, norm_at(level)
    raise NormalizationError(cur, level)


def default_scheme(flavor: str, var: str) -> str:
    """Variable-to-scheme mapping: S for standard; M2 for u and u_x, M1 for u_xx."""
    if flavor == "standard":
        return "S"
    return "M1" if var == "uxx" else "M2"


def frame_variable(flavor: str, scheme: str, var: str) -> Optional[str]:
    """The variable whose L2 norm puts var in the scheme's frame; None under 'none'.

    It is u under S and M2 and for u under M1, and ux for u_x and u_xx under
    M1 (the gradient unknown satisfies v = -u_x).  Raises when the scheme does
    not fit the formulation; callers run it before any solve, so a bad scheme
    costs nothing.
    """
    if scheme == "S" and flavor != "standard":
        raise ValueError("scheme S applies to the standard formulation")
    if scheme in ("M1", "M2") and flavor != "mixed":
        raise ValueError(f"scheme {scheme} applies to the mixed formulation")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scaling scheme {scheme!r}")
    if scheme == "none":
        return None
    return "ux" if scheme == "M1" and var != "u" else "u"


def _checked_frame(flavor: str, p: int, var: str, scheme: str) -> tuple[str, Optional[str]]:
    """The scheme with 'auto' resolved and its `frame_variable`; raises before any solve."""
    if not variable_available(flavor, var, p):
        raise ValueError(f"{var} is not available for {flavor} degree {p}")
    if scheme == "auto":
        scheme = default_scheme(flavor, var)
    return scheme, frame_variable(flavor, scheme, var)


@dataclass
class PredictionResult:
    """Outcome of the prediction stage for one (flavor, p, var) tuple.

    When the rate check never passes, status says why and E_min carries the
    best observed error with its mesh instead of a model-fitted value.
    """

    problem: str
    flavor: str
    p: int
    var: str
    scheme: str
    # 'converged' | 'hit_N_max' | 'round-off_before_asymptote' | 'non_finite'
    # (an error estimate came out NaN or inf)
    status: str
    refinements_used: int
    frame: float  # the norm each error estimate is divided by; 1 under 'none'
    N_c: Optional[int] = None
    E_c: Optional[float] = None
    model: Optional[ErrorModel] = None
    N_opt_real: Optional[float] = None
    N_opt_mesh_ref: Optional[int] = None
    N_opt_mesh: Optional[int] = None
    E_min: Optional[float] = None


def _enclosing_mesh(flavor: str, var: str, p: int, complex_valued: bool, n_target: float):
    """Smallest refinement level whose host DoF count reaches the target."""
    for level in range(MAX_REFINEMENT + 1):
        n = host_dof_count(flavor, var, p, 1 << level, complex_valued)
        if n >= n_target:
            return level, n
    return MAX_REFINEMENT, host_dof_count(flavor, var, p, 1 << MAX_REFINEMENT, complex_valued)


def prediction_loop(
    spec: ProblemSpec,
    flavor: str,
    p: int,
    var: str,
    scheme: str = "auto",
    n_max: Optional[int] = None,
    solver: str = "lu",
    tol_prm: float = 1e-10,
) -> PredictionResult:
    """Predict the attainable accuracy of one variable from coarse refinements.

    Walks the refinement ladder with unscaled solves, solving each level once,
    and estimates the error against the once-refined level.  The scheme fixes
    the frame: each estimate is divided by the norm of the `frame_variable`,
    read from the same ladder by the C_S rule.  At each level the loop first
    checks that the estimate still sits above the modeled round-off band and
    below the DoF cap n_max (N_MAX when None), then accepts the first level
    whose observed rate reaches beta_T c_r; the anchor fixes alpha_T and the
    closed form gives N_opt and E_min.  The status field reports the
    prediction's own outcomes.  Three errors pass through it: a norm that
    does not settle raises NormalizationError, and the solves' own
    NonConvergenceError (a CG or Schur budget or breakdown) and
    SingularMatrixError (an exactly singular LU pivot) come up from
    `solve_system` unchanged.
    """
    scheme, frame_var = _checked_frame(flavor, p, var, scheme)
    n_max = N_MAX if n_max is None else n_max
    names = {var, frame_var} - {None}

    fields: Dict[tuple[int, str], FieldView] = {}
    estimates: Dict[int, float] = {}

    def field_at(level: int, name: str = var) -> FieldView:
        if (level, name) not in fields:
            system, report = solve_level(spec, flavor, p, level, solver=solver, tol_prm=tol_prm)
            fields.update({(level, n): reconstruct(report, system, n) for n in names})
        return fields[(level, name)]

    frame = 1.0 if frame_var is None else _settled_norm(
        lambda level: l2_norm(field_at(level, frame_var)), spec, flavor, frame_var, p, n_max)
    names = {var}  # the norm is settled; levels solved from here on need only var

    def estimate(level: int) -> float:
        if level not in estimates:
            estimates[level] = error_refined(field_at(level), field_at(level + 1)).value / frame
        return estimates[level]

    beta_t = float(beta_T(flavor, var, p))
    beta_r = float(beta_R(flavor))
    alpha_r = DEFAULT_ALPHA_R[var]
    rate_floor = beta_t * c_r(p)

    level = ref_min(p)
    best_value, best_level, best_n = np.inf, level, 0
    anchor = None
    while True:
        n_h = host_dof_count(flavor, var, p, 1 << level, spec.complex_valued)
        e_h = estimate(level)
        if not np.isfinite(e_h):
            status = "non_finite"
            break
        if e_h < best_value:
            best_value, best_level, best_n = e_h, level, n_h
        if not e_h > alpha_r * n_h**beta_r:
            status = "round-off_before_asymptote"
            break
        if not n_h < n_max:
            status = "hit_N_max"
            break
        e_2h = estimate(level - 1)
        rate = np.log2(e_2h / e_h) if e_2h > 0 else -np.inf
        if rate >= rate_floor:
            anchor = (n_h, e_h)
            status = "converged"
            break
        level += 1

    result = PredictionResult(
        problem=spec.label,
        flavor=flavor,
        p=p,
        var=var,
        scheme=scheme,
        status=status,
        refinements_used=max(estimates) + 1,
        frame=frame,
    )
    if anchor is not None:
        n_c, e_c = anchor
        model = ErrorModel(
            alpha_T=fit_alpha_T(e_c, n_c, beta_t),
            beta_T=beta_t,
            alpha_R=alpha_r,
            beta_R=beta_r,
        )
        n_opt, e_min = predict_opt(model)
        mesh_ref, mesh_n = _enclosing_mesh(flavor, var, p, spec.complex_valued, n_opt)
        result.N_c, result.E_c = n_c, e_c
        result.model = model
        result.N_opt_real = n_opt
        result.N_opt_mesh_ref, result.N_opt_mesh = mesh_ref, mesh_n
        result.E_min = e_min
    else:
        # no model fit: report the best error actually observed and its mesh
        result.E_min = best_value
        result.N_opt_mesh_ref, result.N_opt_mesh = best_level, best_n
    return result


def brute_force_sweep(
    spec: ProblemSpec,
    flavor: str,
    p: int,
    var: str,
    scheme: str = "auto",
    n_max: Optional[int] = None,
    rise_streak: Optional[int] = 3,
    solver: str = "lu",
    tol_prm: float = 1e-10,
) -> ErrorCurve:
    """Walk the ladder measuring the error at every level; the baseline method.

    Each level is solved unscaled, and each error value is divided by var's
    frame, the L2 norm of its `frame_variable`: the closed-form norm, or
    without a closed form the norm settled by the C_S rule on a separate
    ladder of unscaled solves (at the default tol_prm).  Uses the
    exact-solution error when available, the once-refined estimate
    otherwise.  Stops at the DoF cap or, when rise_streak is set, after that
    many consecutive error increases, which marks the round-off branch well
    past the minimum.  rise_streak=None always walks to the cap, giving every
    curve the same window; floors are noisy enough that a dip can reset the
    streak, so cap-bound runs are the reproducible choice.  A NaN or inf error
    value raises RuntimeError at once.  Without n_max the cap is N_MAX.
    """
    _, frame_var = _checked_frame(flavor, p, var, scheme)
    n_max = N_MAX if n_max is None else n_max
    if frame_var is None:
        frame = 1.0
    elif spec.has_exact:
        frame = l2_norm(lambda x: eval_exact(spec, frame_var, x))
    else:
        def norm_at(level: int) -> float:
            system, report = solve_level(spec, flavor, p, level, solver=solver)
            return l2_norm(reconstruct(report, system, frame_var))

        frame = _settled_norm(norm_at, spec, flavor, frame_var, p, N_MAX)

    curve = ErrorCurve()
    rises = 0
    use_exact = spec.has_exact
    prev_field = None
    level = 0
    while True:
        system, report = solve_level(spec, flavor, p, level, solver=solver, tol_prm=tol_prm)
        fld = reconstruct(report, system, var)
        del system, report  # free this level's band before the next one is assembled
        record = None
        if use_exact:
            record = error_exact(fld, spec)
        elif prev_field is not None:
            record = error_refined(prev_field, fld)
        if record is not None:
            record.value /= frame
            if not np.isfinite(record.value):
                raise RuntimeError(f"error estimate is {record.value} at refinement level {level}")
            if len(curve) and curve[-1].value > 0 and record.value > 0:
                record.observed_rate = convergence_order(curve[-1].value, record.value)
            if len(curve) and record.value > curve[-1].value:
                rises += 1
            else:
                rises = 0
            curve.append(record)
            if rise_streak is not None and rises >= rise_streak:
                break
        if host_dof_count(flavor, var, p, 1 << level, spec.complex_valued) >= n_max:
            break
        prev_field = fld
        level += 1
    return curve
