"""Span tracer that wraps the public functions of every fem_errbal module.

Each public function is replaced at every place a caller looks it up: the
defining module, every other package module that imported it by name, and
the package namespace.  A few methods that carry the hot work (band scatter,
banded LU, basis evaluation) are wrapped on their classes, and the
coefficient callables of a ProblemSpec are wrapped on a traced copy of the
spec.  Spans stay in memory as tuples and are written out as JSON lines on
request; `restore()` puts every wrapped attribute back.

With `timing=False` only `solve_system` is hooked, to collect the solve
reports that the correctness checks and the output fingerprint need and to
mark the time at which each solve starts and ends; no spans are recorded.
That is the mode the end-to-end metrics run in.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import fem_errbal

LAYERS = (
    "problem",
    "mesh_basis",
    "assembly",
    "solvers",
    "error_analysis",
    "prediction",
    "calibration",
)

# methods wrapped on their classes: (module, class, method, span name)
_METHODS = (
    ("mesh_basis", "LagrangeBasis", "__init__", "mesh_basis.LagrangeBasis"),
    ("mesh_basis", "LagrangeBasis", "eval", "mesh_basis.LagrangeBasis.eval"),
    ("assembly", "BandedMatrix", "add_at", "assembly.scatter"),
    # only the solvers call matvec (CG iterations, probes, LU residuals)
    ("assembly", "BandedMatrix", "matvec", "solvers.matvec"),
    ("solvers", "BandedLU", "__init__", "solvers.factor"),
    ("solvers", "BandedLU", "solve", "solvers.backsolve"),
)

_COEFFICIENTS = ("D", "D_x", "r", "f", "exact_u", "exact_ux", "exact_uxx")

_MB = 1024.0 * 1024.0


class SolveRecord(NamedTuple):
    """What the checks and the fingerprint need from a SolveReport."""

    method: str
    iterations: int
    rel_residual: float
    wall_time: float


def _package_modules():
    prefix = fem_errbal.__name__ + "."
    return [fem_errbal] + [
        mod for name, mod in sorted(sys.modules.items()) if name.startswith(prefix)
    ]


def _public_functions(module):
    """Public callables defined in `module` (lru_cache wrappers included)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _system_bytes(system) -> int:
    total = system.matrix.ab.nbytes + system.rhs.nbytes
    blocks = system.blocks
    if blocks is not None:
        b = blocks.B
        total += blocks.M.ab.nbytes + b.data.nbytes + b.indices.nbytes + b.indptr.nbytes
        total += blocks.G.nbytes + blocks.H.nbytes
    return total


class Tracer:
    """Records spans (id, name, start, end, parent, op) around package calls."""

    def __init__(self, timing: bool = True):
        self.timing = timing
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.reports: list[SolveRecord] = []  # one per solve_system call
        self.marks: list[float] = []  # solve start and end times, untraced mode only
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = _package_modules()
        for layer in LAYERS if self.timing else ("solvers",):
            module = sys.modules[f"{fem_errbal.__name__}.{layer}"]
            for name, fn in list(_public_functions(module)):
                if not self.timing and name != "solve_system":
                    continue
                wrapped = self._wrap(fn, f"{layer}.{name}")
                for holder in modules:
                    if vars(holder).get(name) is fn:
                        self._patch(holder, name, wrapped)
        if self.timing:
            for mod_name, cls_name, meth, span in _METHODS:
                cls = getattr(sys.modules[f"{fem_errbal.__name__}.{mod_name}"], cls_name)
                self._patch(cls, meth, self._wrap(vars(cls)[meth], span))
        return self

    def _patch(self, holder, name, value) -> None:
        self._saved.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    def restore(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def trace_spec(self, spec):
        """Copy of `spec` whose coefficient callables record problem spans."""
        if not self.timing:
            return spec
        changes = {
            name: self._wrap(getattr(spec, name), f"problem.coeff.{name}")
            for name in _COEFFICIENTS
            if getattr(spec, name) is not None
        }
        return dataclasses.replace(spec, **changes)

    # --- spans --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)
        if not self.timing:
            def recorder(*args, **kwargs):
                self.marks.append(time.perf_counter())
                result = fn(*args, **kwargs)
                self.marks.append(time.perf_counter())
                hook(self, result, args, kwargs)
                return result
            return recorder
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{name}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer._op))
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, op: int | None = None):
        """Context manager for a benchmark-level span; `op` starts an operation."""
        return _Span(self, name, op)

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "op", "sid", "parent", "start", "saved_op")

    def __init__(self, tracer: Tracer, name: str, op: int | None):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tr = self.tracer
        self.saved_op = tr._op
        if self.op is not None:
            tr._op = self.op
        if tr.timing:
            self.sid = tr._next_id
            tr._next_id += 1
            self.parent = tr._stack[-1] if tr._stack else -1
            tr._stack.append(self.sid)
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.timing:
            end = time.perf_counter()
            tr._stack.pop()
            tr.spans.append((self.sid, self.name, self.start, end, self.parent, tr._op))
        tr._op = self.saved_op
        return False


# --- counters recorded at the same boundaries as the spans -------------------

def _on_assemble(tracer, system, args, kwargs):
    tracer.counts["assembly.calls"] += 1
    tracer.counts["assembly.unknowns"] += system.n_unknowns
    band = system.matrix.ab.nbytes
    if system.blocks is not None:
        band += system.blocks.M.ab.nbytes
    tracer.counts["assembly.band_bytes"] += band


def _on_scale(tracer, result, args, kwargs):
    system = args[0]
    scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
    in_place = kwargs.get("in_place", args[4] if len(args) > 4 else False)
    if scheme != "none" and not in_place:
        tracer.counts["assembly.scale_copy_bytes"] += _system_bytes(system)


def _on_solve(tracer, report, args, kwargs):
    tracer.reports.append(SolveRecord(
        report.method, report.iterations, report.rel_residual, report.wall_time))
    if not tracer.timing:
        return
    tracer.counts["solvers.iterations"] += report.iterations
    if report.method != "lu":
        tracer.counts["solvers.iterative_s"] += report.wall_time
    if tracer.is_open("prediction.prediction_loop"):
        tracer.counts["prediction.solves"] += 1
        if tracer.is_open("prediction.normalization"):
            tracer.counts["prediction.norm_solves"] += 1


def _on_basis(tracer, result, args, kwargs):
    tracer.counts["mesh_basis.basis_builds"] += 1


def _on_coefficient(tracer, result, args, kwargs):
    tracer.counts["problem.coeff_calls"] += 1


_HOOKS = {
    "assembly.assemble_standard": _on_assemble,
    "assembly.assemble_mixed": _on_assemble,
    "assembly.scale_system": _on_scale,
    "solvers.solve_system": _on_solve,
    "mesh_basis.LagrangeBasis": _on_basis,
}
_HOOKS.update({f"problem.coeff.{name}": _on_coefficient for name in _COEFFICIENTS})


# --- derived tables ----------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {sid: end - start for sid, _, start, end, _, _ in spans}
    for sid, _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, name, *_ in spans:
        out[layer_of(name)] += own[sid]
    return dict(out)


def layer_metrics(tracer: Tracer, residual_bound: float) -> dict[str, float]:
    """Per-layer table for the spans and counters of one traced pass.

    `solvers.failures` counts solver exceptions plus solves whose relative
    residual exceeds `residual_bound`.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    incl_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_layer: dict[str, float] = defaultdict(float)
    names = {sid: name for sid, name, *_ in spans}
    for sid, name, start, end, parent, _ in spans:
        self_by_name[name] += own[sid]
        by_layer[layer_of(name)] += own[sid]
        calls[name] += 1
        # inclusive time counts outermost calls only
        if names.get(parent) != name:
            incl_by_name[name] += end - start
    c = tracer.counts
    reports = tracer.reports
    iterations = c["solvers.iterations"]
    pred_solves = c["prediction.solves"]
    return {
        "problem.coeff_s": by_layer["problem"],
        "problem.coeff_calls": c["problem.coeff_calls"],
        "mesh_basis.tables_s": by_layer["mesh_basis"],
        "mesh_basis.basis_builds": c["mesh_basis.basis_builds"],
        "assembly.assemble_s": by_layer["assembly"],
        "assembly.assemble_calls": c["assembly.calls"],
        "assembly.unknowns": c["assembly.unknowns"],
        "assembly.scatter_s": self_by_name["assembly.scatter"],
        "assembly.band_mb": c["assembly.band_bytes"] / _MB,
        "assembly.scale_copy_mb": c["assembly.scale_copy_bytes"] / _MB,
        "assembly.scale_s": incl_by_name["assembly.scale_system"],
        "solvers.factor_s": self_by_name["solvers.factor"],
        "solvers.backsolve_s": self_by_name["solvers.backsolve"],
        "solvers.backsolves": calls["solvers.backsolve"],
        "solvers.solve_s": by_layer["solvers"],
        "solvers.cg_iterations": iterations,
        "solvers.iter_us": 1e6 * c["solvers.iterative_s"] / iterations if iterations else 0.0,
        "solvers.matvecs": calls["solvers.matvec"],
        "solvers.matvec_s": self_by_name["solvers.matvec"],
        "solvers.max_rel_residual": max((r.rel_residual for r in reports), default=0.0),
        "solvers.failures": c["solvers.solve_system.errors"]
        + sum(1 for r in reports if not r.rel_residual <= residual_bound),
        "error_analysis.error_s": self_by_name["error_analysis.error_exact"]
        + self_by_name["error_analysis.error_refined"],
        "error_analysis.reconstruct_s": self_by_name["error_analysis.reconstruct"],
        "error_analysis.norm_s": self_by_name["error_analysis.l2_norm"],
        "prediction.self_s": by_layer["prediction"],
        "prediction.normalization_s": incl_by_name["prediction.normalization"],
        "prediction.solves": pred_solves,
        "prediction.norm_solve_share": c["prediction.norm_solves"] / pred_solves
        if pred_solves else 0.0,
        "calibration.fit_s": incl_by_name["calibration.fit_floor"],
    }
