"""Run one workload for a fixed time and derive its metrics.

A run is closed-loop with one caller: a single process on a single thread,
each operation starting only after the previous one finished.  Passes repeat
until `seconds` have elapsed (at least one pass; with tracing, at least one
untraced and one traced pass, alternating).  Reference curves are computed
once before the first pass, outside every timed region.

Timings are minima over the run's passes, taken piece by piece, not
medians.  On the shared hosts this was built on, other tenants slow a
single-threaded pass by up to 1.9x in bursts that come and go within
seconds (the same 1 s pass took 0.74 s to 1.46 s, and the median of 40
passes still spread 24% between runs).  Short pieces of work catch the quiet
moments far more often than whole passes do.  So every operation is cut into
segments at each `solve_system` start and end, which happen in the same
order in every pass, and `wall_s` adds up each segment's fastest time over
the run.  A prediction call's latency is likewise its fastest over the run.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import fem_errbal
from perfbench import tracer as tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7

# a fresh interpreter importing the package and loading the workload's problems
_PROBE = (
    "import sys, time\n"
    "import fem_errbal\n"
    "for name in sys.argv[1:]:\n"
    "    fem_errbal.catalog(name)\n"
    "print(repr(time.monotonic()))\n"
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "predict_p50_ms": "ms",
    "predict_p90_ms": "ms",
    "e_min_gap_dec": "dec",
}

PER_LAYER_UNITS = {
    "problem.coeff_s": "s",
    "problem.coeff_calls": "count",
    "mesh_basis.tables_s": "s",
    "mesh_basis.basis_builds": "count",
    "assembly.assemble_s": "s",
    "assembly.assemble_calls": "count",
    "assembly.unknowns": "count",
    "assembly.scatter_s": "s",
    "assembly.band_mb": "MB",
    "assembly.scale_copy_mb": "MB",
    "assembly.scale_s": "s",
    "solvers.factor_s": "s",
    "solvers.backsolve_s": "s",
    "solvers.backsolves": "count",
    "solvers.solve_s": "s",
    "solvers.cg_iterations": "count",
    "solvers.iter_us": "us",
    "solvers.matvecs": "count",
    "solvers.matvec_s": "s",
    "solvers.max_rel_residual": "ratio",
    "solvers.failures": "count",
    "error_analysis.error_s": "s",
    "error_analysis.reconstruct_s": "s",
    "error_analysis.norm_s": "s",
    "prediction.self_s": "s",
    "prediction.normalization_s": "s",
    "prediction.solves": "count",
    "prediction.norm_solve_share": "ratio",
    "calibration.fit_s": "s",
    "trace.overhead_frac": "ratio",
}


def measure_setup(problems, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from spawning a fresh interpreter to imports plus catalog done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, *problems],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


class Run:
    """Results and counters accumulated over the operations of one run."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.references: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.op_digests: list[dict[str, str]] = []  # one per pass
        self.reference_digests: dict[str, str] = {}

    def execute(self, op, specs, tracer, results, segments):
        """Run one operation; returns it with its result (or exception) and solves."""
        index = self.attempted
        self.attempted += 1
        first_report, first_mark = len(tracer.reports), len(tracer.marks)
        start = time.perf_counter()
        try:
            with tracer.span("bench.op", op=index):
                result = op.run(specs, results)
        except Exception as err:  # a failed operation is counted, not fatal
            result = err
        else:
            results[op.key] = result
        marks = [start, *tracer.marks[first_mark:], time.perf_counter()]
        segments[op.key] = [b - a for a, b in zip(marks, marks[1:])]
        return op, result, tracer.reports[first_report:]

    def settle(self, done) -> dict[str, str]:
        """Check executed operations, outside any tracer; returns their digests."""
        digests = {}
        for op, result, reports in done:
            if isinstance(result, Exception):
                reasons = [f"{type(result).__name__}: {result}"]
            else:
                reasons = wl.check(self.workload, op, result, reports, self.references)
            if reasons:
                self.failed += 1
                self.failures.setdefault(op.key, []).extend(reasons)
            digests[op.key] = wl.digest(wl.canonical(op, result, reports))
        return digests

    def prepare(self, specs) -> None:
        with tracing.Tracer(timing=False) as tr:
            done = [self.execute(op, specs, tr, self.references, {})
                    for op in self.workload.references]
        self.reference_digests = self.settle(done)

    def one_pass(self, specs, rng: random.Random, timing: bool):
        """Run every group once in a seed-shuffled order; returns the pass record."""
        groups = list(self.workload.groups)
        rng.shuffle(groups)
        results, segments, done = {}, {}, []
        with tracing.Tracer(timing=timing) as tr:
            traced_specs = {name: tr.trace_spec(spec) for name, spec in specs.items()}
            start = time.perf_counter()
            with tr.span("bench.pass"):
                for group in groups:
                    for op in group:
                        done.append(self.execute(op, traced_specs, tr, results, segments))
            wall = time.perf_counter() - start
        self.op_digests.append({**self.settle(done), **self.reference_digests})
        try:
            gap = self.workload.gap(results, self.references)
        except (KeyError, ValueError, ZeroDivisionError):
            gap = float("nan")  # an operation it needs failed and is counted
        return {"wall": wall, "gap": gap, "segments": segments, "tracer": tr}


def best_segments(passes: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    """Each operation's segments at their fastest over the passes.

    An operation whose segment count differs between passes (one failed part
    way) contributes its fastest whole duration instead.
    """
    best = {}
    for key in passes[0]:
        runs = [p[key] for p in passes]
        if len({len(r) for r in runs}) == 1:
            best[key] = [min(times) for times in zip(*runs)]
        else:
            best[key] = [min(sum(r) for r in runs)]
    return best


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu": fem_errbal.cpu_identifier(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "src_lines": src_lines,
        "threads": {name: os.environ.get(name) for name in threads},
        "isolation": "none: no CPU pinning and no cgroups are used; other load on the "
                     "host shows in the timings, see loadavg",
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run of workload `name`; returns the full result record."""
    load_before = os.getloadavg()
    workload = wl.WORKLOADS[name](tiny=tiny)
    setup = measure_setup(workload.problems, probes)
    specs = {problem: fem_errbal.catalog(problem) for problem in workload.problems}
    run = Run(workload)
    run.prepare(specs)
    rng = random.Random(seed)
    untraced, traced, rows = [], [], []
    start = time.perf_counter()
    while True:
        timing = trace and len(untraced) > len(traced)
        done = run.one_pass(specs, rng, timing)
        if timing:
            rows.append(tracing.layer_metrics(done["tracer"], wl.RESIDUAL_BOUND))
            last_tracer = done["tracer"]
        (traced if timing else untraced).append(done)
        done.pop("tracer")
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [p["wall"] for p in untraced]
    best = best_segments([p["segments"] for p in untraced])
    predict_ms = [1e3 * sum(best[op.key]) for g in workload.groups for op in g
                  if op.kind == "predict"]
    fingerprints = [wl.fingerprint(d) for d in run.op_digests]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(sum(times) for times in best.values()),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failed / run.attempted,
        "predict_p50_ms": float(np.percentile(predict_ms, 50)),
        "predict_p90_ms": float(np.percentile(predict_ms, 90)),
        "e_min_gap_dec": statistics.median(p["gap"] for p in untraced),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"setup_probes": len(setup), "passes": len(walls),
                    "predict_calls": len(predict_ms) * len(walls)},
        "setup_s_all": setup,
        "wall_s_all": walls,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "fingerprint": fingerprints[0],
        "fingerprint_stable": len(set(fingerprints)) == 1,
        "op_digests": run.op_digests[0],
        "end_to_end": e2e,
        "environment": environment(),
        "loadavg": {"before": load_before, "after": os.getloadavg()},
    }
    if trace:
        layer = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        layer["trace.overhead_frac"] = min(p["wall"] for p in traced) / min(walls) - 1.0
        record["per_layer"] = layer
        record["layer_self_s"] = tracing.layer_self_times(last_tracer.spans)
        record["traced_wall_s"] = traced[-1]["wall"]
        record["last_tracer"] = last_tracer
    return record
