"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload floor-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Prints one `name value unit` line
per metric, the output fingerprint and the environment, then, as the last
line, a JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The full record (failures, fingerprint, per-operation
digests, environment, load average) goes to perfbench/results/, and a traced
run also writes the spans of its last traced pass there as JSON lines.
Compare two records with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# metrics reported in the JSON line; failed_frac is printed but carried by
# the attempted/failed counts there, since it is 0 on a healthy tree
JSON_E2E = ("setup_s", "wall_s", "peak_rss_mb", "predict_p50_ms", "predict_p90_ms",
            "e_min_gap_dec")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("floor-sweep", "predict-grid", "iterative"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fem_errbal" / "__init__.py").is_file():
        print(f"no fem_errbal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS and OpenMP read these when numpy loads, so set them before importing it
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import E2E_UNITS, PER_LAYER_UNITS, measure

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("last_tracer", None)
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        units, values, keys = PER_LAYER_UNITS, record["per_layer"], PER_LAYER_UNITS
    else:
        units, values, keys = E2E_UNITS, record["end_to_end"], JSON_E2E
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} passes {record['passes']} "
          f"samples {record['samples']}")
    for name in units:
        print(f"{name} {values[name]!r} {units[name]}")
    print(f"fingerprint {record['fingerprint']} stable {record['fingerprint_stable']}")
    for op, reasons in sorted(record["failures"].items()):
        print(f"FAILED {op}: {'; '.join(sorted(set(reasons)))}")
    print(f"environment cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r} src_lines={env['src_lines']}")
    print(f"isolation {env['isolation']}")
    print(f"loadavg before {record['loadavg']['before']} after {record['loadavg']['after']}")
    print(f"record {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": record["failed"] == 0 and record["fingerprint_stable"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in keys},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
