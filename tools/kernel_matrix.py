"""Tier-1 tests and one benchmark workload under three arithmetic settings.

    python3 tools/kernel_matrix.py --workload iterative --seconds 30

Run from anywhere inside a source checkout.  For the kernel OpenBLAS picks
by default, for Haswell, forced with OPENBLAS_CORETYPE, and for the default
kernel with numpy's baseline loops, its AVX2 and AVX-512 dispatch turned
off with NPY_DISABLE_CPU_FEATURES, it runs the tier-1 command
(`python -m pytest -q --continue-on-collection-errors` with `src` on
PYTHONPATH) and `perfbench/run.py` on the chosen workload, one child process
at a time.  The variables are set in each child's environment only.  It
prints one row per setting: the kernel the test run reports, the tier-1
pass/fail counts, the workload's fingerprint, its failed operations and
e_min_gap_dec, then the tests and operations that failed.  The rows are the
kernel matrix that a change moving a round-off floor records.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each row's variables; the others stay unset, so the libraries choose
SETTINGS = {
    "default": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}
WORKLOADS = ("floor-sweep", "predict-grid", "iterative")


def _env(setting: str) -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    env.update(SETTINGS[setting])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run(command: list[str], setting: str) -> str:
    done = subprocess.run(command, cwd=ROOT, env=_env(setting), capture_output=True, text=True)
    return done.stdout + done.stderr


def tier1(setting: str) -> dict:
    out = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], setting)
    lines = out.splitlines()
    summary = next((ln for ln in reversed(lines) if re.search(r"\d+ (passed|failed)", ln)), "")
    arithmetic = re.search(r"blas_kernel=([^,\s]+)", out)
    return {
        "kernel": arithmetic.group(1) if arithmetic else "?",
        "counts": ", ".join(re.findall(r"\d+ [a-z]+", summary.split(" in ")[0])) or "no summary",
        "failures": [ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))],
    }


def bench(setting: str, workload: str, seed: int, seconds: float) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"], setting)
    lines = out.splitlines()
    fingerprint = re.search(r"^fingerprint (\w+) stable (\w+)", out, re.MULTILINE)
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"fingerprint": "run failed", "stable": "?", "ops": "?", "gap": float("nan"),
                "failures": lines[-5:]}
    return {
        "fingerprint": fingerprint.group(1)[:16] if fingerprint else "?",
        "stable": fingerprint.group(2) if fingerprint else "?",
        "ops": f"{last['failed']}/{last['attempted']}",
        "gap": last["metrics"]["e_min_gap_dec"]["value"],
        "failures": [ln for ln in lines if ln.startswith("FAILED ")],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    rows = [(setting, tier1(setting), bench(setting, args.workload, args.seed, args.seconds))
            for setting in SETTINGS]
    print(f"| setting | kernel | tier-1 | {args.workload} fingerprint | stable "
          f"| failed ops | e_min_gap_dec |")
    print("|---|---|---|---|---|---|---|")
    for setting, tests, run in rows:
        print(f"| {setting} | {tests['kernel']} | {tests['counts']} | "
              f"{run['fingerprint']} | {run['stable']} | {run['ops']} | {run['gap']:.4f} |")
    for setting, tests, run in rows:
        for line in tests["failures"] + run["failures"]:
            print(f"{setting}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
