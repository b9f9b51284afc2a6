"""Tests of the benchmark itself: tracer accounting, restoration, fingerprints
and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import fem_errbal
from perfbench import bench, tracer, workloads


def _attribute_snapshot():
    holders = tracer._package_modules()
    for module_name, class_name, *_ in tracer._METHODS:
        holders.append(getattr(sys.modules[f"fem_errbal.{module_name}"], class_name))
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


def _tiny_run(name):
    workload = workloads.WORKLOADS[name](tiny=True)
    run = bench.Run(workload)
    specs = {p: fem_errbal.catalog(p) for p in workload.problems}
    run.prepare(specs)
    return run, specs


def test_layer_self_times_add_up_to_traced_wall_time():
    run, specs = _tiny_run("predict-grid")
    record = run.one_pass(specs, random.Random(0), timing=True)
    spans = record["tracer"].spans
    (root,) = [s for s in spans if s[1] == "bench.pass"]
    by_layer = tracer.layer_self_times(spans)
    assert set(by_layer) <= set(tracer.LAYERS) | {"bench"}
    assert {"problem", "mesh_basis", "assembly", "solvers", "error_analysis",
            "prediction"} <= set(by_layer)
    assert math.isclose(sum(by_layer.values()), root[3] - root[2], rel_tol=1e-9)
    assert all(s[5] >= 0 for s in spans if s is not root)  # every call belongs to an op


def test_wrappers_are_restored():
    before = _attribute_snapshot()
    original = fem_errbal.prediction.solve_system
    with tracer.Tracer(timing=True) as tr:
        assert fem_errbal.prediction.solve_system is not original
        assert fem_errbal.solvers.solve_system is not original
        assert len(tr._saved) > 40
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_fingerprint_stable_across_passes_and_seeds():
    run, specs = _tiny_run("iterative")
    run.one_pass(specs, random.Random(1), timing=False)
    run.one_pass(specs, random.Random(2), timing=True)
    first, second = (workloads.fingerprint(d) for d in run.op_digests)
    assert first == second
    assert run.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    record = bench.measure(name, seed=3, seconds=0.0, trace=True, tiny=True, probes=1)
    assert record["failed"] == 0, record["failures"]
    assert record["fingerprint_stable"]
    assert record["passes"] == {"untraced": 1, "traced": 1}
    assert set(record["end_to_end"]) == set(bench.E2E_UNITS)
    assert set(record["per_layer"]) == set(bench.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in record["end_to_end"].values())
    assert record["end_to_end"]["e_min_gap_dec"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iterative", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
