"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks/test_bench.py

Runs every workload for about a second in both modes and checks the result
line against the metric names and units in BENCHMARK.json, checks that a
perturbed reference value makes calls fail, and checks the exit without a
result when the package sources are missing.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_perturbed_reference_counts_failures(tmp_path):
    import run

    run.pin_blas()
    run.import_uscrl()
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    bad = copy.deepcopy(reference)
    for entry in bad["evaluate-pool"].values():
        if "estimate ustat_exact" in entry:
            entry["estimate ustat_exact"]["value"] *= 1 + 1e-6
    res = run.run_benchmark("evaluate-pool", 3, 0.5, False, bad,
                            str(tmp_path / "work"))
    # the warm-up op and at least one timed op each miss once
    assert not res["correct"]
    assert 2 <= res["failed"] < res["attempted"]

    good = run.run_benchmark("evaluate-pool", 3, 0.5, False, reference,
                             str(tmp_path / "work"))
    assert good["correct"] and good["failed"] == 0


def test_tracer_counts_binding_projections():
    import numpy as np
    import run

    run.import_uscrl()
    import uscrl.model as m
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        model = m.LinearModel(10.0 * np.eye(3), max_col_sum=64.0,
                              max_spectral=4.0)
        m.project(model)  # scales the weights down onto the cap
        m.project(model)  # already inside: leaves them alone
    finally:
        tracer.uninstall()
    assert tracer.calls["model.project"] == 2
    assert tracer.calls["model.spectral_norm"] == 2
    assert tracer.counts["model.project"]["binding"] == 1
    assert m.project.__name__ == "project" and not hasattr(m.project,
                                                           "__wrapped__")


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
