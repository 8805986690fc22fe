#!/usr/bin/env python3
"""uscrl benchmark: one workload per process, timed through the public CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``. BLAS is
pinned to one thread before numpy is imported. The workload's inputs are
written during set-up, one warm-up op runs, and then ops run back to back
(a closed loop, one caller) until ``--seconds`` have passed. Every CLI
call's outputs are checked against ``reference.json``; a call that exits
non-zero or misses its reference counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
the median op wall time and its tail percentile, tuples per second, peak
RSS and set-up time (a fresh interpreter importing uscrl plus writing the
inputs, median of SETUP_REPS). Times and rates are scaled to a nominal host
speed by the probe in ``calibration.py``, timed before every op; the raw
values and the scale are printed on an earlier line. With
``--trace 1`` half of the time runs untraced and half traced, and the line
reports per-layer metrics averaged per op; the spans are written to
``.bench_out/``. Earlier stdout lines give the environment, the sample
count, the tail percentile and output digests.

``record_reference.py`` rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPS = 9
MODULES = ("dataset", "tuples", "loss", "model", "risk", "bounds", "trainer",
           "cli", "errors", "__init__")
# ops needed before a tail percentile lies above the median
TAIL_BEYOND = 10


def pin_blas() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_uscrl() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import uscrl.cli  # noqa: F401


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with ten samples
    above it, never below the median."""
    s = sorted(samples)
    n = len(s)
    idx = max(n - 1 - TAIL_BEYOND, n // 2)
    return 100.0 * (idx + 1) / n, s[idx]


def instance_order(seed: int):
    """Instances in seeded shuffled passes, without end."""
    from workloads import INSTANCES

    rng = random.Random(seed)
    while True:
        order = list(range(INSTANCES))
        rng.shuffle(order)
        yield from order


def sloc() -> dict:
    """Non-blank, non-comment source lines per module."""
    out = {}
    for mod in MODULES:
        with open(os.path.join(SRC, "uscrl", f"{mod}.py")) as f:
            out[mod] = sum(1 for line in f
                           if line.strip() and not line.strip().startswith("#"))
    return out


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def time_import() -> float:
    """Wall time of a fresh interpreter importing uscrl.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import uscrl.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Run:
    """Counts every checked call and the failures among them."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.digest_matches = 0

    def check(self, calls: list, key: str) -> None:
        from workloads import check_call

        ref = self.reference.get(key, {})
        for call in calls:
            self.attempted += 1
            why = check_call(call, ref.get(call.name))
            if why:
                self.failed += 1
                print(f"FAIL {self.workload} [{key}] {call.name}: {why}",
                      file=sys.stderr)

    def check_op(self, res) -> None:
        key = str(res.instance)
        self.check(res.calls, key)
        self.digests[res.instance] = res.digest
        self.digest_matches += res.digest == \
            self.reference.get(key, {}).get("digest")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  reference: dict, workdir: str) -> dict:
    """Set up, warm up and time one workload; returns the result object."""
    from calibration import Probe
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    run = Run(workload, reference)
    setup_raw = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        import_s = time_import()
        t0 = time.perf_counter()
        w = cls(workdir)
        setup_calls = w.prepare()
        setup_raw.append(import_s + time.perf_counter() - t0)
        run.check(setup_calls, "setup")

    probe = Probe()
    probe()  # the first passes warm numpy's caches
    probe.times.clear()
    order = instance_order(seed)
    run.check_op(w.op(next(order)))  # warm-up, not timed

    def measure(budget: float, tracer=None):
        """Raw op times, items per op and the number of the first probe."""
        samples, items = [], []
        first_probe = len(probe.times)
        deadline = time.perf_counter() + budget
        while True:
            probe(cls.probe_mix)
            if tracer:
                tracer.op = len(samples)
            t0 = time.perf_counter()
            res = w.op(next(order))
            samples.append(time.perf_counter() - t0)
            items.append(res.items)
            run.check_op(res)
            if time.perf_counter() >= deadline:
                return samples, items, first_probe

    if not trace:
        samples, items, first_probe = measure(seconds)
        scale = probe.scale(cls.probe_mix, first_probe)
        pct, tail_value = tail(samples)
        rate = statistics.median(n / dt for n, dt in zip(items, samples))
        print(f"{workload}: {len(samples)} timed ops; wall_s_tail is "
              f"p{pct:.0f}; raw wall_s {statistics.median(samples):.4f}, "
              f"raw tuples_per_s {rate:.1f}, raw setup_s "
              f"{statistics.median(setup_raw):.4f}; host speed scale "
              f"{scale:.4f}")
        metrics = {
            "wall_s": (statistics.median(samples) * scale, "s"),
            "wall_s_tail": (tail_value * scale, "s"),
            "tuples_per_s": (rate / scale, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            # set-up ran a few seconds before the ops, within the same host
            # speed phase, so the ops' scale applies to it too
            "setup_s": (statistics.median(setup_raw) * scale, "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        plain, _, first_plain = measure(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, first_traced = measure(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        ops = len(traced)
        wall = statistics.mean(traced)
        metrics = tracer.metrics(ops)
        self_sum = sum(metrics[k]["value"] for k in metrics
                       if k.endswith(".self_s"))
        metrics["trace.wall_s"] = {"value": wall, "unit": "s/op"}
        # the tracer's own bookkeeping runs only in this run; leave it out
        metrics["trace.self_frac"] = {
            "value": self_sum / (wall - metrics["trace.bookkeeping_s"]["value"]),
            "unit": "frac"}
        scale = probe.scale(cls.probe_mix, first_traced)
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) * scale
            / (statistics.median(plain)
               * probe.scale(cls.probe_mix, first_plain)) - 1,
            "unit": "frac"}
        metrics["host.speed_scale"] = {"value": scale, "unit": "frac"}
        for mod, lines in sloc().items():
            metrics[f"sloc.{mod}"] = {"value": lines, "unit": "lines"}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{workload}.jsonl")
        tracer.write_spans(spans)
        print(f"{workload}: {len(plain)} untraced and {ops} traced ops; "
              f"{len(tracer.spans)} spans in {spans}")

    combined = hashlib.sha256(json.dumps(sorted(run.digests.items()))
                              .encode()).hexdigest()
    print(f"{workload}: {run.failed} of {run.attempted} calls failed; "
          f"{run.digest_matches} op(s) byte-identical to the reference; "
          f"digest {combined[:16]} over instances {sorted(run.digests)}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "uscrl")):
        print(f"error: no uscrl package under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    import_uscrl()
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(REFERENCE) as f:
        reference = json.load(f)
    print("env " + json.dumps({**environment(), "sloc": sloc()},
                              sort_keys=True))
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
