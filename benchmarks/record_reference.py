#!/usr/bin/env python3
"""Rewrite reference.json from the outputs of the current code.

    python3 benchmarks/record_reference.py [WORKLOAD ...]

Runs every instance of each named workload (all by default) once, with BLAS
pinned to one thread as in run.py, and stores each CLI call's checked
values and each op's output digest. Record only from code whose outputs
are known to be right: the benchmark treats these values as correct.
"""

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    run.pin_blas()
    run.import_uscrl()
    from workloads import INSTANCES, WORKLOADS, observed_values

    reference = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as f:
            reference = json.load(f)
    for name in names or sorted(WORKLOADS):
        workdir = os.path.join(run.ROOT, ".bench_work", f"record-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            w = WORKLOADS[name](workdir)
            entry = {}
            setup = w.prepare()
            if setup:
                entry["setup"] = {c.name: observed_values(c) for c in setup}
            for i in range(INSTANCES):
                res = w.op(i)
                bad = [c for c in res.calls + setup if c.rc != 0]
                if bad:
                    print(f"{name} instance {i}: {bad[0].name} exited "
                          f"{bad[0].rc}: {bad[0].stderr}", file=sys.stderr)
                    return 1
                entry[str(i)] = {c.name: observed_values(c) for c in res.calls}
                entry[str(i)]["digest"] = res.digest
                print(f"{name} instance {i} recorded", flush=True)
            reference[name] = entry
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
