"""Host speed probe: fixed passes of the kinds of work uscrl does.

On a shared host the speed of one core can change by up to 1.7x over
minutes (seen on a 2-vCPU x86 VM), as other tenants load the same physical
cores. The benchmark runs this probe
next to every timed op and set-up step, and scales its timings to a nominal
host on which each probe pass takes NOMINAL_S seconds, so that the
end-to-end metrics follow the code and not the host's load. The probe uses
numpy and the standard library only, never uscrl, so no change to the
package can move it.

Kinds of work slow down by different factors under load, so the probe times
four kinds of pass separately, and each workload probes and weighs the
kinds its ops mostly do:

* ``dispatch``: many numpy calls on tiny arrays, like one SGD step on a
  small pool;
* ``blas``: matrix products of MLP-layer size;
* ``bulk``: gathers and reductions over large index arrays, like scoring
  tuples in chunks;
* ``python``: interpreter loops and JSON encoding.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.02
KINDS = ("dispatch", "blas", "bulk", "python")


class Probe:
    """Callable timing one pass of each requested kind of fixed work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = rng.standard_normal((6, 8))
        self.pool = rng.standard_normal((40, 8))
        self.idx = rng.integers(0, 40, (256, 4))
        self.a = rng.standard_normal((64, 96))
        self.x = rng.standard_normal((512, 96))
        self.reps = rng.standard_normal((48, 6))
        self.big = rng.integers(0, 48, (1 << 16, 4))
        self.times: list[dict] = []

    def _dispatch(self):
        idx = self.idx
        for _ in range(160):
            reps = self.pool @ self.weights.T
            v = np.einsum("bd,bkd->bk", reps[idx[:, 0]], reps[idx[:, 1:]])
            grad = np.zeros_like(reps)
            np.add.at(grad, idx[:, 0], v.sum(axis=1)[:, None] * reps[idx[:, 0]])
            np.unique(idx)

    def _blas(self):
        for _ in range(72):
            np.maximum(self.x @ self.a.T, 0.0).T @ self.x

    def _bulk(self):
        big = self.big
        ra = self.reps[big[:, 0]]
        diff = self.reps[big[:, 1]][:, None, :] - self.reps[big[:, 2:]]
        v = np.einsum("bd,bkd->bk", ra, diff)
        np.log1p(np.exp(-v).sum(axis=1)).sum()

    def _python(self):
        "\n".join(json.dumps({"anchor": i, "negatives": [i, i + 1]})
                  for i in range(4400))

    def __call__(self, kinds=KINDS) -> None:
        """Time one pass of each of `kinds` and keep the times."""
        row = {}
        for kind in kinds:
            t0 = time.perf_counter()
            getattr(self, f"_{kind}")()
            row[kind] = time.perf_counter() - t0
        self.times.append(row)

    def scale(self, mix: dict, since: int = 0) -> float:
        """Factor taking a time on this host to the nominal host: the
        mix-weighted mean of NOMINAL_S over each pass's median time, over
        probes from number `since` on."""
        rows = self.times[since:]
        return sum(w * NOMINAL_S / statistics.median(r[kind] for r in rows)
                   for kind, w in mix.items()) / sum(mix.values())
