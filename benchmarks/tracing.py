"""Span tracing of uscrl's public functions, patched from outside the package.

Modules bind imported names at import time (``from .model import project``
puts ``project`` into ``uscrl.trainer``), so a function is wrapped at every
binding that refers to it: each ``uscrl.*`` module attribute that *is* the
original function object is replaced by the wrapper. Methods are wrapped on
their class.

Each call records a span (op, id, name, start, end, parent) in memory. A
span's self time is its duration minus the time its direct children cover,
including their bookkeeping. Item counters (rows, tuples, binding
projections, ...) are computed from the call's own inputs and outputs
outside the timed interval; that bookkeeping is charged to neither the span
nor its parent and is reported separately.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim < 2 else int(a.shape[0])


def _weights(args, kwargs):
    return list(args[0].weights)


def _project_post(before, args, kwargs, result):
    moved = any(a is not b for a, b in zip(result.weights, before))
    return {"binding": float(moved)}


def _backward_post(_, args, kwargs, result):
    ds, anchors, positives, negatives = args[1:5]
    used = np.unique(np.concatenate([np.ravel(anchors), np.ravel(positives),
                                     np.ravel(negatives)]))
    return {"tuples": len(anchors), "rows_per_pool": used.size / ds.n}


def _grad_post(_, args, kwargs, result):
    g = np.asarray(result)
    g = g[None, :] if g.ndim == 1 else g
    return {"rows": g.shape[0], "zero_rows": int((g == 0.0).all(axis=1).sum())}


def _terms(_, args, kwargs, result):
    return {"terms": result.n_terms}


def _tuples(_, args, kwargs, result):
    return {"tuples": result.m_count}


# (layer name, module, attribute or Class.method, pre hook, post hook).
# The layer names are the per-layer metric prefixes.
TARGETS = [
    ("cli.main", "uscrl.cli", "main", None, None),
    ("trainer.train", "uscrl.trainer", "train", None,
     lambda _, a, k, r: {"steps": r.n_steps}),
    ("model.tuple_batch_backward", "uscrl.model", "tuple_batch_backward",
     None, _backward_post),
    ("model.project", "uscrl.model", "project", _weights, _project_post),
    ("model.spectral_norm", "uscrl.model", "spectral_norm", None, None),
    ("model.forward", "uscrl.model", "LinearModel.forward", None,
     lambda _, a, k, r: {"rows": _rows(a[1])}),
    ("model.forward", "uscrl.model", "MlpModel.forward", None,
     lambda _, a, k, r: {"rows": _rows(a[1])}),
    ("loss.loss_value", "uscrl.loss", "loss_value", None,
     lambda _, a, k, r: {"rows": _rows(a[1])}),
    ("loss.loss_grad", "uscrl.loss", "loss_grad", None, _grad_post),
    ("loss.scores_from_reps", "uscrl.loss", "scores_from_reps", None,
     lambda _, a, k, r: {"rows": len(a[1])}),
    ("risk.ustat_overall", "uscrl.risk", "ustat_overall", None, _terms),
    ("risk.vstat_overall", "uscrl.risk", "vstat_overall", None, _terms),
    ("risk.subsampled_risk", "uscrl.risk", "subsampled_risk", None, _terms),
    ("risk.population_risk_mc", "uscrl.risk", "population_risk_mc", None,
     _terms),
    ("tuples.subsample_tuples", "uscrl.tuples", "subsample_tuples", None,
     _tuples),
    ("tuples.enumerate_all_tuples", "uscrl.tuples", "enumerate_all_tuples",
     None, _tuples),
    ("tuples.disjoint_tuples", "uscrl.tuples", "disjoint_tuples", None,
     _tuples),
    ("tuples.to_jsonl", "uscrl.tuples", "TupleSet.to_jsonl", None,
     lambda _, a, k, r: {"bytes": len(r)}),
    ("tuples.tuple_mass", "uscrl.tuples", "tuple_mass", None, None),
    ("dataset.generate_gaussian", "uscrl.dataset", "generate_gaussian", None,
     lambda _, a, k, r: {"rows": r.n}),
    ("bounds.evaluate_theorem", "uscrl.bounds", "evaluate_theorem", None,
     None),
]

LAYERS = list(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """Wraps the TARGETS while active and aggregates their spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            state = pre(args, kwargs) if pre else None
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
                tracer.spans.append((tracer.op, span_id, name, t0, t1, parent))
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t_enter
            if post:
                t_post = time.perf_counter()
                for key, val in post(state, args, kwargs, result).items():
                    tracer.counts[name][key] += val
                extra = time.perf_counter() - t_post
                if tracer._stack:
                    tracer._stack[-1][1] += extra
            tracer.bookkeeping_s += (time.perf_counter() - t_enter) - (t1 - t0)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every uscrl binding of each target by its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uscrl" or n.startswith("uscrl."))]
        for name, mod_name, attr, pre, post in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, pre, post))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics averaged per workload op."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.calls", self.calls[layer] / ops, "1/op")
            put(f"{layer}.self_s", self.self_s[layer] / ops, "s/op")
        c = self.counts
        calls = self.calls
        put("model.tuple_batch_backward.tuples",
            c["model.tuple_batch_backward"]["tuples"] / ops, "1/op")
        put("model.tuple_batch_backward.rows_per_pool",
            _ratio(c["model.tuple_batch_backward"]["rows_per_pool"],
                   calls["model.tuple_batch_backward"]), "frac")
        put("model.project.binding_frac",
            _ratio(c["model.project"]["binding"], calls["model.project"]),
            "frac")
        put("trainer.train.steps", c["trainer.train"]["steps"] / ops, "1/op")
        for layer in ("loss.loss_value", "loss.loss_grad",
                      "loss.scores_from_reps", "model.forward",
                      "dataset.generate_gaussian"):
            put(f"{layer}.rows", c[layer]["rows"] / ops, "1/op")
        put("loss.zero_grad_frac",
            _ratio(c["loss.loss_grad"]["zero_rows"],
                   c["loss.loss_grad"]["rows"]), "frac")
        for layer in ("risk.ustat_overall", "risk.vstat_overall",
                      "risk.subsampled_risk", "risk.population_risk_mc"):
            put(f"{layer}.terms", c[layer]["terms"] / ops, "1/op")
        for layer in ("tuples.subsample_tuples", "tuples.enumerate_all_tuples",
                      "tuples.disjoint_tuples"):
            put(f"{layer}.tuples", c[layer]["tuples"] / ops, "1/op")
        put("tuples.to_jsonl.bytes", c["tuples.to_jsonl"]["bytes"] / ops,
            "B/op")
        put("trace.bookkeeping_s", self.bookkeeping_s / ops, "s/op")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: op, id, name, start, end, parent id."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
