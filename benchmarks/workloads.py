"""The benchmark's three workloads: inputs, CLI calls and output checks.

Every workload op runs one input instance through ``uscrl.cli.main``
in-process. Instances are numbered 0..INSTANCES-1; the instance fixes the
CLI seed (and so the pool), so each one has recorded reference outputs in
``reference.json``. A run's ``--seed`` picks the order in which instances
are visited.

Sizes are chosen so that one op takes one to two seconds on a 2-core x86
machine with one BLAS thread, which gives each run enough ops for a
median.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import uscrl.cli

INSTANCES = 32

# share of the reported standard error by which an SGD-trained risk may
# move before it counts as wrong
SE_FRACTION = 0.25
# relative tolerance for exact and seeded (Monte Carlo) estimates
REL_TOL = 1e-9

REGIMES_EPOCHS = 2
MLP_EPOCHS = 3
EVAL_N = 32
EVAL_DRAWS = 100_000
ESTIMATORS = ("ustat_exact", "vstat_exact", "enumeration_mean", "ustat_mc",
              "vstat_mc", "subsampled", "population_mc")

# The paper's small-pool regime comparison. The pool holds 60 samples
# rather than 42 so that 10 globally disjoint tuples exist for every pool
# seed; the all-tuples run still trains on the 40 re-pooled samples.
REGIMES_CONFIG = {
    "dataset": {"type": "gaussian", "num_classes": 3, "dim": 8, "sigma": 0.8,
                "n": 60, "centers_seed": 42},
    "n_disjoint": 10, "k": 2, "m_grid": [10000],
    "train": {"family": "linear", "out_dim": 6, "epochs": REGIMES_EPOCHS,
              "batch_size": 256, "lr": 0.3, "eval_draws": 4000},
}

MLP_CONFIG = {
    "dataset": {"type": "gaussian", "num_classes": 5, "dim": 96, "sigma": 2.0,
                "n": 4000},
    "k": 3,
    "train": {"family": "mlp", "hidden": [64], "out_dim": 8,
              "m_tuples": 10000, "epochs": MLP_EPOCHS, "batch_size": 256,
              "eval_draws": 20000},
}

EVAL_DATASET = {"type": "gaussian", "num_classes": 3, "dim": 8, "sigma": 0.8,
                "n": EVAL_N}

# evaluate-pool scores this checkpoint; set-up trains it with a fixed seed
CHECKPOINT_CONFIG = {
    "dataset": EVAL_DATASET, "k": 2,
    "train": {"family": "linear", "out_dim": 6, "m_tuples": 4000,
              "epochs": 3, "eval_draws": 4000},
}
CHECKPOINT_SEED = 1000


@dataclass
class Call:
    """One CLI invocation and what its outputs were checked against."""

    name: str
    rc: int
    stderr: str = ""
    # key -> (observed value, rule); rule is "exact", "rel" or "se:<key>"
    observed: dict = field(default_factory=dict)


@dataclass
class OpResult:
    instance: int
    calls: list
    items: int          # tuple gradients, or estimator terms
    digest: str


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


def _cli(name: str, argv: list) -> Call:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = uscrl.cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failed call
        return Call(name, 1, traceback.format_exc())
    return Call(name, rc, err.getvalue().strip())


def _hash_files(h, *paths) -> None:
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())


class Workload:
    """Base: ``prepare`` writes inputs into workdir, ``op`` runs one instance.

    ``probe_mix`` weighs the host speed probe's passes (see calibration.py)
    by the kind of work the op mostly does.
    """

    name = ""
    probe_mix: dict = {}

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def prepare(self) -> list:
        raise NotImplementedError

    def op(self, instance: int) -> OpResult:
        raise NotImplementedError


class RegimesTinyPool(Workload):
    """`uscrl experiment regimes` on a 40-sample re-pooled all-tuples set."""

    name = "regimes-tiny-pool"
    probe_mix = {"dispatch": 1.0}

    def prepare(self) -> list:
        for i in range(INSTANCES):
            _write_json(self.path(f"regimes-{i}.json"),
                        {**REGIMES_CONFIG, "seeds": [i]})
        return []

    def op(self, instance: int) -> OpResult:
        out = self.path("out")
        call = _cli("experiment regimes",
                    ["experiment", "regimes", "--config",
                     self.path(f"regimes-{instance}.json"), "--out", out,
                     "--seed", str(instance)])
        h = hashlib.sha256()
        items = 0
        if call.rc == 0:
            csv_path = os.path.join(out, "regimes.csv")
            _hash_files(h, csv_path)
            with open(csv_path, newline="") as f:
                for row in csv.DictReader(f):
                    key = row["regime"]
                    m = int(row["m_count"])
                    items += m * REGIMES_EPOCHS
                    call.observed[f"{key}.m_count"] = (m, "exact")
                    call.observed[f"{key}.final_risk"] = (
                        float(row["final_risk"]), f"se:{key}.final_risk_se")
                    call.observed[f"{key}.final_risk_se"] = (
                        float(row["final_risk_se"]), None)
        return OpResult(instance, [call], items, h.hexdigest())


def _train_call(name: str, config: str, out: str, seed: int, h) -> Call:
    call = _cli(name, ["train", "--config", config, "--out", out,
                       "--seed", str(seed)])
    if call.rc == 0:
        _hash_files(h, os.path.join(out, "checkpoint.json"),
                    os.path.join(out, "checkpoint.bin"))
        with open(os.path.join(out, "report.json")) as f:
            rep = json.load(f)
        # the report's wall time differs on every run
        h.update(json.dumps({k: v for k, v in rep.items()
                             if k != "wall_seconds"}, sort_keys=True).encode())
        call.observed = {
            "n_steps": (rep["n_steps"], "exact"),
            "m_tuples_used": (rep["m_tuples_used"], "exact"),
            "final_risk": (rep["final_risk"], "se:final_risk_se"),
            "final_risk_se": (rep["final_risk_se"], None),
        }
    return call


class TrainMlpWide(Workload):
    """`uscrl train` of a wide one-hidden-layer MLP, tuples redrawn per epoch."""

    name = "train-mlp-wide"
    probe_mix = {"blas": 1.0}

    def prepare(self) -> list:
        _write_json(self.path("train.json"), MLP_CONFIG)
        return []

    def op(self, instance: int) -> OpResult:
        h = hashlib.sha256()
        call = _train_call("train", self.path("train.json"), self.path("out"),
                           instance, h)
        items = MLP_CONFIG["train"]["m_tuples"] * MLP_EPOCHS if call.rc == 0 \
            else 0
        return OpResult(instance, [call], items, h.hexdigest())


class EvaluatePool(Workload):
    """Forward-only scoring: enumerate, every estimator, a bounds sweep."""

    name = "evaluate-pool"
    probe_mix = {"bulk": 1.0, "python": 1.0}

    def prepare(self) -> list:
        _write_json(self.path("checkpoint.json"), CHECKPOINT_CONFIG)
        _write_json(self.path("sample.json"),
                    {"dataset": EVAL_DATASET, "k": 2, "regime": "all_tuples"})
        ckpt = self.path("ckpt", "checkpoint")
        for est in ESTIMATORS:
            _write_json(self.path(f"estimate-{est}.json"),
                        {"dataset": EVAL_DATASET, "k": 2, "estimator": est,
                         "checkpoint": ckpt, "m_tuples": EVAL_DRAWS,
                         "mc_draws": EVAL_DRAWS})
        for i in range(INSTANCES):
            _write_json(self.path(f"bounds-{i}.json"), _bounds_config(i))
        call = _train_call("setup train", self.path("checkpoint.json"),
                           self.path("ckpt"), CHECKPOINT_SEED,
                           hashlib.sha256())
        return [call]

    def op(self, instance: int) -> OpResult:
        out = self.path("out")
        seed = ["--seed", str(instance)]
        h = hashlib.sha256()
        calls = []

        call = _cli("sample", ["sample", "--config", self.path("sample.json"),
                               "--out", out, *seed])
        if call.rc == 0:
            path = os.path.join(out, "tuples.jsonl")
            _hash_files(h, path)
            with open(path, "rb") as f:
                lines = f.read().count(b"\n")
            call.observed["tuples"] = (lines, "exact")
        calls.append(call)

        items = 0
        for est in ESTIMATORS:
            call = _cli(f"estimate {est}",
                        ["estimate", "--config",
                         self.path(f"estimate-{est}.json"), "--out", out,
                         *seed])
            if call.rc == 0:
                path = os.path.join(out, "estimate.json")
                _hash_files(h, path)
                with open(path) as f:
                    res = json.load(f)
                items += res["n_terms"]
                call.observed = {"value": (res["value"], "rel"),
                                 "n_terms": (res["n_terms"], "exact")}
            calls.append(call)

        call = _cli("bounds", ["bounds", "--config",
                               self.path(f"bounds-{instance}.json"),
                               "--out", out])
        if call.rc == 0:
            path = os.path.join(out, "bounds.csv")
            _hash_files(h, path)
            with open(path, newline="") as f:
                totals = [float(r["total"]) for r in csv.DictReader(f)]
            call.observed = {"rows": (len(totals), "exact"),
                             "total_sum": (sum(totals), "rel"),
                             "total_max": (max(totals), "rel")}
        calls.append(call)
        return OpResult(instance, calls, items, h.hexdigest())


def _bounds_config(instance: int) -> dict:
    """A 5 x 4 x 6 = 120-point sweep whose pool sizes move with the instance."""
    base = 400 + 25 * instance
    return {
        "theorem": "subsampled_linear", "n": base, "num_classes": 3, "k": 2,
        "delta": 0.05, "loss_bound": 4.4, "class_k": 2.0, "m_tuples": 50000,
        "family_params": {"eta": 1.0, "s": 4.0, "a": 1.0, "b": 3.0, "d": 8},
        "sweep": {"n": [base * 2 ** j for j in range(5)], "k": [1, 2, 3, 4],
                  "delta": [0.01, 0.02, 0.05, 0.1, 0.2, 0.3]},
    }


WORKLOADS = {w.name: w for w in (RegimesTinyPool, TrainMlpWide, EvaluatePool)}


def check_call(call: Call, reference: dict | None) -> str | None:
    """None when the call succeeded and matches its reference, else why not."""
    if call.rc != 0:
        return f"exit code {call.rc}: {call.stderr}"
    if reference is None:
        return "no reference recorded"
    missing = sorted(set(reference) - set(call.observed))
    if missing:
        return f"outputs lack {', '.join(missing)}"
    for key, (value, rule) in call.observed.items():
        if rule is None:
            continue
        if key not in reference:
            return f"{key}: no reference value"
        ref = reference[key]
        if rule == "exact":
            ok = value == ref
        elif rule == "rel":
            ok = abs(value - ref) <= REL_TOL * abs(ref)
        else:
            ok = abs(value - ref) <= SE_FRACTION * reference[rule[3:]]
        if not ok:
            return f"{key}: got {value!r}, reference {ref!r} ({rule})"
    return None


def observed_values(call: Call) -> dict:
    return {key: value for key, (value, _) in call.observed.items()}
