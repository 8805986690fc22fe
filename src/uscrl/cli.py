"""Command-line interface: sample, estimate, bounds, experiment, train.

Every run validates its JSON config against the shipped schema, writes
its outputs under --out, and drops a manifest.json recording the config
hash, seeds, output names and the environment (numpy, BLAS, the BLAS
thread variables, Python and peak RSS). Reruns with the same config, seed
and BLAS thread count produce byte-identical result files (the manifest's
timestamps and peak RSS aside).

Exit codes, held by the classes in errors.py: 0 success, 2 configuration
error, 3 precondition failure or out of memory, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from importlib import resources

try:
    import resource
except ImportError:  # no getrusage on Windows
    resource = None

import numpy as np

from . import __version__
from .bounds import BoundInputs, evaluate_theorem
from .dataset import (GaussianSpec, LabeledDataset, generate_gaussian,
                      load_idx, train_holdout_split)
from .errors import ConfigError, PreconditionError, UscrlError
from .fileio import _check_finite, atomic_write, read_json, write_json
from .loss import LossSpec, tuple_losses
from .model import load_checkpoint, save_checkpoint
from .risk import (Exact, MonteCarlo, RiskEstimate, population_risk_mc,
                   subsampled_risk, ustat_overall, vstat_overall)
from .trainer import (TrainConfig, compare_regimes, sample_complexity_search,
                      train)
from .tuples import (DEFAULT_CAP, REGIME_SUB, enumerate_all_tuples,
                     regime_tuples, subsample_tuples, tuple_masses)

CSV_SCHEMAS = {
    "bounds_sweep": "bounds-sweep-v1",
    "regimes": "regimes-v1",
    "complexity": "complexity-v1",
}

INT64 = 2**63  # config integers and seeds must lie in [-INT64, INT64)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _schema():
    with resources.files("uscrl").joinpath("config_schema.json").open() as f:
        return json.load(f)


@functools.cache  # making the class takes about 1 ms, once per process
def _strict_validator():
    from jsonschema import Draft202012Validator as base, validators

    # an integral float such as 2.0 is not an integer: numpy and range()
    # reject it where the config asks for a count
    return validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: type(value) is int))


def _validate_config(cfg: dict, section: str) -> None:
    import jsonschema

    ref = {"$ref": f"#/$defs/{section}", "$defs": _schema()["$defs"]}
    validator = _strict_validator()(ref)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        why = "not used by this run" if err.validator == "not" else err.message
        raise ConfigError(f"config field {path}: {why}")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_config(path: str) -> dict:
    return read_json(path, "config", parse_int=_int64, parse_float=_finite,
                     parse_constant=_finite)


def _int64(text: str) -> int:
    value = int(text)
    if not -INT64 <= value < INT64:
        raise ConfigError(f"config integer {text:.30}{'...' * (len(text) > 30)}"
                          " is outside [-2**63, 2**63)")
    return value


def _finite(text: str) -> float:
    # RFC 8259 has no NaN or Infinity, and a literal such as 1e400 would
    # parse to one; the manifest echoes the config, so it must stay finite
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text:.30} is not a finite double")
    return value


def _given(cfg: dict, *keys: str) -> dict:
    """The keys the config sets, so the callee's defaults apply otherwise."""
    return {key: cfg[key] for key in keys if key in cfg}


def _gaussian_spec(ds_cfg: dict) -> GaussianSpec:
    return GaussianSpec.random(num_classes=ds_cfg["num_classes"],
                               seed=ds_cfg.get("centers_seed", 0),
                               **_given(ds_cfg, "dim", "sigma", "priors"))


def _load_pool(ds_cfg: dict, seed: int) -> LabeledDataset:
    if ds_cfg["type"] == "idx":
        return load_idx(ds_cfg["images"], ds_cfg["labels"],
                        num_classes=ds_cfg.get("num_classes"))
    if "n" not in ds_cfg:
        raise ConfigError("config field dataset.n: required to draw a pool")
    return generate_gaussian(_gaussian_spec(ds_cfg), ds_cfg["n"], seed=seed)


def _tuple_pool(cfg: dict, seed: int) -> LabeledDataset:
    """The config's pool, refusing a k above its size: no tuple has more
    negatives than the pool has samples, and numpy may refuse even an
    empty (0, k) index array for such a k."""
    ds = _load_pool(cfg["dataset"], seed)
    if cfg["k"] > ds.n:
        raise PreconditionError(f"k={cfg['k']} exceeds the pool size {ds.n}")
    return ds


def _train_config(cfg: dict, k: int, seed: int) -> TrainConfig:
    over = dict(cfg.get("train", {}))
    if "hidden" in over:
        over["hidden"] = tuple(over["hidden"])
    if "activations" in over and over["activations"] is not None:
        over["activations"] = tuple(over["activations"])
    return TrainConfig(k=k, seed=seed, **over)


def _write_manifest(out_dir: str, subcommand: str, cfg: dict, seed: int,
                    outputs: list[str], started: str) -> str:
    manifest = {
        "tool": "uscrl",
        "version": __version__,
        "subcommand": subcommand,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "seed": seed,
        "outputs": sorted(outputs),
        "csv_schemas": CSV_SCHEMAS,
        "started": started,
        "finished": _now(),
        "environment": _environment(),
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    _check_finite(path, [dict(zip(header, row)) for row in rows])
    with atomic_write(path, newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return v


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _environment() -> dict:
    """numpy, BLAS, BLAS thread variables, Python and peak RSS of the run.

    The BLAS name and version are null where numpy cannot say (no
    show_config dicts before numpy 1.26). Peak RSS is the larger of this
    process and its reaped children (the --jobs workers).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    peak_mb = None
    if resource is not None:
        # ru_maxrss counts bytes on macOS and KiB elsewhere
        per_mb = 1 << 20 if sys.platform == "darwin" else 1 << 10
        peak_mb = max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / per_mb
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "peak_rss_mb": peak_mb}


def cmd_sample(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    ds = _tuple_pool(cfg, seed)
    k = cfg["k"]
    regime = cfg["regime"]
    if regime == REGIME_SUB and "m_tuples" not in cfg:
        raise ConfigError("config field m_tuples: required for the "
                          "subsampled regime")
    ts = regime_tuples(ds, k, regime, seed, m_tuples=cfg.get("m_tuples"),
                       cap=cfg.get("cap", DEFAULT_CAP))
    ts.validate(ds)
    path = os.path.join(out_dir, "tuples.jsonl")
    with atomic_write(path) as f:
        f.write(ts.to_jsonl())
    print(f"sampled {ts.m_count} tuple(s) [regime={regime}, k={k}]")
    return [path]


def cmd_estimate(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    k = cfg["k"]
    spec = LossSpec.for_k(k, **cfg.get("loss", {}))
    estimator = cfg["estimator"]
    model = load_checkpoint(cfg["checkpoint"])
    cap = cfg.get("cap", DEFAULT_CAP)
    mc_draws = cfg.get("mc_draws", 10000)

    if estimator == "population_mc" and cfg["dataset"]["type"] != "gaussian":
        raise ConfigError(
            "config field estimator: population_mc needs a gaussian "
            "dataset (an empirical pool has no population law)")
    # a V-statistic's negatives repeat, so only it may take a k above n
    data = (_gaussian_spec(cfg["dataset"]) if estimator == "population_mc"
            else _load_pool(cfg["dataset"], seed)
            if estimator.startswith("vstat_") else _tuple_pool(cfg, seed))
    if model.in_dim != data.dim:
        raise ConfigError(
            f"checkpoint expects input dim {model.in_dim}, dataset has {data.dim}")

    if estimator == "population_mc":
        est = population_risk_mc(model, data, k, spec, num_draws=mc_draws,
                                 seed=seed)
    elif estimator == "subsampled":
        if "m_tuples" not in cfg:
            raise ConfigError("config field m_tuples: required for the "
                              "subsampled estimator")
        ts = subsample_tuples(data, k, cfg["m_tuples"], seed=seed)
        est = subsampled_risk(model, data, ts, spec)
    elif estimator.startswith(("ustat_", "vstat_")):
        stat, how = estimator.split("_")
        overall = ustat_overall if stat == "ustat" else vstat_overall
        est = overall(model, data, k, spec,
                      mode=Exact(cap=cap) if how == "exact"
                      else MonteCarlo(mc_draws, seed=seed))
    else:  # enumeration_mean: independent nu-weighted enumeration
        ts = enumerate_all_tuples(data, k, cap=cap)
        if ts.m_count == 0:
            raise PreconditionError("no valid tuple to enumerate")
        losses = tuple_losses(model, data, ts.anchors, ts.positives,
                              ts.negatives, spec)
        masses = tuple_masses(data, k, ts.class_ids)
        est = RiskEstimate(float(np.sum(losses * masses)),
                           "enumeration_mean", ts.m_count)

    path = os.path.join(out_dir, "estimate.json")
    write_json(path, dataclasses.asdict(est))
    return [path]


def _bound_inputs(cfg: dict, **overrides) -> BoundInputs:
    merged = {**cfg, **overrides}
    rho = merged.get("rho")
    if rho is None:
        if "num_classes" not in merged:
            raise ConfigError("config field rho: give rho or num_classes")
        c = merged["num_classes"]
        rho = [1.0 / c] * c
    return BoundInputs(
        n=merged["n"], rho=np.asarray(rho, dtype=float), k=merged["k"],
        delta=merged["delta"], loss_bound=merged["loss_bound"],
        class_k=merged.get("class_k"), m_tuples=merged.get("m_tuples"),
        family_params=merged.get("family_params", {}))


def cmd_bounds(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    theorem = cfg["theorem"]
    emp_rad = cfg.get("emp_rad")
    sweep = cfg.get("sweep")
    if not sweep:
        report = evaluate_theorem(theorem, _bound_inputs(cfg), emp_rad=emp_rad)
        path = os.path.join(out_dir, "bounds.json")
        write_json(path, report.to_json())
        return [path]

    params = sorted(sweep)
    rows = []
    term_names: list[str] = []
    for combo in itertools.product(*(sweep[p] for p in params)):
        report = evaluate_theorem(
            theorem, _bound_inputs(cfg, **dict(zip(params, combo))),
            emp_rad=emp_rad)
        if not term_names:
            term_names = [name for name, _ in report.terms]
        terms = dict(report.terms)
        rows.append(list(combo)
                    + [report.n_tilde, report.lam]
                    + [terms[t] for t in term_names]
                    + [report.total, report.flags["vacuous"],
                       report.flags["lambda_ge_1"]])
    header = (params + ["n_tilde", "lambda"] + [f"term_{t}" for t in term_names]
              + ["total", "vacuous", "lambda_ge_1"])
    path = os.path.join(out_dir, "bounds.csv")
    _write_csv(path, header, rows)
    return [path]


def _regimes_worker(args):
    pool, cfg, k, seed = args
    gspec = _gaussian_spec(cfg["dataset"])
    tcfg = _train_config(cfg, k, seed)
    return compare_regimes(pool, cfg["n_disjoint"], k, cfg["m_grid"],
                           [seed], tcfg, eval_spec=gspec)


def cmd_experiment_regimes(cfg: dict, out_dir: str, seed: int,
                           jobs: int) -> list[str]:
    pool = _tuple_pool(cfg, seed)
    k = cfg["k"]
    tasks = [(pool, cfg, k, int(s)) for s in cfg["seeds"]]
    chunks = []
    executor = contextlib.nullcontext()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    with executor as ex:
        results = (ex.map if ex else map)(_regimes_worker, tasks)
        for i, t in enumerate(tasks):
            try:
                chunks.append(next(results))
            except UscrlError as e:
                raise type(e)(f"job {i} (seed {t[3]}): {e}") from None
    rows = [r for chunk in chunks for r in chunk]
    header = list(rows[0])  # seeds is non-empty and each seed has an iid row
    path = os.path.join(out_dir, "regimes.csv")
    _write_csv(path, header, [[row[h] for h in header] for row in rows])
    return [path]


def cmd_experiment_complexity(cfg: dict, out_dir: str, seed: int,
                              jobs: int) -> list[str]:
    gspec = _gaussian_spec(cfg["dataset"])
    k = cfg["k"]
    tcfg = _train_config(cfg, k, seed)
    result = sample_complexity_search(
        gspec, k, cfg["eps"], cfg["lo"], cfg["hi"],
        [int(s) for s in cfg["seeds"]], tcfg,
        **_given(cfg, "search_tol", "ref_mult", "m_cap"))
    header = ["k", "num_classes", "eps", "seed", "reached", "n_eps",
              "gap_at_hi", "reference_risk", "mean_n_eps"]
    rows = [[k, gspec.num_classes, cfg["eps"], r["seed"], r["reached"],
             r["n_eps"], r["gap_at_hi"], result["reference_risk"],
             result["mean_n_eps"]] for r in result["per_seed"]]
    csv_path = os.path.join(out_dir, "complexity.csv")
    _write_csv(csv_path, header, rows)
    json_path = os.path.join(out_dir, "complexity.json")
    write_json(json_path, result)
    return [csv_path, json_path]


def cmd_train(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    if cfg["dataset"]["type"] == "gaussian" and "holdout_fraction" in cfg:
        raise ConfigError("config field holdout_fraction: a gaussian dataset "
                          "is evaluated on its population, not a held-out split")
    k = cfg["k"]
    tcfg = _train_config(cfg, k, seed)
    ds = _tuple_pool(cfg, seed)
    eval_spec = holdout = None
    if cfg["dataset"]["type"] == "gaussian":
        eval_spec = _gaussian_spec(cfg["dataset"])
    elif cfg.get("holdout_fraction"):
        ds, holdout = train_holdout_split(ds, cfg["holdout_fraction"],
                                          seed=seed)
    report = train(ds, tcfg, eval_spec=eval_spec, holdout=holdout,
                   with_probe=cfg.get("with_probe", False))
    prefix = os.path.join(out_dir, "checkpoint")
    ck_json, ck_bin = save_checkpoint(report.model, prefix)
    path = os.path.join(out_dir, "report.json")
    write_json(path, report.to_json())
    return [path, ck_json, ck_bin]


_SUBCOMMANDS = {
    "sample": ("draw or enumerate a tuple set, write JSON-lines", cmd_sample),
    "estimate": ("evaluate a risk estimator for a checkpointed model",
                 cmd_estimate),
    "bounds": ("evaluate a bound statement or sweep its parameters",
               cmd_bounds),
    "experiment": ("run an experiment protocol",
                   {"regimes": cmd_experiment_regimes,
                    "complexity": cmd_experiment_complexity}),
    "train": ("train a representation model, write checkpoint and report",
              cmd_train),
}


@functools.cache  # building it takes about 0.7 ms; parse_args leaves it as is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uscrl",
        description="Contrastive tuple sampling, risk estimation, bound "
                    "calculators and training over fixed labeled pools.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, command) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes where supported")
        if isinstance(command, dict):
            p.add_argument("protocol", choices=list(command))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    key = args.subcommand
    command = _SUBCOMMANDS[key][1]
    if isinstance(command, dict):
        key, command = f"{key}:{args.protocol}", command[args.protocol]

    started = _now()
    try:
        cfg = _read_config(args.config)
        _validate_config(cfg, key.replace(":", "_"))
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if args.seed is not None and not 0 <= args.seed < INT64:
            raise ConfigError("--seed must be >= 0 and < 2**63")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        os.makedirs(args.out, exist_ok=True)
        outputs = command(cfg, args.out, seed, args.jobs)
        manifest = _write_manifest(args.out, key, cfg, seed,
                                   [os.path.basename(p) for p in outputs],
                                   started)
        print(f"wrote {len(outputs)} output(s) and {manifest}")
        return 0
    except (OSError, MemoryError, OverflowError, ValueError, UscrlError) as e:
        # numpy refuses an array past the address space with this
        # ValueError, and a count past a C long with an OverflowError
        if (isinstance(e, ValueError)
                and not str(e).startswith("array is too big")):
            raise
        if isinstance(e, (MemoryError, OverflowError, ValueError)):
            e = PreconditionError(f"out of memory: {e}")
        kind = type(e) if isinstance(e, UscrlError) else UscrlError
        print(f"{kind.prefix}: {e}", file=sys.stderr)
        return kind.exit_code


if __name__ == "__main__":
    sys.exit(main())
