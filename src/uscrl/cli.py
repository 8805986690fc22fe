"""Command-line interface: sample, estimate, bounds, experiment, train.

Every run validates its JSON config against the shipped schema, writes
its outputs under --out, and drops a manifest.json recording the config
hash, seeds and output names. Reruns with the same config and seed
produce byte-identical result files (the manifest's timestamps aside).

Exit codes: 0 success, 2 configuration error, 3 precondition failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .bounds import BoundInputs, evaluate_theorem
from .dataset import (GaussianSpec, LabeledDataset, generate_gaussian,
                      load_idx, train_holdout_split)
from .errors import (ConfigError, NumericError, PreconditionError,
                     UscrlError)
from .fileio import atomic_write
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

CACHE_ENV = "USCRL_CACHE_DIR"


def _schema():
    with resources.files("uscrl").joinpath("config_schema.json").open() as f:
        return json.load(f)


def _validate_config(cfg: dict, section: str) -> None:
    import jsonschema

    schema = _schema()
    ref = {"$ref": f"#/$defs/{section}", "$defs": schema["$defs"]}
    validator = jsonschema.Draft202012Validator(ref)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {err.message}")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _gaussian_spec(ds_cfg: dict) -> GaussianSpec:
    return GaussianSpec.random(
        num_classes=ds_cfg["num_classes"],
        dim=ds_cfg.get("dim", 128),
        sigma=ds_cfg.get("sigma", 0.1),
        seed=ds_cfg.get("centers_seed", 0),
        priors=ds_cfg.get("priors"))


def _cache_key(ds_cfg: dict, seed: int) -> str:
    return _config_hash({"dataset": ds_cfg, "seed": seed})[:24]


def _load_pool(ds_cfg: dict, seed: int) -> LabeledDataset:
    if ds_cfg["type"] == "idx":
        return load_idx(ds_cfg["images"], ds_cfg["labels"],
                        num_classes=ds_cfg.get("num_classes"))
    if "n" not in ds_cfg:
        raise ConfigError("config field dataset.n: required to draw a pool")
    spec = _gaussian_spec(ds_cfg)
    cache_dir = os.environ.get(CACHE_ENV)
    path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"pool_{_cache_key(ds_cfg, seed)}.npz")
        if os.path.exists(path):
            with np.load(path) as blob:
                return LabeledDataset(blob["x"], blob["y"],
                                      int(blob["num_classes"]))
    ds = generate_gaussian(spec, ds_cfg["n"], seed=seed)
    if path:
        _save_pool(path, ds)
    return ds


def _save_pool(path: str, ds: LabeledDataset) -> None:
    """Written by rename, so a concurrent run never reads a partial file."""
    with atomic_write(path, "wb") as f:
        np.savez(f, x=ds.x, y=ds.y, num_classes=ds.num_classes)


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
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path


def _write_json(path: str, obj) -> None:
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
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


def cmd_sample(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    ds = _load_pool(cfg["dataset"], seed)
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

    if estimator == "population_mc":
        if cfg["dataset"]["type"] != "gaussian":
            raise ConfigError(
                "config field estimator: population_mc needs a gaussian "
                "dataset (an empirical pool has no population law)")
        gspec = _gaussian_spec(cfg["dataset"])
        est = population_risk_mc(model, gspec, k, spec, num_draws=mc_draws,
                                 seed=seed)
    else:
        ds = _load_pool(cfg["dataset"], seed)
        if model.in_dim != ds.dim:
            raise ConfigError(
                f"checkpoint expects input dim {model.in_dim}, pool has {ds.dim}")
        if estimator == "subsampled":
            if "m_tuples" not in cfg:
                raise ConfigError("config field m_tuples: required for the "
                                  "subsampled estimator")
            ts = subsample_tuples(ds, k, cfg["m_tuples"], seed=seed)
            est = subsampled_risk(model, ds, ts, spec)
        elif estimator.startswith(("ustat_", "vstat_")):
            stat, how = estimator.split("_")
            overall = ustat_overall if stat == "ustat" else vstat_overall
            est = overall(model, ds, k, spec,
                          mode=Exact(cap=cap) if how == "exact"
                          else MonteCarlo(mc_draws, seed=seed))
        else:  # enumeration_mean: independent nu-weighted enumeration
            ts = enumerate_all_tuples(ds, k, cap=cap)
            if ts.m_count == 0:
                raise PreconditionError("no valid tuple to enumerate")
            losses = tuple_losses(model, ds, ts.anchors, ts.positives,
                                  ts.negatives, spec)
            masses = tuple_masses(ds, k, ts.class_ids)
            est = RiskEstimate(float(np.sum(losses * masses)),
                               "enumeration_mean", ts.m_count)

    path = os.path.join(out_dir, "estimate.json")
    _write_json(path, est.to_json())
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
        _write_json(path, report.to_json())
        return [path]

    params = sorted(sweep.keys())
    grids = [sweep[p] for p in params]
    combos = [[]]
    for grid in grids:
        combos = [c + [v] for c in combos for v in grid]
    rows = []
    term_names: list[str] = []
    for combo in combos:
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
    pool = _load_pool(cfg["dataset"], seed)
    k = cfg["k"]
    tasks = [(pool, cfg, k, int(s)) for s in cfg["seeds"]]
    chunks = []
    with contextlib.ExitStack() as stack:
        run = map
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            run = pool.map
        results = run(_regimes_worker, tasks)
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
        search_tol=cfg.get("search_tol", 100),
        ref_mult=cfg.get("ref_mult", 4),
        m_cap=cfg.get("m_cap", 200000))
    header = ["k", "num_classes", "eps", "seed", "reached", "n_eps",
              "gap_at_hi", "reference_risk", "mean_n_eps"]
    rows = [[k, gspec.num_classes, cfg["eps"], r["seed"], r["reached"],
             r["n_eps"], r["gap_at_hi"], result["reference_risk"],
             result["mean_n_eps"]] for r in result["per_seed"]]
    csv_path = os.path.join(out_dir, "complexity.csv")
    _write_csv(csv_path, header, rows)
    json_path = os.path.join(out_dir, "complexity.json")
    _write_json(json_path, result)
    return [csv_path, json_path]


def cmd_train(cfg: dict, out_dir: str, seed: int, jobs: int) -> list[str]:
    k = cfg["k"]
    tcfg = _train_config(cfg, k, seed)
    ds = _load_pool(cfg["dataset"], seed)
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
    _write_json(path, report.to_json())
    return [path, ck_json, ck_bin]


_SUBCOMMANDS = {
    "sample": ("sample", cmd_sample),
    "estimate": ("estimate", cmd_estimate),
    "bounds": ("bounds", cmd_bounds),
    "experiment:regimes": ("experiment_regimes", cmd_experiment_regimes),
    "experiment:complexity": ("experiment_complexity", cmd_experiment_complexity),
    "train": ("train", cmd_train),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uscrl",
        description="Contrastive tuple sampling, risk estimation, bound "
                    "calculators and training over fixed labeled pools.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes where supported")
        if extra:
            extra(p)
        return p

    add("sample", "draw or enumerate a tuple set, write JSON-lines")
    add("estimate", "evaluate a risk estimator for a checkpointed model")
    add("bounds", "evaluate a bound statement or sweep its parameters")
    exp = add("experiment", "run an experiment protocol",
              extra=lambda p: p.add_argument(
                  "protocol", choices=["regimes", "complexity"]))
    add("train", "train a representation model, write checkpoint and report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    key = args.subcommand
    if key == "experiment":
        key = f"experiment:{args.protocol}"
    section, func = _SUBCOMMANDS[key]

    started = _now()
    try:
        with open(args.config) as f:
            try:
                cfg = json.load(f)
            except (ValueError, RecursionError) as e:  # long ints, deep nesting
                raise ConfigError(f"config is not valid JSON: {e}") from e
        _validate_config(cfg, section)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        os.makedirs(args.out, exist_ok=True)
        outputs = func(cfg, args.out, seed, args.jobs)
        manifest = _write_manifest(args.out, key, cfg, seed,
                                   [os.path.basename(p) for p in outputs],
                                   started)
        print(f"wrote {len(outputs)} output(s) and {manifest}")
        return 0
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except UscrlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
