"""Projected SGD training and the two experiment protocols.

Training minimizes the mean clipped tuple loss with mini-batch SGD,
projecting back onto the norm-constraint set after every step. Tuples
come from one of the three regimes; the sub-sampled regime can redraw
its M tuples each epoch or keep one fixed draw.

``compare_regimes`` mirrors the pool-based comparison experiment: one
set of n disjoint tuples, a sub-sampled run for each tuple budget M on
the re-pooled samples of those tuples, and the full enumeration when it
fits under the cap. ``sample_complexity_search`` binary-searches the
smallest pool size whose trained model comes within epsilon of a large
reference model's population risk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataset import GaussianSpec, LabeledDataset, generate_gaussian
from .errors import ConfigError, NumericError, PreconditionError
from .loss import LossSpec
from .model import (make_linear, make_mlp, mean_classifier, project,
                    tuple_batch_backward)
from .risk import MonteCarlo, child_seed, population_risk_mc, ustat_overall
from .tuples import (DEFAULT_CAP, REGIME_ALL, REGIME_IID, REGIME_SUB,
                     REGIMES, TupleSet, count_all_tuples, disjoint_tuples,
                     regime_tuples)

REF_EPOCH_MULT = 3  # epoch multiplier of the complexity reference model


@dataclass(frozen=True)
class TrainConfig:
    family: str = "mlp"            # "linear" | "mlp"
    hidden: tuple = (64,)          # mlp hidden widths
    out_dim: int = 32
    spectral_cap: float = 4.0      # per layer (mlp) or on A (linear)
    max_col_sum: float = 64.0      # linear family (2,1)-norm cap
    activations: tuple | None = None
    loss_kind: str = "logistic"
    clip: float | None = None      # None -> 4*log(1+k)
    margin: float = 1.0
    k: int = 2
    regime: str = REGIME_SUB
    m_tuples: int = 10000
    resample_per_epoch: bool = True
    epochs: int = 20
    batch_size: int = 256
    lr: float = 0.1
    momentum: float = 0.0
    seed: int = 0
    eval_every: int = 0            # 0 = final evaluation only
    eval_draws: int = 20000
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.family not in ("linear", "mlp"):
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        if any(v < 1 for v in (self.epochs, self.batch_size, self.k,
                               self.m_tuples)):
            raise ConfigError("epochs, batch_size, k and m_tuples must be >= 1")
        if any(v < 0 for v in (self.lr, self.momentum, self.eval_every)):
            raise ConfigError("lr, momentum and eval_every must be >= 0")

    def loss_spec(self) -> LossSpec:
        return LossSpec.for_k(self.k, self.loss_kind, self.clip, self.margin)


@dataclass
class TrainReport:
    config: dict
    epoch_losses: list
    eval_points: list          # [{"epoch", "risk", "std_error", "probe_accuracy"}]
    final_risk: float | None
    final_risk_se: float | None
    final_probe_accuracy: float | None
    n_steps: int
    m_tuples_used: int
    model: object = field(repr=False, compare=False, default=None)

    def to_json(self) -> dict:
        """Every field but the model, whose weights asdict would copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "model"}


def _build_model(cfg: TrainConfig, in_dim: int):
    seed = child_seed(cfg.seed, 1)
    if cfg.family == "linear":
        return make_linear(in_dim, cfg.out_dim, max_col_sum=cfg.max_col_sum,
                           max_spectral=cfg.spectral_cap, seed=seed)
    widths = [in_dim, *cfg.hidden, cfg.out_dim]
    acts = list(cfg.activations) if cfg.activations else None
    return make_mlp(widths, cfg.spectral_cap, seed=seed, activations=acts)


def _draw_tuples(ds: LabeledDataset, cfg: TrainConfig, epoch: int) -> TupleSet:
    return regime_tuples(ds, cfg.k, cfg.regime, child_seed(cfg.seed, 2, epoch),
                         m_tuples=cfg.m_tuples, cap=cfg.cap)


def _evaluate(model, cfg: TrainConfig, spec: LossSpec, ds: LabeledDataset,
              eval_spec: GaussianSpec | None,
              holdout: LabeledDataset | None, with_probe: bool) -> dict:
    """One eval point's risk and standard error: population Monte Carlo
    when ``eval_spec`` is given, else a Monte Carlo U-statistic on
    ``holdout``, else none. ``with_probe`` adds the accuracy of the mean
    classifier fitted on the pool's representations, scored on fresh
    population draws, else on the holdout, else in-sample."""
    seed = child_seed(cfg.seed, 3)
    est, test = None, ds
    if eval_spec is not None:
        est = population_risk_mc(model, eval_spec, cfg.k, spec,
                                 num_draws=cfg.eval_draws, seed=seed)
        if with_probe:
            test = generate_gaussian(
                eval_spec, max(1000, 100 * eval_spec.num_classes),
                seed=child_seed(cfg.seed, 5))
    elif holdout is not None:
        per_class = max(200, cfg.eval_draws // max(1, holdout.num_classes))
        est = ustat_overall(model, holdout, cfg.k, spec,
                            mode=MonteCarlo(per_class, seed=seed))
        test = holdout
    point = ({"risk": None, "std_error": None} if est is None
             else {"risk": est.value, "std_error": est.std_error})
    if with_probe:
        _, pred = mean_classifier(model.forward(ds.x), ds.y, ds.num_classes,
                                  model.forward(test.x))
        point["probe_accuracy"] = float(np.mean(pred == test.y))
    return point


def train(ds: LabeledDataset, cfg: TrainConfig,
          eval_spec: GaussianSpec | None = None,
          holdout: LabeledDataset | None = None,
          tuples: TupleSet | None = None,
          with_probe: bool = False) -> TrainReport:
    """Projected mini-batch SGD on the clipped tuple loss.

    ``tuples`` pins an explicit training tuple set (regime sampling and
    per-epoch resampling are then disabled). Evaluation uses fresh
    population draws when ``eval_spec`` is given, otherwise a Monte Carlo
    U-statistic on ``holdout`` when provided. It runs after every
    ``eval_every``-th epoch and always after the last one; each run adds
    an eval point, except a last-epoch one with no risk to report;
    ``with_probe`` adds the mean-classifier accuracy to each. The
    ``final_*`` fields are the last epoch's evaluation. Identical config
    and seed reproduce the exact same report.
    """

    spec = cfg.loss_spec()
    model = _build_model(cfg, ds.dim)
    velocity = [np.zeros_like(w) for w in model.weights]
    rng = np.random.default_rng(child_seed(cfg.seed, 0))

    fixed = tuples
    if fixed is None and not (cfg.regime == REGIME_SUB and cfg.resample_per_epoch):
        fixed = _draw_tuples(ds, cfg, epoch=0)
    if fixed is not None and fixed.m_count == 0:
        raise PreconditionError("empty training tuple set")

    epoch_losses = []
    eval_points = []
    n_steps = 0
    for epoch in range(cfg.epochs):
        ts = fixed if fixed is not None else _draw_tuples(ds, cfg, epoch)
        order = rng.permutation(ts.m_count)
        loss_sum = 0.0
        for lo in range(0, ts.m_count, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            try:
                grads, batch_loss = tuple_batch_backward(
                    model, ds, np.take(ts.anchors, idx),
                    np.take(ts.positives, idx),
                    np.take(ts.negatives, idx, axis=0), spec)
            except NumericError as e:
                raise NumericError(
                    f"{e} at step {n_steps} (epoch {epoch})") from None
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"training loss diverged at step {n_steps} (epoch {epoch})")
            for v, g in zip(velocity, grads):
                v *= cfg.momentum
                v += g
            model.weights = [w - cfg.lr * v
                             for w, v in zip(model.weights, velocity)]
            project(model)
            loss_sum += batch_loss * idx.size
            n_steps += 1
        epoch_losses.append(loss_sum / ts.m_count)
        last = epoch + 1 == cfg.epochs
        if last or (cfg.eval_every and (epoch + 1) % cfg.eval_every == 0):
            point = {"epoch": epoch + 1, **_evaluate(
                model, cfg, spec, ds, eval_spec, holdout, with_probe)}
            if not (last and point["risk"] is None):
                eval_points.append(point)

    return TrainReport(
        config=asdict(cfg), epoch_losses=epoch_losses,
        eval_points=eval_points, final_risk=point["risk"],
        final_risk_se=point["std_error"],
        final_probe_accuracy=point.get("probe_accuracy"), n_steps=n_steps,
        m_tuples_used=ts.m_count, model=model)


def compare_regimes(pool: LabeledDataset, n_disjoint: int, k: int,
                    m_grid, seeds, cfg: TrainConfig,
                    eval_spec: GaussianSpec | None = None) -> list[dict]:
    """Paired comparison of the three tuple regimes on one pool.

    For each seed, draw n disjoint tuples and re-pool the n*(k+2) samples
    they touch. The seed's runs, in order: the i.i.d. regime on those
    tuples over the whole pool; M sub-sampled tuples of the re-pooled
    samples for each M in the grid; all their tuples when the enumeration
    fits under the cap. Each run builds its tuples just before training
    and gives one row, whose keys are the regimes.csv header. Model init
    is shared within a seed so the comparison is paired.
    """

    rows = []
    for seed in seeds:
        base = replace(cfg, k=k, seed=int(seed))
        chosen = disjoint_tuples(pool, k, n_disjoint,
                                 seed=child_seed(seed, 10))

        used = np.unique(np.concatenate(
            [chosen.anchors, chosen.positives, chosen.negatives.ravel()]))
        if used.size != n_disjoint * (k + 2):
            raise PreconditionError(
                f"{n_disjoint} disjoint tuples touch {used.size} samples, "
                f"expected {n_disjoint * (k + 2)}")
        sub_pool = pool.subset(used)

        runs = [(REGIME_IID, 0)] + [(REGIME_SUB, int(m)) for m in m_grid]
        if count_all_tuples(sub_pool, k)[0] <= cfg.cap:
            runs.append((REGIME_ALL, 0))
        for regime, m in runs:
            ds, ts = (pool, chosen) if regime == REGIME_IID else (
                sub_pool, regime_tuples(sub_pool, k, regime,
                                        child_seed(seed, 12, m),
                                        m_tuples=m, cap=cfg.cap))
            report = train(ds, base, eval_spec=eval_spec, tuples=ts,
                           with_probe=True)
            rows.append({"regime": regime, "m_count": ts.m_count,
                         "seed": int(seed), "n_disjoint": n_disjoint, "k": k,
                         "final_train_loss": report.epoch_losses[-1],
                         "final_risk": report.final_risk,
                         "final_risk_se": report.final_risk_se,
                         "probe_accuracy": report.final_probe_accuracy})
    return rows


def sample_complexity_search(gspec: GaussianSpec, k: int, eps: float,
                             lo: int, hi: int, seeds, cfg: TrainConfig,
                             search_tol: int = 100, ref_mult: int = 4,
                             m_cap: int = 200000) -> dict:
    """Binary search for the pool size reaching a target excess risk.

    The reference risk comes from one model per configuration trained on
    a pool of ref_mult * hi samples for REF_EPOCH_MULT times the epochs.
    A probe at pool size N trains on min(N^2, m_cap) sub-sampled tuples;
    its gap is the population risk minus the reference risk. Per seed, the
    search keeps gap(lo) > eps and gap(hi) <= eps and halves the bracket
    until its width is at most search_tol, returning the smallest tested N
    whose gap made the target. If even the full range fails, the seed
    reports not reached with the gap at hi.
    """

    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not 1 <= lo < hi:
        raise ConfigError("need 1 <= lo < hi")
    spec = cfg.loss_spec()

    def risk_at(n: int, run_cfg: TrainConfig, pool_seed: int) -> float:
        """Population risk of a model trained on a fresh pool of n samples."""
        run_cfg = replace(run_cfg, k=k, regime=REGIME_SUB,
                          m_tuples=min(n * n, m_cap))
        report = train(generate_gaussian(gspec, n, seed=pool_seed), run_cfg)
        return population_risk_mc(
            report.model, gspec, k, spec, num_draws=cfg.eval_draws,
            seed=child_seed(cfg.seed, 92)).value

    n_ref = ref_mult * hi
    ref_risk = risk_at(n_ref, replace(cfg, epochs=cfg.epochs * REF_EPOCH_MULT,
                                      seed=child_seed(cfg.seed, 90)),
                       child_seed(cfg.seed, 91))

    per_seed = []
    for seed in seeds:
        log: list = []

        def made_target(n: int) -> bool:
            gap = risk_at(n, replace(cfg, seed=child_seed(seed, 93, n)),
                          child_seed(seed, 94, n)) - ref_risk
            log.append({"n": n, "gap": gap})
            return gap <= eps

        n_eps = None
        if made_target(hi):
            a, n_eps = lo, hi
            if made_target(lo):
                n_eps = lo
            while n_eps - a > search_tol:  # gap(a) > eps >= gap(n_eps)
                mid = (a + n_eps) // 2
                if made_target(mid):
                    n_eps = mid
                else:
                    a = mid
        per_seed.append({"seed": int(seed), "reached": n_eps is not None,
                         "n_eps": n_eps, "gap_at_hi": log[0]["gap"],
                         "probes": log})

    reached = [r["n_eps"] for r in per_seed if r["reached"]]
    return {"k": k, "num_classes": gspec.num_classes, "eps": eps,
            "lo": lo, "hi": hi, "search_tol": search_tol,
            "reference_risk": ref_risk, "reference_n": n_ref,
            "per_seed": per_seed,
            "mean_n_eps": float(np.mean(reached)) if reached else None}
