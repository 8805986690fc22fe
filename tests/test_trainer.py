import math
from dataclasses import replace

import numpy as np
import pytest

from uscrl.dataset import GaussianSpec, generate_gaussian, train_holdout_split
from uscrl.errors import ConfigError, NumericError, PreconditionError
from uscrl.loss import default_clip
from uscrl import trainer
from uscrl import model as model_mod
from uscrl.model import mean_classifier, spectral_norm
from uscrl.risk import child_seed, population_risk_mc
from uscrl.trainer import (TrainConfig, compare_regimes,
                           sample_complexity_search, train)
from uscrl.tuples import (REGIME_ALL, REGIME_IID, REGIME_SUB, TupleSet,
                          subsample_tuples)

from conftest import make_pool
from naive_ref import naive_train


def small_cfg(**over):
    base = dict(family="linear", out_dim=4, k=2, m_tuples=200,
                epochs=2, batch_size=64, lr=0.2, seed=0, eval_draws=1500)
    base.update(over)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(family="tree")
        with pytest.raises(ConfigError):
            TrainConfig(regime="bootstrap")
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(k=0)
        with pytest.raises(ConfigError):
            TrainConfig(m_tuples=0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(eval_every=-1)

    def test_loss_spec_defaults(self):
        spec = TrainConfig(k=3).loss_spec()
        assert spec.kind == "logistic"
        assert spec.clip == default_clip(3)
        spec = TrainConfig(loss_kind="hinge", clip=2.5, margin=0.5).loss_spec()
        assert (spec.kind, spec.clip, spec.margin) == ("hinge", 2.5, 0.5)


class TestTrain:
    def test_zero_lr_is_a_no_op(self):
        ds = make_pool([10, 10], dim=5, seed=1)
        one = train(ds, small_cfg(lr=0.0, epochs=1))
        five = train(ds, small_cfg(lr=0.0, epochs=5))
        for w1, w5 in zip(one.model.weights, five.model.weights):
            np.testing.assert_array_equal(w1, w5)

    def test_deterministic_given_seed(self):
        gspec = GaussianSpec.random(3, dim=6, sigma=0.3, seed=4)
        ds = generate_gaussian(gspec, 60, seed=5)
        cfg = small_cfg(seed=9)
        a = train(ds, cfg, eval_spec=gspec, with_probe=True)
        b = train(ds, cfg, eval_spec=gspec, with_probe=True)
        ja, jb = a.to_json(), b.to_json()
        assert ja == jb
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)
        c = train(ds, small_cfg(seed=10), eval_spec=gspec)
        assert c.final_risk != a.final_risk
        # the probe draws from its own seed: the rest of the report is the same
        plain = train(ds, cfg, eval_spec=gspec).to_json()
        for point in ja["eval_points"]:
            point.pop("probe_accuracy")
        assert plain == {**ja, "final_probe_accuracy": None}

    def test_training_reduces_population_risk(self):
        gspec = GaussianSpec.random(3, dim=8, sigma=0.15, seed=6)
        ds = generate_gaussian(gspec, 120, seed=7)
        cfg = small_cfg(out_dim=6, m_tuples=1500, epochs=5, lr=0.5,
                        batch_size=128, eval_draws=4000, seed=8)
        trained = train(ds, cfg, eval_spec=gspec)
        frozen = train(ds, small_cfg(out_dim=6, m_tuples=1500, epochs=5,
                                     lr=0.0, batch_size=128, eval_draws=4000,
                                     seed=8), eval_spec=gspec)
        # paired evaluation draws, so the comparison is exact
        assert trained.final_risk < frozen.final_risk - 0.02
        assert trained.epoch_losses[-1] < trained.epoch_losses[0]

    def test_constraints_hold_after_training(self):
        ds = make_pool([12, 12], dim=6, seed=11, scale=3.0)
        cfg = TrainConfig(family="mlp", hidden=(8,), out_dim=4,
                          spectral_cap=1.5, k=1, m_tuples=300, epochs=3,
                          batch_size=32, lr=1.0, seed=12)
        report = train(ds, cfg)
        for w in report.model.weights:
            assert spectral_norm(w) <= 1.5 * (1 + 1e-6)

    def test_divergence_raises(self):
        # clipping and projection keep any finite lr stable, so force the
        # non-finite path through the data instead
        ds = make_pool([8, 8], dim=4, seed=13)
        ds.x[0, 0] = np.nan
        cfg = small_cfg(m_tuples=200, batch_size=200, epochs=1)
        with pytest.raises(NumericError, match="step"):
            train(ds, cfg)

    def test_pinned_tuples(self):
        ds = make_pool([8, 8, 8], dim=5, seed=14)
        ts = subsample_tuples(ds, 2, 77, seed=15)
        report = train(ds, small_cfg(), tuples=ts)
        assert report.m_tuples_used == 77
        empty = subsample_tuples(ds, 2, 0, seed=16)
        with pytest.raises(PreconditionError):
            train(ds, small_cfg(), tuples=empty)

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_momentum_is_heavy_ball_then_project(self, family):
        """v <- mu v + g, then w <- project(w - lr v), on train()'s batches."""
        ds = make_pool([6, 6, 6], dim=5, seed=18)
        ts = subsample_tuples(ds, 2, 40, seed=19)
        cfg = small_cfg(family=family, hidden=(5,), momentum=0.5, epochs=3,
                        batch_size=16)
        report = train(ds, cfg, tuples=ts)

        model = trainer._build_model(cfg, ds.dim)
        naive_train(model, ds, ts, cfg.loss_spec(), cfg.epochs,
                    cfg.batch_size, cfg.lr, cfg.momentum,
                    child_seed(cfg.seed, 0))
        assert ([w.tobytes() for w in report.model.weights]
                == [w.tobytes() for w in model.weights])

        plain = train(ds, replace(cfg, momentum=0.0), tuples=ts)
        assert ([w.tobytes() for w in plain.model.weights]
                != [w.tobytes() for w in model.weights])

    # (pool sizes, family, out_dim, m_tuples, batch_size, momentum) and the
    # sides one epoch's batches take
    LOOP_CASES = {
        # 5,000 tuples: a 4,096-tuple block, then a short one; every batch,
        # the short last one too, scores from the 24-row pool's Gram matrix
        "gram_linear_blocks": (([8, 8, 8], "linear", 4, 5000, 256, 0.0),
                               ["gram"] * 20),
        # whole-pool gathers, then a short batch over its touched rows
        "gather_mlp": (([14, 13, 13], "mlp", 4, 140, 64, 0.0),
                       ["gather"] * 3),
        # 197 tuples: three Gram batches, then 5 tuples that gather
        "short_batch_switches_side": (([8, 8, 8], "linear", 4, 197, 64, 0.0),
                                      ["gram"] * 3 + ["gather"]),
        "momentum": (([8, 8, 8], "linear", 4, 600, 128, 0.9), ["gram"] * 5),
    }

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_train_matches_loop_oracle(self, monkeypatch, case):
        """train() over blocks of batches gives the bytes of a per-batch
        loop of tuple_batch_backward, heavy-ball step and project."""
        (sizes, family, out_dim, m, batch, mu), epoch_sides = \
            self.LOOP_CASES[case]
        gspec = GaussianSpec.random(len(sizes), dim=5, sigma=0.5, seed=60)
        ds = make_pool(sizes, dim=5, seed=61)
        ts = subsample_tuples(ds, 2, m, seed=62)
        assert ts.m_count == m
        cfg = small_cfg(family=family, hidden=(6,), out_dim=out_dim,
                        epochs=2, batch_size=batch, momentum=mu, lr=0.3,
                        eval_draws=1000)
        sides = []
        for side, name in (("gram", "gram_loss_grad"),
                           ("gather", "block_loss_grad")):
            def spy(*args, _side=side, _fn=getattr(model_mod, name)):
                sides.append(_side)
                return _fn(*args)
            monkeypatch.setattr(model_mod, name, spy)
        report = train(ds, cfg, eval_spec=gspec, tuples=ts)
        assert sides == epoch_sides * cfg.epochs

        model = trainer._build_model(cfg, ds.dim)
        losses = naive_train(model, ds, ts, cfg.loss_spec(), cfg.epochs,
                             cfg.batch_size, cfg.lr, cfg.momentum,
                             child_seed(cfg.seed, 0))
        assert ([w.tobytes() for w in report.model.weights]
                == [w.tobytes() for w in model.weights])
        assert report.epoch_losses == losses
        assert report.final_risk == population_risk_mc(
            model, gspec, cfg.k, cfg.loss_spec(), num_draws=cfg.eval_draws,
            seed=child_seed(cfg.seed, 3)).value

    def test_step_accounting(self):
        ds = make_pool([10, 10], dim=4, seed=17)
        cfg = small_cfg(m_tuples=100, batch_size=32, epochs=2,
                        resample_per_epoch=False)
        report = train(ds, cfg)
        # ceil(100 / 32) = 4 batches per epoch
        assert report.n_steps == 8
        assert report.m_tuples_used == 100
        assert len(report.epoch_losses) == 2

    def test_eval_schedule_on_holdout(self):
        gspec = GaussianSpec.random(3, dim=5, sigma=0.3, seed=18)
        pool = generate_gaussian(gspec, 90, seed=19)
        tr, hold = train_holdout_split(pool, 0.3, seed=20)
        cfg = small_cfg(epochs=3, eval_every=1, eval_draws=600)
        report = train(tr, cfg, holdout=hold, with_probe=True)
        assert [p["epoch"] for p in report.eval_points] == [1, 2, 3]
        assert all("probe_accuracy" in p for p in report.eval_points)
        assert report.final_risk == report.eval_points[-1]["risk"]
        assert report.final_probe_accuracy is not None

    def test_eval_every_second_epoch_and_the_last(self):
        gspec = GaussianSpec.random(3, dim=5, sigma=0.3, seed=18)
        pool = generate_gaussian(gspec, 90, seed=19)
        tr, hold = train_holdout_split(pool, 0.3, seed=20)
        cfg = small_cfg(epochs=5, eval_every=2, eval_draws=600)
        report = train(tr, cfg, holdout=hold)
        assert [p["epoch"] for p in report.eval_points] == [2, 4, 5]
        assert report.final_risk == report.eval_points[-1]["risk"]
        assert report.final_risk_se == report.eval_points[-1]["std_error"]

        report = train(tr, cfg, with_probe=True)
        assert [(p["epoch"], p["risk"]) for p in report.eval_points] == [
            (2, None), (4, None)]
        assert report.final_risk is None
        # with no eval source the mean classifier is scored in-sample
        reps = report.model.forward(tr.x)
        _, pred = mean_classifier(reps, tr.y, tr.num_classes, reps)
        assert report.final_probe_accuracy == np.mean(pred == tr.y)

    def test_no_eval_sources_means_no_risk(self):
        ds = make_pool([8, 8], dim=4, seed=21)
        report = train(ds, small_cfg())
        assert report.final_risk is None
        assert report.final_risk_se is None
        assert report.eval_points == []

    def test_iid_regime_needs_a_feasible_pool(self):
        ds = make_pool([1, 1], dim=3, seed=22)
        with pytest.raises(PreconditionError, match="empty training tuple"):
            train(ds, small_cfg(regime=REGIME_IID, k=2))

    def test_all_tuples_regime_uses_full_enumeration(self):
        from uscrl.tuples import count_all_tuples

        ds = make_pool([4, 4], dim=4, seed=23)
        total, _ = count_all_tuples(ds, 1)
        report = train(ds, small_cfg(regime=REGIME_ALL, k=1, epochs=1))
        assert report.m_tuples_used == total


class TestCompareRegimes:
    def test_row_bookkeeping(self):
        gspec = GaussianSpec.random(3, dim=6, sigma=0.4, seed=24)
        pool = generate_gaussian(gspec, 24, seed=25)
        cfg = small_cfg(epochs=2, batch_size=256, eval_draws=800)
        rows = [r for s in (0, 1) for r in compare_regimes(
            pool, n_disjoint=4, m_grid=[50, 100], cfg=replace(cfg, seed=s),
            eval_spec=gspec)]
        # per seed: iid + two sub-sampled budgets + the full enumeration
        assert len(rows) == 8
        keys = {"regime", "m_count", "seed", "n_disjoint", "k",
                "final_train_loss", "final_risk", "final_risk_se",
                "probe_accuracy"}
        assert all(set(r) == keys for r in rows)
        assert {r["regime"] for r in rows} == {REGIME_IID, REGIME_SUB,
                                               REGIME_ALL}
        sub_counts = sorted(r["m_count"] for r in rows
                            if r["regime"] == REGIME_SUB and r["seed"] == 0)
        assert sub_counts == [50, 100]
        iid = [r for r in rows if r["regime"] == REGIME_IID]
        assert all(r["m_count"] == 4 for r in iid)
        assert all(r["n_disjoint"] == 4 and r["k"] == 2 for r in rows)
        assert all(r["final_risk"] is not None for r in rows)

    def test_enumeration_over_cap_is_skipped(self):
        gspec = GaussianSpec.random(3, dim=6, sigma=0.4, seed=24)
        pool = generate_gaussian(gspec, 24, seed=25)
        # any re-pooled set of 4 disjoint k=2 tuples has more than one tuple
        cfg = small_cfg(epochs=1, eval_draws=400, cap=1)
        for seed in (0, 1):
            rows = compare_regimes(pool, n_disjoint=4, m_grid=[50, 100],
                                   cfg=replace(cfg, seed=seed),
                                   eval_spec=gspec)
            assert [r["regime"] for r in rows] == [
                REGIME_IID, REGIME_SUB, REGIME_SUB]
            assert all(r["seed"] == seed for r in rows)

    def test_deterministic(self):
        gspec = GaussianSpec.random(2, dim=4, sigma=0.4, seed=26)
        pool = generate_gaussian(gspec, 20, seed=27)
        cfg = small_cfg(k=1, seed=5, epochs=1, eval_draws=400)
        a = compare_regimes(pool, 2, [30], cfg, eval_spec=gspec)
        b = compare_regimes(pool, 2, [30], cfg, eval_spec=gspec)
        assert a == b

    def test_pool_too_small(self):
        pool = make_pool([3, 3], dim=4, seed=28)
        with pytest.raises(PreconditionError):
            compare_regimes(pool, 1000, [10], small_cfg())

    def test_overlapping_disjoint_draw_is_a_precondition_error(
            self, monkeypatch):
        # two "disjoint" tuples that share all three samples
        overlap = TupleSet(REGIME_IID, 1, anchors=[0, 0], positives=[1, 1],
                           negatives=[[3], [3]], class_ids=[0, 0])
        monkeypatch.setattr(trainer, "disjoint_tuples",
                            lambda *a, **kw: overlap)
        pool = make_pool([3, 3], dim=4, seed=28)
        with pytest.raises(PreconditionError, match="touch 3 samples, "
                                                    "expected 6"):
            compare_regimes(pool, 2, [10], small_cfg(k=1))


SEARCH_GSPEC = GaussianSpec.random(3, dim=6, sigma=0.5, seed=30)


def run_search(eps, seeds=(0,), lo=10, hi=40, tol=8):
    cfg = small_cfg(epochs=2, lr=0.3, m_tuples=500, eval_draws=1500, seed=31)
    return sample_complexity_search(SEARCH_GSPEC, 2, eps, lo, hi, list(seeds),
                                    cfg, search_tol=tol, m_cap=4000)


@pytest.fixture(scope="module")
def pilot():
    # a permissive target is met at lo immediately, so the probe log holds
    # exactly the gaps at hi and lo for each seed
    out = run_search(1e9, seeds=(0, 1, 2))
    gaps = {r["seed"]: {p["n"]: p["gap"] for p in r["probes"]}
            for r in out["per_seed"]}
    return out, gaps


class TestSampleComplexitySearch:
    def test_immediate_hit_structure(self, pilot):
        out, _ = pilot
        assert set(out) == {"k", "num_classes", "eps", "lo", "hi",
                            "search_tol", "reference_risk", "reference_n",
                            "per_seed", "mean_n_eps"}
        assert out["reference_n"] == 160
        assert math.isfinite(out["reference_risk"])
        assert out["mean_n_eps"] == 10.0
        for r in out["per_seed"]:
            assert r["reached"] and r["n_eps"] == 10
            assert [p["n"] for p in r["probes"]] == [40, 10]

    def test_unreachable_target(self, pilot):
        _, gaps = pilot
        candidates = [s for s, g in gaps.items() if g[40] > 0]
        assert candidates, "calibration drift: no seed has a positive gap"
        s = candidates[0]
        out = run_search(gaps[s][40] / 2, seeds=(s,))
        row = out["per_seed"][0]
        assert row["reached"] is False
        assert row["n_eps"] is None
        assert row["gap_at_hi"] == gaps[s][40]
        assert len(row["probes"]) == 1
        assert out["mean_n_eps"] is None

    def test_bisection_brackets_the_threshold(self, pilot):
        _, gaps = pilot
        candidates = [s for s, g in gaps.items()
                      if g[10] > g[40] and g[40] >= 0]
        assert candidates, "calibration drift: gaps not ordered by pool size"
        s = candidates[0]
        eps = 0.5 * (gaps[s][10] + gaps[s][40])
        out = run_search(eps, seeds=(s,))
        row = out["per_seed"][0]
        assert row["reached"] is True
        assert 10 < row["n_eps"] <= 40
        assert all(10 <= p["n"] <= 40 for p in row["probes"])
        assert len(row["probes"]) >= 3
        assert out["mean_n_eps"] == float(row["n_eps"])

    def test_validation(self):
        cfg = small_cfg()
        with pytest.raises(ConfigError):
            sample_complexity_search(SEARCH_GSPEC, 2, 0.0, 10, 40, [0], cfg)
        with pytest.raises(ConfigError):
            sample_complexity_search(SEARCH_GSPEC, 2, 0.5, 40, 40, [0], cfg)
        with pytest.raises(ConfigError):
            sample_complexity_search(SEARCH_GSPEC, 2, 0.5, 0, 40, [0], cfg)
