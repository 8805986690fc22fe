import hashlib
import json
import math
import struct
import warnings

import numpy as np
import pytest

from uscrl import model as model_mod
from uscrl.errors import ConfigError, FormatError, NumericError
from uscrl.loss import LossSpec, loss_value, tuple_losses
from uscrl.model import (CHECKPOINT_MAGIC, LinearModel, MlpModel,
                         load_checkpoint, make_linear, make_mlp,
                         mean_classifier, project, save_checkpoint,
                         spectral_norm, tuple_batch_backward)
from uscrl.tuples import TupleSet, enumerate_all_tuples, subsample_tuples

from conftest import make_pool, rand_linear, rand_mlp
from naive_ref import (naive_batch_grad, naive_mean_classifier,
                       naive_preact_backprop)


class TestSpectralNorm:
    @pytest.mark.parametrize("shape,seed", [
        ((3, 3), 0), ((8, 5), 1), ((5, 8), 2), ((64, 64), 3),
        ((128, 32), 4), ((32, 128), 5), ((256, 128), 6),
    ])
    def test_matches_svd(self, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        want = np.linalg.svd(a, compute_uv=False)[0]
        got = spectral_norm(a)
        assert got == pytest.approx(want, rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 7))) == 0.0

    def test_rank_one(self):
        u = np.array([[3.0], [4.0]])
        v = np.array([[1.0, 2.0, 2.0]])
        a = u @ v  # sigma = |u| * |v| = 5 * 3
        assert spectral_norm(a) == pytest.approx(15.0, rel=1e-8)

    @pytest.mark.parametrize("a", [
        # scaled orthogonal: every singular value equals 2.5
        2.5 * np.linalg.qr(np.random.default_rng(11).standard_normal((7, 7)))[0],
        np.eye(6),
        # two equal leading singular values above a distinct tail
        np.diag([3.0, 3.0, 1.0, 0.5]) @ np.linalg.qr(
            np.random.default_rng(12).standard_normal((4, 4)))[0],
    ], ids=["scaled_orthogonal", "identity", "tied_top_two"])
    def test_tied_spectra_match_svd(self, a):
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12, abs=0)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            spectral_norm(np.zeros(3))
        with pytest.raises(NumericError):
            spectral_norm(np.array([[1.0, np.nan]]))

    def test_row_norm_sum(self):
        # row norms 5 and 2: a (2,1) cap of 3.5 halves the matrix, and the
        # spectral cap never binds
        model = LinearModel(np.array([[3.0, 4.0], [0.0, 2.0]]),
                            max_col_sum=3.5, max_spectral=100.0)
        project(model)
        np.testing.assert_array_equal(model.weights[0],
                                      [[1.5, 2.0], [0.0, 1.0]])


class TestForward:
    def test_linear_forward(self):
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        model = LinearModel(a, max_col_sum=100.0, max_spectral=100.0)
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        np.testing.assert_allclose(model.forward(x),
                                   [[3.0, -1.0], [2.0, 0.0]])
        assert model.in_dim == 2 and model.forward(x).shape == (2, 2)

    def test_mlp_forward_by_hand(self):
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        w2 = np.array([[1.0, 1.0]])
        model = MlpModel([w1, w2], [10.0, 10.0], ["relu", "identity"])
        x = np.array([[2.0, 3.0]])
        # layer 1: [2, -3] -> relu -> [2, 0]; layer 2: 2
        np.testing.assert_allclose(model.forward(x), [[2.0]])
        assert model.in_dim == 2 and model.forward(x).shape == (1, 1)

    def test_mlp_validation(self):
        w1 = np.zeros((3, 2))
        w2 = np.zeros((1, 4))  # expects 3 inputs
        with pytest.raises(ConfigError, match="input dim mismatch"):
            MlpModel([w1, w2], [1.0, 1.0], ["relu", "relu"])
        with pytest.raises(ConfigError):
            MlpModel([w1], [1.0], ["swish"])
        with pytest.raises(ConfigError):
            MlpModel([w1], [0.0], ["relu"])
        with pytest.raises(ConfigError):
            MlpModel([], [], [])
        with pytest.raises(ConfigError, match="matrix"):
            MlpModel([np.ones(3)], [1.0], ["relu"])
        # the (2,1) cap belongs to the linear family: one identity layer
        with pytest.raises(ConfigError, match="max_col_sum"):
            MlpModel([w1, np.zeros((1, 3))], [1.0, 1.0],
                     ["identity", "identity"], max_col_sum=1.0)
        with pytest.raises(ConfigError, match="max_col_sum"):
            MlpModel([w1], [1.0], ["relu"], max_col_sum=1.0)

    def test_linear_validation(self):
        with pytest.raises(ConfigError):
            LinearModel(np.zeros((2, 2)), max_col_sum=0.0, max_spectral=1.0)


class TestInitAndProjection:
    def test_init_is_seeded(self):
        a = make_linear(6, 4, max_col_sum=50.0, max_spectral=10.0, seed=3)
        b = make_linear(6, 4, max_col_sum=50.0, max_spectral=10.0, seed=3)
        c = make_linear(6, 4, max_col_sum=50.0, max_spectral=10.0, seed=4)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_init_respects_fan_in_bound(self):
        model = make_mlp([16, 8, 4], 100.0, seed=0)
        for w, fan_in in zip(model.weights, [16, 8]):
            assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)

    def test_projection_hits_caps_against_svd(self):
        rng = np.random.default_rng(7)
        model = LinearModel(5.0 * rng.standard_normal((8, 12)),
                            max_col_sum=6.0, max_spectral=2.0)
        project(model)
        svd_sigma = np.linalg.svd(model.weights[0], compute_uv=False)[0]
        assert svd_sigma <= 2.0 * (1 + 1e-6)
        col_sum = np.linalg.norm(model.weights[0], axis=1).sum()
        assert col_sum <= 6.0 * (1 + 1e-9)
        # rank one: the spectral norm equals the Frobenius norm, just above cap
        mlp = MlpModel([1.001 * np.outer([0.6, 0.8], [1.0, 0.0, 0.0])],
                       [1.0], ["identity"])
        project(mlp)
        svd_sigma = np.linalg.svd(mlp.weights[0], compute_uv=False)[0]
        assert svd_sigma == pytest.approx(1.0, rel=1e-12)

    def test_projection_is_multiplicative(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        model = LinearModel(a.copy(), max_col_sum=1.0, max_spectral=0.5)
        project(model)
        # scaled copy: direction preserved
        ratio = model.weights[0] / a
        assert np.allclose(ratio, ratio.flat[0])

    def test_projection_idempotent(self):
        rng = np.random.default_rng(9)
        model = MlpModel([3.0 * rng.standard_normal((6, 5)),
                          3.0 * rng.standard_normal((4, 6))],
                         [1.5, 1.5], ["relu", "identity"])
        project(model)
        first = [w.copy() for w in model.weights]
        project(model)
        for w0, w1 in zip(first, model.weights):
            np.testing.assert_allclose(w1, w0, rtol=1e-9, atol=0)

    def test_projection_no_op_inside_caps(self):
        rng = np.random.default_rng(10)
        a = 0.01 * rng.standard_normal((3, 3))
        model = LinearModel(a.copy(), max_col_sum=10.0, max_spectral=10.0)
        project(model)
        np.testing.assert_array_equal(model.weights[0], a)
        # ||W||_F == cap still certifies ||W||_2 <= cap: bit-for-bit unchanged
        ws = [rng.standard_normal((6, 5)), rng.standard_normal((4, 6))]
        mlp = MlpModel([w.copy() for w in ws], [np.linalg.norm(w) for w in ws],
                       ["relu", "identity"])
        project(mlp)
        for w0, w1 in zip(ws, mlp.weights):
            np.testing.assert_array_equal(w1, w0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_projection_rejects_non_finite_weights(self, bad):
        a = np.zeros((3, 3))
        a[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the NumericError, no warning
            with pytest.raises(NumericError):
                project(LinearModel(a, max_col_sum=10.0, max_spectral=10.0))
            model = rand_mlp([3, 4, 2], seed=2)
            model.weights[1][0, 0] = bad
            with pytest.raises(NumericError):
                project(model)


def _gram_bound(w):
    """Largest absolute row sum of the smaller Gram matrix of w."""
    gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
    return float(np.abs(gram).sum(axis=1).max())


def _no_svd(a):
    raise AssertionError("spectral_norm called on a certified layer")


class TestGramCertificate:
    @pytest.mark.parametrize("kind", ["random", "tied", "rank_one", "tall",
                                      "wide"])
    def test_bound_dominates_sigma_squared(self, kind, monkeypatch):
        rng = np.random.default_rng(11)
        w = {"random": lambda: rng.standard_normal((6, 6)),
             "tied": lambda: 3.0 * np.linalg.qr(
                 rng.standard_normal((5, 5)))[0],
             "rank_one": lambda: np.outer(rng.standard_normal(4),
                                          rng.standard_normal(7)),
             "tall": lambda: rng.standard_normal((40, 3)),
             "wide": lambda: rng.standard_normal((3, 40))}[kind]()
        sigma = np.linalg.svd(w, compute_uv=False)[0]
        bound = _gram_bound(w)
        assert bound >= sigma * sigma * (1 - 1e-12)
        # a cap just above the bound is certified without an SVD
        monkeypatch.setattr(model_mod, "spectral_norm", _no_svd)
        cap = math.sqrt(bound) * (1 + 1e-12)
        assert model_mod._cap_spectral(w, cap) is w

    @pytest.mark.parametrize("kind", ["diagonal", "random", "wide"])
    def test_just_above_cap_is_still_scaled(self, kind):
        # diagonal: the Gram bound equals sigma^2, the tightest case
        rng = np.random.default_rng(13)
        w = {"diagonal": lambda: np.diag([1.0, 0.5, 0.3]),
             "random": lambda: rng.standard_normal((7, 5)),
             "wide": lambda: rng.standard_normal((4, 30))}[kind]()
        sigma = np.linalg.svd(w, compute_uv=False)[0]
        cap = sigma / (1 + 1e-9)
        assert np.linalg.norm(w) > cap
        out = model_mod._cap_spectral(w, cap)
        assert out is not w
        assert np.linalg.svd(out, compute_uv=False)[0] == pytest.approx(
            cap, rel=1e-12)

    def test_bound_equal_to_cap_squared_goes_to_svd(self, monkeypatch):
        # 4*I at cap 4: Frobenius 6.9 > 4 and Gram row sums exactly 16
        calls = []
        real = model_mod.spectral_norm
        monkeypatch.setattr(model_mod, "spectral_norm",
                            lambda a: calls.append(a) or real(a))
        w = 4.0 * np.eye(3)
        assert model_mod._cap_spectral(w, 4.0) is w
        assert len(calls) == 1

    def test_certified_mlp_unchanged_bit_for_bit(self, monkeypatch):
        # uniform init of a 64x96 layer: Frobenius ~4.6, Gram bound ~1.4^2
        rng = np.random.default_rng(12)
        ws = [rng.uniform(-1, 1, size=(64, 96)) / math.sqrt(96),
              rng.uniform(-1, 1, size=(8, 64)) / math.sqrt(64)]
        caps = [0.5 * (np.linalg.norm(w) + math.sqrt(_gram_bound(w)))
                for w in ws]
        assert all(np.linalg.norm(w) > c for w, c in zip(ws, caps))
        monkeypatch.setattr(model_mod, "spectral_norm", _no_svd)
        mlp = MlpModel([w.copy() for w in ws], caps, ["relu", "identity"])
        project(mlp)
        for w0, w1 in zip(ws, mlp.weights):
            np.testing.assert_array_equal(w1, w0)


def _batch_loss(model, ds, anchors, positives, negatives, spec):
    return float(tuple_losses(model, ds, anchors, positives, negatives,
                              spec).mean())


def _fd_check(model, ds, ts, spec, n_probes=30, h=1e-6, tol=1e-4):
    grads, _ = tuple_batch_backward(model, ds, ts.anchors, ts.positives,
                                    ts.negatives, spec)
    rng = np.random.default_rng(0)
    worst = 0.0
    for l, w in enumerate(model.weights):
        flat = w.ravel()
        for idx in rng.choice(flat.size, size=min(n_probes, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _batch_loss(model, ds, ts.anchors, ts.positives,
                             ts.negatives, spec)
            flat[idx] = orig - h
            dn = _batch_loss(model, ds, ts.anchors, ts.positives,
                             ts.negatives, spec)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            g = grads[l].ravel()[idx]
            err = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            worst = max(worst, err)
    assert worst < tol, f"worst relative gradient error {worst}"


class TestBackward:
    def test_linear_gradients_match_finite_differences(self):
        ds = make_pool([5, 5, 4], dim=5, seed=20)
        model = rand_linear(5, 4, seed=21)
        ts = subsample_tuples(ds, 2, 12, seed=22)
        _fd_check(model, ds, ts, LossSpec(clip=50.0))

    def test_mlp_gradients_match_finite_differences(self):
        ds = make_pool([5, 5, 4], dim=5, seed=23)
        model = rand_mlp([5, 6, 4], seed=24)
        ts = subsample_tuples(ds, 2, 12, seed=25)
        # 48 index entries over 14 rows: the whole-pool forward
        assert ts.m_count * 4 >= model_mod.WHOLE_POOL_RATIO * ds.n
        _fd_check(model, ds, ts, LossSpec(clip=50.0))

    def test_hinge_gradients_match_finite_differences(self):
        # piecewise linear but differentiable away from ties and kinks;
        # random continuous data never lands on those
        ds = make_pool([5, 5], dim=4, seed=26)
        model = rand_linear(4, 3, seed=27)
        ts = subsample_tuples(ds, 2, 10, seed=28)
        _fd_check(model, ds, ts, LossSpec(kind="hinge", clip=50.0))

    def test_clip_plateau_has_zero_gradient(self):
        ds = make_pool([4, 4], dim=4, seed=29)
        model = rand_linear(4, 4, seed=30)
        ts = subsample_tuples(ds, 1, 8, seed=31)
        # a margin far above any attainable score forces every tuple into
        # the clipped region
        spec = LossSpec(kind="hinge", clip=1.0, margin=1e6)
        grads, loss = tuple_batch_backward(model, ds, ts.anchors,
                                           ts.positives, ts.negatives, spec)
        assert loss == 1.0
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_batch_gradient_is_mean_of_singles(self):
        ds = make_pool([4, 4], dim=4, seed=32)
        model = rand_mlp([4, 5, 3], seed=33)
        ts = subsample_tuples(ds, 1, 6, seed=34)
        spec = LossSpec(clip=10.0)
        grads, _ = tuple_batch_backward(model, ds, ts.anchors, ts.positives,
                                        ts.negatives, spec)
        singles = None
        for i in range(ts.m_count):
            g, _ = tuple_batch_backward(model, ds, ts.anchors[i:i + 1],
                                        ts.positives[i:i + 1],
                                        ts.negatives[i:i + 1], spec)
            singles = g if singles is None else [a + b for a, b
                                                 in zip(singles, g)]
        for gb, gs in zip(grads, singles):
            np.testing.assert_allclose(gb, gs / ts.m_count, rtol=1e-12,
                                       atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "hinge"])
    @pytest.mark.parametrize("pool", ["every_row_repeated", "mostly_untouched",
                                      "whole_pool_untouched"])
    def test_linear_gradient_matches_loop_oracle(self, k, kind, pool):
        if pool == "every_row_repeated":
            # the whole enumeration twice: every row, every tuple repeated
            ds = make_pool([4, 3, 3], dim=5, seed=40)
            ts = enumerate_all_tuples(ds, k)
            cols = (ts.anchors, ts.positives, ts.negatives, ts.class_ids)
            ts = TupleSet(ts.regime, k, *(np.concatenate([c] * 2) for c in cols))
        elif pool == "mostly_untouched":
            ds = make_pool([700, 700, 600], dim=5, seed=41)
            ts = subsample_tuples(ds, k, 24, seed=42)
        else:
            # just enough tuples for the whole-pool forward, which leaves
            # a few rows with no term
            ds = make_pool([14, 13, 13], dim=5, seed=44)
            m = -(-model_mod.WHOLE_POOL_RATIO * ds.n // (k + 2))
            ts = subsample_tuples(ds, k, m, seed=44)
        idx = np.concatenate([ts.anchors, ts.positives, ts.negatives.ravel()])
        whole = idx.size >= model_mod.WHOLE_POOL_RATIO * ds.n
        untouched = np.unique(idx).size < ds.n
        assert (whole, untouched) == {"every_row_repeated": (True, False),
                                      "mostly_untouched": (False, True),
                                      "whole_pool_untouched": (True, True)}[pool]
        model = rand_linear(5, 4, seed=43)
        reps = model.forward(ds.x)
        v = np.einsum("bd,bkd->bk", reps[ts.anchors],
                      reps[ts.positives][:, None, :] - reps[ts.negatives])
        raw = loss_value(LossSpec(kind=kind, clip=1e9), v)
        # a clip at the median raw loss puts about half the tuples on the
        # zero-gradient plateau
        spec = LossSpec(kind=kind, clip=float(np.median(raw)))
        assert 0 < (raw >= spec.clip).sum() < ts.m_count
        grads, loss = tuple_batch_backward(model, ds, ts.anchors,
                                           ts.positives, ts.negatives, spec)
        (a,) = model.weights
        want = naive_batch_grad(a, ds.x, ts.anchors, ts.positives,
                                ts.negatives, kind, spec.clip)
        np.testing.assert_allclose(grads[0], want, rtol=1e-12)
        assert loss == pytest.approx(np.minimum(raw, spec.clip).mean(),
                                     rel=1e-12)

    @pytest.mark.parametrize("m_tuples", [6, 40])  # row subset, whole pool
    def test_output_mask_equals_preactivation_mask(self, monkeypatch,
                                                   m_tuples):
        # a zero weight row and a zero input row put exact zeros among
        # the pre-activations, where relu(z) > 0 and z > 0 must agree
        ds = make_pool([8, 7, 6], dim=5, seed=45)
        ts = subsample_tuples(ds, 2, m_tuples, seed=47)
        ds.x[ts.anchors[0]] = 0.0
        model = rand_mlp([5, 7, 6, 4], seed=46)
        model.weights[0][2] = 0.0
        model.weights[1][4] = 0.0
        seen = []
        backprop = model_mod._backprop

        def spy(model, hs, grad_out):
            seen.append((hs[0], grad_out))
            return backprop(model, hs, grad_out)

        monkeypatch.setattr(model_mod, "_backprop", spy)
        grads, _ = tuple_batch_backward(model, ds, ts.anchors, ts.positives,
                                        ts.negatives, LossSpec(clip=50.0))
        (x, grad_out), = seen
        assert (x == 0.0).all(axis=1).any()
        want = naive_preact_backprop(model.weights, model.activations, x,
                                     grad_out)
        for g, w in zip(grads, want):
            assert g.tobytes() == w.tobytes()

    def test_rejects_flat_negatives(self):
        ds = make_pool([3, 3], dim=3, seed=0)
        model = rand_linear(3, 2, seed=0)
        with pytest.raises(ConfigError):
            tuple_batch_backward(model, ds, [0], [1], [3], LossSpec())


class TestProbe:
    """The mean classifier, the probe behind probe_accuracy."""

    def _blob_reps(self, seed=0, n_per=60, spread=0.1):
        # equal-norm centers 120 degrees apart: with no bias, the mean
        # classifier separates classes by direction
        rng = np.random.default_rng(seed)
        angles = np.radians([0.0, 120.0, 240.0])
        centers = 10.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        reps = np.concatenate([c + spread * rng.standard_normal((n_per, 2))
                               for c in centers])
        labels = np.repeat(np.arange(3), n_per)
        return reps, labels

    def test_separable_blobs_near_perfect(self):
        reps, labels = self._blob_reps()
        fresh, fresh_labels = self._blob_reps(seed=1)
        _, pred = mean_classifier(reps, labels, 3, fresh)
        assert np.mean(pred == fresh_labels) >= 0.99

    def test_chance_level_on_pure_noise(self):
        rng = np.random.default_rng(2)
        reps = rng.standard_normal((400, 3))
        labels = rng.integers(0, 4, size=400)
        _, pred = mean_classifier(reps, labels, 4,
                                  rng.standard_normal((2000, 3)))
        acc = np.mean(pred == rng.integers(0, 4, size=2000))
        assert acc < 0.4  # around 0.25 expected, never separable

    def test_single_class_degenerates_with_warning(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((30, 2))
        with pytest.warns(UserWarning, match="single class"):
            _, pred = mean_classifier(reps, np.full(30, 2), 4,
                                      rng.standard_normal((50, 2)))
        assert np.all(pred == 2)

    def test_absent_class_is_never_predicted(self):
        # every query scores below the absent class's zero row
        reps = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        queries = -np.abs(np.random.default_rng(5).standard_normal((40, 2)))
        means, pred = mean_classifier(reps, [0, 0, 2], 3, queries)
        np.testing.assert_array_equal(means[1], [0.0, 0.0])
        assert set(pred) <= {0, 2}

    def test_tie_goes_to_lowest_class(self):
        reps = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        _, pred = mean_classifier(reps, [1, 2, 3], 4,
                                  [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0],
                                   [0.0, 1.0]])
        np.testing.assert_array_equal(pred, [1, 1, 1, 2])

    @pytest.mark.parametrize("sizes,seed", [([5, 7, 3], 6), ([4, 0, 6, 2], 7),
                                            ([9], 8), ([1, 1], 9)])
    def test_matches_loop_oracle(self, sizes, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        reps = rng.standard_normal((labels.size, 5))
        queries = rng.standard_normal((64, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the one-class case warns
            means, pred = mean_classifier(reps, labels, len(sizes), queries)
        want_means, want_pred = naive_mean_classifier(reps, labels,
                                                      len(sizes), queries)
        np.testing.assert_allclose(means, want_means, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pred, want_pred)

    def test_needs_a_sample(self):
        with pytest.raises(ConfigError):
            mean_classifier(np.zeros((0, 2)), np.zeros(0, dtype=int), 2,
                            np.zeros((1, 2)))


class TestCheckpoints:
    def test_linear_round_trip(self, tmp_path):
        model = rand_linear(5, 3, seed=40, max_col_sum=7.0, max_spectral=2.0)
        prefix = str(tmp_path / "ck")
        jp, bp = save_checkpoint(model, prefix)
        assert jp.endswith(".json") and bp.endswith(".bin")
        back = load_checkpoint(prefix)
        assert type(back) is LinearModel
        np.testing.assert_array_equal(back.weights[0], model.weights[0])
        assert back.max_col_sum == 7.0 and back.spectral_caps == [2.0]

    def test_mlp_round_trip(self, tmp_path):
        model = rand_mlp([4, 6, 2], seed=41, cap=3.0,
                         activations=["relu", "identity"])
        prefix = str(tmp_path / "net")
        save_checkpoint(model, prefix)
        back = load_checkpoint(prefix)
        assert type(back) is MlpModel
        for w0, w1 in zip(model.weights, back.weights):
            np.testing.assert_array_equal(w0, w1)
        assert back.spectral_caps == [3.0, 3.0]
        assert back.activations == ["relu", "identity"]

    @pytest.mark.parametrize("name,json_sha,bin_sha", [
        ("lin",
         "ad7727148c8c91ea135f3630342b9f672e77d715dd0eee78a27325171d80c5e8",
         "f77f5b709182e16968d77417f6b6282170441ba8ebd717763eac140087149f19"),
        ("mlp",
         "9475a0e1b152915b5b1c5263737ca705296671f29b4023168f865d7dbdb2e742",
         "ffe9625606e25ab06ab31be0e9f755976c477b79e230307a10a61445eab3d827"),
    ])
    def test_format_is_pinned(self, tmp_path, name, json_sha, bin_sha):
        # linear caps are written as given (2, not 2.0), network caps as floats
        if name == "lin":
            model = LinearModel(0.4 * np.eye(3, 4), max_col_sum=8,
                                max_spectral=2)
        else:
            model = MlpModel([0.5 * np.eye(3, 4), 0.25 * np.ones((2, 3))],
                             [3, 3.0], ["relu", "identity"])
        jp, bp = save_checkpoint(model, str(tmp_path / name))
        assert hashlib.sha256(open(jp, "rb").read()).hexdigest() == json_sha
        assert hashlib.sha256(open(bp, "rb").read()).hexdigest() == bin_sha

    def test_blob_header_layout(self, tmp_path):
        model = rand_linear(3, 2, seed=42)
        prefix = str(tmp_path / "h")
        _, bp = save_checkpoint(model, prefix)
        raw = open(bp, "rb").read()
        assert raw[:8] == CHECKPOINT_MAGIC
        version, count = struct.unpack("<II", raw[8:16])
        assert version == 1 and count == 1
        assert len(raw) == 16 + 3 * 2 * 8

    def test_bad_magic(self, tmp_path):
        model = rand_linear(3, 2, seed=43)
        prefix = str(tmp_path / "m")
        _, bp = save_checkpoint(model, prefix)
        raw = bytearray(open(bp, "rb").read())
        raw[0] ^= 0xFF
        open(bp, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(prefix)

    def test_bad_version(self, tmp_path):
        model = rand_linear(3, 2, seed=44)
        prefix = str(tmp_path / "v")
        _, bp = save_checkpoint(model, prefix)
        raw = bytearray(open(bp, "rb").read())
        raw[8:12] = struct.pack("<I", 9)
        open(bp, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(prefix)

    def test_truncated_payload(self, tmp_path):
        model = rand_linear(3, 2, seed=45)
        prefix = str(tmp_path / "t")
        _, bp = save_checkpoint(model, prefix)
        raw = open(bp, "rb").read()
        open(bp, "wb").write(raw[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(prefix)

    def test_trailing_bytes(self, tmp_path):
        model = rand_linear(3, 2, seed=46)
        prefix = str(tmp_path / "x")
        _, bp = save_checkpoint(model, prefix)
        with open(bp, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(prefix)

    def test_array_count_mismatch(self, tmp_path):
        model = rand_mlp([3, 4, 2], seed=47)
        prefix = str(tmp_path / "c")
        jp, _ = save_checkpoint(model, prefix)
        meta = json.load(open(jp))
        meta["shapes"] = meta["shapes"][:1]
        json.dump(meta, open(jp, "w"))
        with pytest.raises(FormatError, match="arrays"):
            load_checkpoint(prefix)
