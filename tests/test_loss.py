import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uscrl.errors import ConfigError
from uscrl.loss import (_BLOCK, LOSS_KINDS, LossSpec, _scores,
                        block_loss_grad, default_clip, loss_grad, loss_value,
                        scores_from_reps, tuple_losses)
from uscrl.tuples import enumerate_all_tuples, subsample_tuples

from conftest import make_pool, rand_linear
from naive_ref import naive_loss, naive_scores, trailing_loss_and_grad

# Frozen high-precision reference values (50-digit arithmetic, rounded to
# the nearest float64).
LN2 = 0.6931471805599453
LOGI_1_M1 = 1.4076059644443804          # log(1 + e^-1 + e^1)
GRAD_1 = -0.09003057317038046           # -e^-1 / (1 + e^-1 + e)
GRAD_M1 = -0.6652409557748219           # -e    / (1 + e^-1 + e)
CLIP_K2 = 4.394449154672439             # 4 ln 3
CLIP_K1 = 2.772588722239781             # 4 ln 2
LOGI_HALF = 0.4740769841801067          # log(1 + e^-0.5)

RELTOL = 1e-13


class TestDefaults:
    def test_default_clip(self):
        assert default_clip(2) == pytest.approx(CLIP_K2, rel=RELTOL)
        assert default_clip(1) == pytest.approx(CLIP_K1, rel=RELTOL)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            LossSpec(kind="huber")
        with pytest.raises(ConfigError):
            LossSpec(clip=0.0)
        with pytest.raises(ConfigError):
            LossSpec(kind="hinge", margin=0.0)
        with pytest.raises(ConfigError):
            LossSpec(kind="hinge", clip=math.inf)


class TestLogistic:
    def test_zero_scores(self):
        spec = LossSpec()
        assert loss_value(spec, np.zeros(1)) == pytest.approx(LN2, rel=RELTOL)
        # k zero-scores give log(1 + k)
        assert loss_value(spec, np.zeros(3)) == pytest.approx(math.log(4.0),
                                                              rel=RELTOL)

    def test_reference_value(self):
        spec = LossSpec()
        assert loss_value(spec, np.array([1.0, -1.0])) == pytest.approx(
            LOGI_1_M1, rel=RELTOL)

    def test_reference_gradient(self):
        g = loss_grad(LossSpec(), np.array([1.0, -1.0]))
        assert g[0] == pytest.approx(GRAD_1, rel=1e-12)
        assert g[1] == pytest.approx(GRAD_M1, rel=1e-12)

    def test_single_negative(self):
        assert loss_value(LossSpec(), np.array([0.5])) == pytest.approx(
            LOGI_HALF, rel=RELTOL)

    def test_extreme_scores_stable(self):
        spec = LossSpec()
        big = loss_value(spec, np.array([-800.0, 3.0]))
        assert math.isfinite(big)
        assert big == pytest.approx(800.0, rel=1e-12)  # dominated by e^800
        tiny = loss_value(spec, np.array([800.0, 900.0]))
        assert 0.0 <= tiny < 1e-300

    def test_gradient_matches_finite_differences(self):
        spec = LossSpec()
        rng = np.random.default_rng(0)
        v = rng.normal(size=(20, 4))
        g = loss_grad(spec, v)
        h = 1e-6
        for i in range(v.shape[0]):
            for j in range(v.shape[1]):
                vp, vm = v[i].copy(), v[i].copy()
                vp[j] += h
                vm[j] -= h
                fd = (loss_value(spec, vp) - loss_value(spec, vm)) / (2 * h)
                assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestHinge:
    def test_values(self):
        spec = LossSpec(kind="hinge", clip=10.0, margin=1.0)
        assert loss_value(spec, np.array([1.0, -1.0])) == 2.0
        assert loss_value(spec, np.array([2.0, 3.0])) == 0.0
        assert loss_value(spec, np.array([0.25])) == 0.75

    def test_margin(self):
        spec = LossSpec(kind="hinge", clip=10.0, margin=2.5)
        assert loss_value(spec, np.array([2.0, 4.0])) == 0.5

    def test_gradient_routes_to_first_minimum(self):
        spec = LossSpec(kind="hinge", clip=10.0)
        g = loss_grad(spec, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(g, [0.0, -1.0])
        # tie: weight goes to the first minimal coordinate
        g = loss_grad(spec, np.array([-1.0, -1.0]))
        np.testing.assert_array_equal(g, [-1.0, 0.0])
        # inactive hinge: zero everywhere
        g = loss_grad(spec, np.array([2.0, 3.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])


class TestClipping:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_values_clipped(self, kind):
        spec = LossSpec(kind=kind, clip=1.0)
        v = np.array([-5.0, -6.0])
        assert loss_value(spec, v) == 1.0

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradient_zero_in_clip_region(self, kind):
        spec = LossSpec(kind=kind, clip=1.0)
        g = loss_grad(spec, np.array([-5.0, -6.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_gradient_nonzero_below_clip(self):
        spec = LossSpec(clip=5.0)
        g = loss_grad(spec, np.array([0.0, 0.0]))
        assert np.all(g < 0)


class TestBatchConsistency:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_equals_rowwise(self, kind):
        spec = LossSpec(kind=kind, clip=3.0)
        rng = np.random.default_rng(1)
        v = rng.normal(size=(17, 3))
        batch = loss_value(spec, v)
        rows = np.array([loss_value(spec, v[i]) for i in range(17)])
        np.testing.assert_allclose(batch, rows, rtol=0, atol=0)
        gb = loss_grad(spec, v)
        gr = np.stack([loss_grad(spec, v[i]) for i in range(17)])
        np.testing.assert_array_equal(gb, gr)

    @staticmethod
    def _hinge_scores(rng, k, margin, clip):
        """Scores with tied minima, rows at both kinks and clipped rows."""
        v = rng.uniform(-2.0, 3.0, size=(64, k))
        v[:8] = v[:8, :1]                       # every score tied
        v[8:16, -1] = v[8:16, 0]                # last tied with first
        v[16:24, 0] = margin                    # kink at 0
        v[16:24, 1:] = margin + 1.0
        v[24:32, -1] = margin - clip            # kink at the clip
        v[24:32, :-1] = margin - clip + 0.5
        v[32:40] -= 2.0 * clip                  # clipped
        return v

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_kmajor_matches_trailing_oracle(self, k):
        rng = np.random.default_rng(40 + k)
        margin, clip = 1.5, 2.0
        logistic = rng.normal(scale=3.0, size=(200, k))
        logistic[:20] -= 4.0                   # clipped rows
        cases = [("logistic", logistic, 2.5), ("logistic", logistic, math.inf),
                 ("hinge", self._hinge_scores(rng, k, margin, clip), clip)]
        for kind, v, c in cases:
            spec = LossSpec(kind=kind, clip=c, margin=margin)
            want_l, want_g = trailing_loss_and_grad(kind, v, c, margin)
            got_l, got_g = loss_value(spec, v), loss_grad(spec, v)
            assert got_l.shape == (v.shape[0],) and got_g.shape == v.shape
            if k < 8:
                assert got_l.tobytes() == want_l.tobytes()
                assert got_g.tobytes() == want_g.tobytes()
            else:  # numpy sums 8 or more terms pairwise
                np.testing.assert_allclose(got_l, want_l, rtol=1e-14, atol=0)
                np.testing.assert_allclose(got_g, want_g, rtol=1e-14, atol=0)
            if kind == "hinge":
                assert (want_g[:40] != 0).any() and (want_g[:40] == 0).any()

    def test_matches_naive_loss(self):
        rng = np.random.default_rng(2)
        for kind in LOSS_KINDS:
            spec = LossSpec(kind=kind, clip=2.0, margin=1.5)
            for _ in range(50):
                v = rng.normal(size=3)
                got = loss_value(spec, v)
                want = naive_loss(kind, v, clip=2.0, margin=1.5)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


class TestScores:
    def test_scores_from_reps_matches_naive(self):
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(10, 4))
        anchors = np.array([0, 2])
        positives = np.array([1, 3])
        negatives = np.array([[4, 5], [6, 7]])
        got = scores_from_reps(reps, anchors, positives, negatives)
        for b in range(2):
            want = naive_scores(reps, anchors[b], positives[b], negatives[b])
            np.testing.assert_allclose(got[b], want, rtol=1e-14)
        # k = 3, with negatives that repeat rows within and across tuples
        anchors = np.array([0, 2, 9])
        positives = np.array([1, 3, 0])
        negatives = np.array([[4, 4, 5], [5, 6, 5], [4, 8, 8]])
        got = scores_from_reps(reps, anchors, positives, negatives)
        assert got.shape == (3, 3)
        for b in range(3):
            want = naive_scores(reps, anchors[b], positives[b], negatives[b])
            np.testing.assert_allclose(got[b], want, rtol=1e-14)

    @staticmethod
    def _three_array_scores(ra, rp, rn):
        """The (ra, rp, rn) form the block kernel replaced: separate anchor,
        positive and (b, k, d) negative arrays."""
        b, k, d = rn.shape
        diff = (np.repeat(rp, k, axis=0) - rn.reshape(b * k, d)).reshape(b, k, d)
        return diff, np.einsum("bd,bkd->bk", ra, diff)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_flat_diff_equals_broadcast(self, k):
        # the block kernel gives the bytes of the broadcast diff and of the
        # three-array form, on a fresh block, a copy and a row-offset view
        rng = np.random.default_rng(60 + k)
        for b, d in ((256, 6), (4369, 8), (3, 1), (65, 7)):
            ra = rng.standard_normal((b, d))
            rp = rng.standard_normal((b, d))
            rn = rng.standard_normal((b, k, d))
            want = rp[:, None, :] - rn
            want_v = np.einsum("bd,bkd->bk", ra, want)
            old_diff, old_v = self._three_array_scores(ra, rp, rn)
            assert old_diff.tobytes() == want.tobytes()
            assert old_v.tobytes() == want_v.tobytes()
            block = np.concatenate([ra, rp, rn.reshape(b * k, d)])
            pad = np.zeros((3, d))
            offset = np.concatenate([pad, block, pad])[3:-3]
            for r in (block, block.copy(), offset):
                got_ra, diff, v = _scores(r, b, k)
                assert got_ra.tobytes() == ra.tobytes()
                assert diff.shape == (b, k, d)
                assert diff.tobytes() == want.tobytes()
                assert v.shape == (b, k)
                assert v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    @pytest.mark.parametrize("b", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 37])
    def test_blocked_scores_equal_whole_block(self, b, k):
        # scores_from_reps scores _BLOCK tuples at a time. On the identity
        # gather of a tuple-major block and on a random gather from a pool
        # of n**2 > b * k rows it gives the scores of _scores over the
        # whole block; from a pool of n**2 <= b * k rows it gives one
        # lookup G[a, p] - G[a, q] over the whole batch
        rng = np.random.default_rng(90 + k)
        rows = b * (k + 2)
        r = rng.standard_normal((rows, 7))
        idx = np.arange(rows)
        got = scores_from_reps(r, idx[:b], idx[b:2 * b],
                               idx[2 * b:].reshape(b, k))
        assert got.shape == (b, k)
        assert (got == _scores(r, b, k)[2]).all()
        for n in (math.isqrt(b * k), math.isqrt(b * k) + 1):
            reps = rng.standard_normal((n, 7))
            a, p = rng.integers(0, n, b), rng.integers(0, n, b)
            neg = rng.integers(0, n, (b, k))
            if n * n <= b * k:
                g = reps @ reps.T
                want = g[a, p][:, None] - g[a[:, None], neg]
            else:
                whole = np.take(reps, np.concatenate([a, p, neg.ravel()]),
                                axis=0)
                want = _scores(whole, b, k)[2]
            got = scores_from_reps(reps, a, p, neg)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_batch_gives_empty_scores(self, k):
        ra, diff, v = _scores(np.zeros((0, 4)), 0, k)
        assert ra.shape == (0, 4) and diff.shape == (0, k, 4)
        assert v.shape == (0, k)
        got = scores_from_reps(np.ones((5, 4)), np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64),
                               np.zeros((0, k), dtype=np.int64))
        assert got.shape == (0, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_one_gather_equals_three(self, k):
        rng = np.random.default_rng(80 + k)
        reps = rng.standard_normal((40, 6))
        a, p = rng.integers(0, 40, 300), rng.integers(0, 40, 300)
        neg = rng.integers(0, 40, (300, k))
        want = self._three_array_scores(np.take(reps, a, axis=0),
                                        np.take(reps, p, axis=0),
                                        np.take(reps, neg, axis=0))[1]
        assert scores_from_reps(reps, a, p, neg).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 6, 33, 128])
    @pytest.mark.parametrize("s", [3, 8, 32])
    def test_gram_scores_match_naive(self, s, d, k):
        # b = k * s**2 tuples over n = k * s - 1, k * s and k * s + 1 rows
        # put n**2 just below, at and just above b * k: the first two read
        # G = R R^T, the last gathers. Every score is one or two d-term dot
        # products and a subtraction, on either side and in naive_scores;
        # a dot product of rows r_a, r_p is off by at most d * eps / 2 *
        # |r_a| |r_p| <= d * eps / 2 * max|G|, and a subtraction by
        # eps * max|G|, so they differ by at most 2 * (d + 1) * eps * max|G|
        rng = np.random.default_rng(1000 * s + 10 * d + k)
        b = k * s * s
        for n in (k * s - 1, k * s, k * s + 1):
            reps = rng.standard_normal((n, d))
            a, p = rng.integers(0, n, b), rng.integers(0, n, b)
            neg = rng.integers(0, n, (b, k))
            got = scores_from_reps(reps, a, p, neg)
            want = np.array([naive_scores(reps, *t) for t in zip(a, p, neg)])
            tol = 2 * (d + 1) * np.finfo(float).eps * (reps * reps).sum(1).max()
            assert got.shape == (b, k)
            assert np.abs(got - want).max() <= tol, (n, tol)

    @pytest.mark.parametrize("d,k", [(6, 2), (33, 5)])
    def test_score_table_peak_memory(self, d, k):
        # the Gram matrix (n**2 <= b * k doubles) never outgrows the (b, k)
        # output and the look-ups run one _BLOCK at a time, so a Gram-side
        # call peaks within twice its output; gathering the same tuples
        # needs several times it
        n, b = 32, 8 * _BLOCK
        rng = np.random.default_rng(d)
        reps = rng.standard_normal((n, d))
        a, p = rng.integers(0, n, b), rng.integers(0, n, b)
        neg = rng.integers(0, n, (b, k))
        tracemalloc.start()
        try:
            got = scores_from_reps(reps, a, p, neg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * got.nbytes, (peak, got.nbytes)

    def test_tuple_losses_matches_direct(self, toy_pool, toy_model):
        spec = LossSpec(clip=default_clip(1))
        ts = enumerate_all_tuples(toy_pool, k=1)
        got = tuple_losses(toy_model, toy_pool, ts.anchors, ts.positives,
                           ts.negatives, spec)
        reps = toy_model.forward(toy_pool.x)
        want = [naive_loss("logistic", naive_scores(reps, a, p, ng),
                           clip=spec.clip)
                for a, p, ng in zip(ts.anchors, ts.positives, ts.negatives)]
        np.testing.assert_allclose(got, want, rtol=1e-13)


    def test_tuple_losses_with_untouched_rows(self):
        # a few tuples against a large pool leave most rows unreferenced
        ds = make_pool([300, 300, 200], dim=4, seed=8)
        model = rand_linear(4, 3, seed=9)
        spec = LossSpec(kind="hinge", clip=2.0, margin=1.5)
        ts = subsample_tuples(ds, 2, 10, seed=10)
        used = np.unique(np.concatenate([ts.anchors, ts.positives,
                                         ts.negatives.ravel()]))
        assert used.size < ds.n // 10
        got = tuple_losses(model, ds, ts.anchors, ts.positives,
                           ts.negatives, spec)
        reps = model.forward(ds.x)
        want = [naive_loss("hinge", naive_scores(reps, a, p, ng),
                           clip=2.0, margin=1.5)
                for a, p, ng in zip(ts.anchors, ts.positives, ts.negatives)]
        np.testing.assert_allclose(got, want, rtol=1e-13)


score_vecs = hnp.arrays(np.float64, st.integers(1, 5),
                        elements=st.floats(-50, 50))


@st.composite
def vec_pairs(draw):
    u = draw(score_vecs)
    w = draw(hnp.arrays(np.float64, u.shape, elements=st.floats(-50, 50)))
    return u, w


class TestBlockLossGrad:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_follow_the_chain_rule(self, kind, k):
        rng = np.random.default_rng(60 + k)
        b, d = 7, 5
        r = rng.normal(size=(b * (k + 2), d))
        spec = LossSpec(kind=kind, clip=2.0, margin=1.5)
        losses, rows = block_loss_grad(spec, r, b, k)
        ra, rp, rn = r[:b], r[b:2 * b], r[2 * b:].reshape(b, k, d)
        v = np.einsum("bd,bkd->bk", ra, rp[:, None, :] - rn)
        assert losses.tobytes() == loss_value(spec, v).tobytes()
        g = loss_grad(spec, v) / b
        assert rows.shape == r.shape
        np.testing.assert_allclose(
            rows, np.concatenate([np.einsum("bk,bkd->bd", g, rp[:, None] - rn),
                                  g.sum(axis=1)[:, None] * ra,
                                  (-g[:, :, None] * ra[:, None]).reshape(-1, d)]),
            rtol=1e-13, atol=1e-16)


class TestInvariants:
    @given(score_vecs, st.sampled_from(LOSS_KINDS))
    @settings(max_examples=80, deadline=None)
    def test_range(self, v, kind):
        spec = LossSpec(kind=kind, clip=3.0)
        val = loss_value(spec, v)
        assert 0.0 <= val <= 3.0

    @given(vec_pairs(), st.sampled_from(LOSS_KINDS))
    @settings(max_examples=80, deadline=None)
    def test_sup_norm_lipschitz(self, pair, kind):
        # eta = 1: |l(u) - l(v)| <= max_i |u_i - v_i|
        u, w = pair
        spec = LossSpec(kind=kind, clip=5.0)
        lhs = abs(loss_value(spec, u) - loss_value(spec, w))
        assert lhs <= np.max(np.abs(u - w)) + 1e-9

    @given(score_vecs, st.sampled_from(LOSS_KINDS),
           st.integers(0, 4), st.floats(0.01, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_per_coordinate(self, v, kind, j, bump):
        spec = LossSpec(kind=kind, clip=6.0)
        j = j % v.shape[0]
        v2 = v.copy()
        v2[j] += bump
        assert loss_value(spec, v2) <= loss_value(spec, v) + 1e-12
