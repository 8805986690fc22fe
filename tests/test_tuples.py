import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uscrl import tuples as tuples_mod
from uscrl.errors import ConfigError, PreconditionError, SizeError
from uscrl.tuples import (REGIME_ALL, REGIME_IID, REGIME_SUB, TupleSet,
                          block_tuples, class_tuple_chunks, class_tuple_count,
                          count_all_tuples, disjoint_tuples, draw_class_tuples,
                          draw_ksubsets, draw_ordered_pairs, enumerate_all_tuples,
                          regime_tuples, subsample_tuples, tuple_mass,
                          tuple_masses)

from conftest import make_pool
from naive_ref import naive_enumeration


class TestCounts:
    def test_class_tuple_count(self):
        # ordered pairs times unordered subsets
        assert class_tuple_count(3, 5, 1) == 3 * 2 * 5
        assert class_tuple_count(4, 6, 2) == 4 * 3 * 15
        assert class_tuple_count(1, 9, 1) == 0
        assert class_tuple_count(5, 2, 3) == 0  # not enough negatives

    def test_count_all_tuples_toy(self, toy_pool):
        total, per_class = count_all_tuples(toy_pool, k=1)
        assert per_class == [30, 30, 12]
        assert total == 72

    def test_count_matches_enumeration_length(self):
        ds = make_pool([4, 3, 2], seed=3)
        for k in (1, 2):
            total, _ = count_all_tuples(ds, k)
            assert enumerate_all_tuples(ds, k).m_count == total

    def test_rejects_bad_k(self, toy_pool):
        with pytest.raises(ConfigError):
            count_all_tuples(toy_pool, k=0)


class TestTupleSet:
    @staticmethod
    def _jsonl_per_row(ts):
        lines = [json.dumps({"class": c, "anchor": a, "positive": p,
                             "negatives": ng})
                 for c, a, p, ng in zip(ts.class_ids.tolist(),
                                        ts.anchors.tolist(),
                                        ts.positives.tolist(),
                                        ts.negatives.tolist())]
        return "\n".join(lines) + ("\n" if lines else "")

    @pytest.mark.parametrize("k", [1, 3])
    def test_jsonl_matches_per_row_json_dumps(self, k, monkeypatch):
        ds = make_pool([5, 4, 3], seed=5)
        ts = enumerate_all_tuples(ds, k)
        want = self._jsonl_per_row(ts)
        assert ts.to_jsonl() == want
        # chunks that do not divide the row count give the same bytes
        monkeypatch.setattr(tuples_mod, "JSONL_CHUNK", 11)
        assert ts.m_count % 11
        assert ts.to_jsonl() == want

    def test_jsonl_of_empty_set_is_empty(self):
        ts = enumerate_all_tuples(make_pool([1, 1], seed=0), 1)
        assert ts.m_count == 0
        assert ts.to_jsonl() == self._jsonl_per_row(ts) == ""

    def test_shape_validation(self):
        z = np.zeros(2, dtype=np.int64)
        with pytest.raises(ConfigError):
            TupleSet(REGIME_SUB, 1, z, z[:1], np.zeros((2, 1)), z)
        with pytest.raises(ConfigError):
            TupleSet(REGIME_SUB, 2, z, z, np.zeros((2, 1)), z)
        with pytest.raises(ConfigError):
            TupleSet("bogus", 1, z, z, np.zeros((2, 1)), z)

    def test_validate_catches_violations(self, toy_pool):
        mk = lambda a, p, n, c: TupleSet(REGIME_SUB, 1, [a], [p], [[n]], [c])
        mk(0, 1, 3, 0).validate(toy_pool)  # a valid tuple passes
        with pytest.raises(PreconditionError, match="anchor equals positive"):
            mk(0, 0, 3, 0).validate(toy_pool)
        with pytest.raises(PreconditionError, match="label mismatch"):
            mk(0, 3, 6, 0).validate(toy_pool)
        with pytest.raises(PreconditionError, match="shares the tuple class"):
            mk(0, 1, 2, 0).validate(toy_pool)
        with pytest.raises(PreconditionError, match="out of range"):
            mk(0, 1, 99, 0).validate(toy_pool)
        dup = TupleSet(REGIME_SUB, 2, [0], [1], [[3, 3]], [0])
        with pytest.raises(PreconditionError, match="sorted distinct"):
            dup.validate(toy_pool)


class TestBlockTuples:
    def test_explicit_perms(self):
        ds = make_pool([4, 3, 5], seed=0)
        a, p, ng = block_tuples(ds.class_indices(0), ds.out_indices(0), 2,
                                [3, 2, 1, 0], [7, 6, 5, 4, 3, 2, 1, 0])
        # reversed orders: pairs (3, 2), (1, 0); blocks {11, 10}, {9, 8}
        np.testing.assert_array_equal(a, [3, 1])
        np.testing.assert_array_equal(p, [2, 0])
        np.testing.assert_array_equal(ng, [[10, 11], [8, 9]])

    def test_identity_permutation_exact_layout(self):
        # sizes 4, 3, 5: under identity permutations each class's N_c
        # blocks are fully predictable
        ds = make_pool([4, 3, 5], seed=0)
        expected = [
            # class 0: pos [0,1,2,3], out [4..11], N_c = min(2, 4) = 2
            [(0, 1, [4, 5]), (2, 3, [6, 7])],
            # class 1: pos [4,5,6], out [0,1,2,3,7,...], N_c = min(1, 4) = 1
            [(4, 5, [0, 1])],
            # class 2: pos [7..11], out [0..6], N_c = min(2, 3) = 2
            [(7, 8, [0, 1]), (9, 10, [2, 3])],
        ]
        for c, want in enumerate(expected):
            n_pos, n_neg = ds.class_sizes()[c], ds.n - ds.class_sizes()[c]
            a, p, ng = block_tuples(ds.class_indices(c), ds.out_indices(c), 2,
                                    np.arange(n_pos), np.arange(n_neg))
            assert list(zip(a.tolist(), p.tolist(), ng.tolist())) == want

    def test_identity_perms_are_the_greedy_layout(self):
        # the greedy walk in index order: pair up in-class samples two at a
        # time and fill k-blocks of out-of-class samples while both last
        for sizes, k in [([4, 3, 5], 2), ([9, 7, 6], 1), ([9, 7, 6], 3),
                         ([1, 5], 1)]:
            ds = make_pool(sizes, seed=1)
            for c in range(len(sizes)):
                pos, neg = ds.class_indices(c), ds.out_indices(c)
                left_pos, left_neg = pos.tolist(), neg.tolist()
                want = []
                while len(left_pos) >= 2 and len(left_neg) >= k:
                    want.append((left_pos.pop(0), left_pos.pop(0),
                                 sorted(left_neg[:k])))
                    del left_neg[:k]
                a, p, ng = block_tuples(pos, neg, k, np.arange(len(pos)),
                                        np.arange(len(neg)))
                assert list(zip(a.tolist(), p.tolist(), ng.tolist())) == want

    def test_rejects_non_permutation(self):
        ds = make_pool([4, 4], seed=0)
        pos, neg = ds.class_indices(0), ds.out_indices(0)
        with pytest.raises(ConfigError, match="not a permutation"):
            block_tuples(pos, neg, 1, [0, 0, 1, 2], [0, 1, 2, 3])
        with pytest.raises(ConfigError, match="not a permutation"):
            block_tuples(pos, neg, 1, [0, 1, 2, 3], [0, 1, 2])


class TestRegimeTuples:
    def test_dispatches_each_regime(self):
        ds = make_pool([5, 4, 3], seed=2)
        pairs = [
            (regime_tuples(ds, 2, REGIME_SUB, 7, m_tuples=30),
             subsample_tuples(ds, 2, 30, seed=7)),
            (regime_tuples(ds, 2, REGIME_IID, 7),
             disjoint_tuples(ds, 2, None, seed=7)),
            (regime_tuples(ds, 2, REGIME_ALL, 7), enumerate_all_tuples(ds, 2)),
        ]
        for got, want in pairs:
            assert got.regime == want.regime
            assert got.to_jsonl() == want.to_jsonl()

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match="unknown regime"):
            regime_tuples(make_pool([3, 3], seed=0), 1, "bogus", 0)


class TestGloballyDisjoint:
    def test_no_sample_reused_anywhere(self):
        ds = make_pool([10, 10, 10], dim=4, seed=40)
        ts = disjoint_tuples(ds, 2, 6, seed=41)
        assert ts.regime == REGIME_IID
        assert ts.m_count == 6
        ts.validate(ds)
        used = np.concatenate([ts.anchors, ts.positives,
                               ts.negatives.ravel()])
        # global disjointness: 6 tuples of k+2 = 4 slots, all distinct
        assert np.unique(used).size == 24

    def test_deterministic(self):
        ds = make_pool([8, 8], dim=3, seed=42)
        a = disjoint_tuples(ds, 1, 4, seed=43)
        b = disjoint_tuples(ds, 1, 4, seed=43)
        c = disjoint_tuples(ds, 1, 4, seed=44)
        np.testing.assert_array_equal(a.anchors, b.anchors)
        np.testing.assert_array_equal(a.negatives, b.negatives)
        assert not (np.array_equal(a.anchors, c.anchors)
                    and np.array_equal(a.negatives, c.negatives))

    def test_exhaustion_raises_with_count(self):
        ds = make_pool([1, 6], dim=3, seed=45)
        # class 1 can pair, class 0 only serves one negative; a second
        # tuple has nothing left to negate against
        one = disjoint_tuples(ds, 1, 1, seed=46)
        assert one.m_count == 1
        with pytest.raises(PreconditionError, match="supports only 1"):
            disjoint_tuples(ds, 1, 2, seed=46)

    def test_zero_and_validation(self):
        ds = make_pool([4, 4], dim=3, seed=47)
        assert disjoint_tuples(ds, 2, 0, seed=0).m_count == 0
        with pytest.raises(ConfigError):
            disjoint_tuples(ds, 0, 1, seed=0)
        with pytest.raises(ConfigError):
            disjoint_tuples(ds, 1, -1, seed=0)

    def test_capacity_boundary(self):
        # 12 samples support exactly 3 tuples at k = 2
        ds = make_pool([6, 6], dim=3, seed=48)
        ts = disjoint_tuples(ds, 2, 3, seed=49)
        ts.validate(ds)
        used = np.concatenate([ts.anchors, ts.positives,
                               ts.negatives.ravel()])
        assert np.unique(used).size == 12
        with pytest.raises(PreconditionError):
            disjoint_tuples(ds, 2, 4, seed=49)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_given_n_is_a_prefix_of_the_maximal_draw(self, k):
        # 22 samples: not a multiple of k + 2 for any k here
        ds = make_pool([9, 7, 6], dim=3, seed=50)
        for seed in (51, 52, 53):
            full = disjoint_tuples(ds, k, None, seed=seed)
            assert 0 < full.m_count <= ds.n // (k + 2)
            for n in range(full.m_count + 1):
                part = disjoint_tuples(ds, k, n, seed=seed)
                for col in ("anchors", "positives", "negatives", "class_ids"):
                    np.testing.assert_array_equal(getattr(part, col),
                                                  getattr(full, col)[:n])
            with pytest.raises(PreconditionError,
                               match=f"supports only {full.m_count} "):
                disjoint_tuples(ds, k, full.m_count + 1, seed=seed)

    @pytest.mark.parametrize("sizes,k", [([9, 7, 6], 1), ([9, 7, 6], 3),
                                         ([2, 11], 2), ([5, 1, 1, 4], 2)])
    def test_maximal_draw_leaves_no_affordable_tuple(self, sizes, k):
        ds = make_pool(sizes, dim=3, seed=54)
        ts = disjoint_tuples(ds, k, None, seed=55)
        ts.validate(ds)
        used = np.concatenate([ts.anchors, ts.positives,
                               ts.negatives.ravel()])
        assert np.unique(used).size == used.size
        unused = np.bincount(np.delete(ds.y, used), minlength=len(sizes))
        assert not np.any((unused >= 2) & (unused.sum() - unused >= k))

    def test_infeasible_pool_gives_an_empty_set(self):
        # train() turns this empty set into a PreconditionError
        ds = make_pool([1, 1], dim=3, seed=56)
        ts = regime_tuples(ds, 1, REGIME_IID, 57)
        assert ts.regime == REGIME_IID and ts.m_count == 0
        assert ts.negatives.shape == (0, 1)


class TestDrawHelpers:
    def test_ordered_pairs_never_equal(self):
        rng = np.random.default_rng(0)
        a, b = draw_ordered_pairs(rng, 7, 5000)
        assert np.all(a != b)
        assert a.min() >= 0 and a.max() < 7 and b.min() >= 0 and b.max() < 7

    def test_ordered_pairs_uniform(self):
        rng = np.random.default_rng(1)
        n, m = 5, 40000
        a, b = draw_ordered_pairs(rng, n, m)
        counts = np.bincount(a * n + b, minlength=n * n).reshape(n, n)
        assert np.all(np.diag(counts) == 0)
        p = 1.0 / (n * (n - 1))
        sigma = np.sqrt(m * p * (1 - p))
        off = counts[~np.eye(n, dtype=bool)]
        assert np.all(np.abs(off - m * p) < 5 * sigma)

    def test_ordered_pairs_needs_two(self):
        with pytest.raises(PreconditionError):
            draw_ordered_pairs(np.random.default_rng(0), 1, 3)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 5), (40, 3), (4, 4)])
    def test_ksubsets_sorted_distinct(self, n, k):
        rng = np.random.default_rng(2)
        rows = draw_ksubsets(rng, n, k, 500)
        assert rows.shape == (500, k)
        if k > 1:
            assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < n

    def test_ksubsets_uniform_dense_branch(self):
        # 4k >= n exercises the key-sort branch
        rng = np.random.default_rng(3)
        n, k, m = 5, 2, 40000
        rows = draw_ksubsets(rng, n, k, m)
        keys = rows[:, 0] * n + rows[:, 1]
        counts = np.bincount(keys, minlength=n * n)
        p = 1.0 / 10  # C(5,2) subsets
        sigma = np.sqrt(m * p * (1 - p))
        hit = counts[counts > 0]
        assert hit.size == 10
        assert np.all(np.abs(hit - m * p) < 5 * sigma)

    def test_ksubsets_uniform_sparse_branch(self):
        # 4k < n exercises the rejection branch
        rng = np.random.default_rng(4)
        n, k, m = 12, 2, 60000
        rows = draw_ksubsets(rng, n, k, m)
        keys = rows[:, 0] * n + rows[:, 1]
        counts = np.bincount(keys, minlength=n * n)
        p = 1.0 / 66  # C(12,2)
        sigma = np.sqrt(m * p * (1 - p))
        hit = counts[counts > 0]
        assert hit.size == 66
        assert np.all(np.abs(hit - m * p) < 5 * sigma)

    @staticmethod
    def _np_sort_ksubsets(rng, n, k, size):
        """draw_ksubsets with every row sorted by np.sort and the dense
        keys drawn in one call."""
        if 4 * k >= n:
            keys = rng.random((size, n))
            return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
        draw = np.sort(rng.integers(0, n, size=(size, k)), axis=1)
        bad = np.flatnonzero((np.diff(draw, axis=1) == 0).any(axis=1))
        while bad.size:
            redraw = np.sort(rng.integers(0, n, size=(bad.size, k)), axis=1)
            draw[bad] = redraw
            bad = bad[(np.diff(redraw, axis=1) == 0).any(axis=1)]
        return draw

    @pytest.mark.parametrize("n,k,size", [(5, 2, 1000), (8, 2, 300_001),
                                          (12, 2, 5000), (40, 2, 5000),
                                          (20, 8, 100_000), (50, 3, 5000)])
    def test_ksubsets_equal_np_sort_rows(self, n, k, size):
        # pairs are sorted by two column passes and the dense keys are
        # drawn in chunks; both keep the rows of one np.sort draw, in the
        # dense (n <= 4k) and the sparse regime
        want = self._np_sort_ksubsets(np.random.default_rng(n + k), n, k, size)
        got = draw_ksubsets(np.random.default_rng(n + k), n, k, size)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    def test_ksubsets_dense_workspace_is_bounded(self):
        # the dense regime draws about 2^20 float keys (8 MiB) at a time and
        # frees a chunk's keys and argpartition indices before the next
        # draw, so its workspace is one chunk's two arrays: 16.6 MiB
        # measured, bounded at 20 MiB for allocator slack. Three chunk
        # arrays alive at once take 24.6 MiB and fail, and 200,000 rows of
        # 20 keys in one chunk take 64 MiB
        tracemalloc.start()
        try:
            rows = draw_ksubsets(np.random.default_rng(0), 20, 8, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 20 * (1 << 20), (peak, rows.nbytes)

    def test_ksubsets_rejects_k_too_big(self):
        with pytest.raises(PreconditionError):
            draw_ksubsets(np.random.default_rng(0), 3, 4, 1)


class TestSubsample:
    def test_validates_and_is_seeded(self):
        ds = make_pool([6, 5, 4], seed=5)
        a = subsample_tuples(ds, 2, 300, seed=9)
        b = subsample_tuples(ds, 2, 300, seed=9)
        c = subsample_tuples(ds, 2, 300, seed=10)
        a.validate(ds)
        np.testing.assert_array_equal(a.anchors, b.anchors)
        np.testing.assert_array_equal(a.negatives, b.negatives)
        assert not np.array_equal(a.anchors, c.anchors)
        assert a.regime == REGIME_SUB and a.m_count == 300

    def test_class_frequencies_proportional_to_size(self):
        ds = make_pool([12, 6, 6], seed=6)
        m = 30000
        ts = subsample_tuples(ds, 1, m, seed=11)
        counts = np.bincount(ts.class_ids, minlength=3)
        for c, w in enumerate([0.5, 0.25, 0.25]):
            sigma = np.sqrt(m * w * (1 - w))
            assert abs(counts[c] - m * w) < 5 * sigma

    def test_infeasible_class_never_drawn(self):
        ds = make_pool([1, 6, 6], seed=7)
        ts = subsample_tuples(ds, 1, 2000, seed=12)
        assert not np.any(ts.class_ids == 0)
        ts.validate(ds)

    def test_within_class_pairs_uniform(self):
        ds = make_pool([4, 8], seed=8)
        m = 48000
        ts = subsample_tuples(ds, 1, m, seed=13)
        rows = np.flatnonzero(ts.class_ids == 0)
        pairs = ts.anchors[rows] * ds.n + ts.positives[rows]
        counts = np.bincount(pairs, minlength=ds.n * ds.n)
        hit = counts[counts > 0]
        assert hit.size == 12  # 4*3 ordered pairs
        mc = rows.size / 12
        sigma = np.sqrt(rows.size * (1 / 12) * (11 / 12))
        assert np.all(np.abs(hit - mc) < 5 * sigma)

    def test_no_feasible_class_raises(self):
        ds = make_pool([1, 1], seed=0)
        with pytest.raises(PreconditionError):
            subsample_tuples(ds, 1, 5, seed=0)

    def test_zero_draws(self):
        ds = make_pool([3, 3], seed=0)
        ts = subsample_tuples(ds, 1, 0, seed=0)
        assert ts.m_count == 0

    # class 3 has one sample, so it is infeasible and never drawn
    POOL = ([5, 6, 4, 1], 4, 130)

    def test_draws_equal_separate_pair_and_subset_draws(self):
        ds = make_pool(*self.POOL)
        ts = subsample_tuples(ds, 2, 700, seed=31)
        # the same stream drawn as before the shared class helper: per
        # feasible class, ordered pairs from rng, then negative k-subsets
        rng = np.random.default_rng(31)
        feasible = [0, 1, 2]
        sizes = ds.class_sizes()[feasible].astype(np.float64)
        choice = rng.choice(3, size=700, p=sizes / sizes.sum())
        for ci, c in enumerate(feasible):
            rows = np.flatnonzero(choice == ci)
            pos, neg = ds.class_indices(c), ds.out_indices(c)
            a, p = draw_ordered_pairs(rng, len(pos), rows.size)
            sub = draw_ksubsets(rng, len(neg), 2, rows.size)
            assert (ts.anchors[rows] == pos[a]).all()
            assert (ts.positives[rows] == pos[p]).all()
            assert (ts.negatives[rows] == neg[sub]).all()
            assert (ts.class_ids[rows] == c).all()

    def test_draws_are_pinned(self):
        ts = subsample_tuples(make_pool(*self.POOL), 2, 700, seed=31)
        h = hashlib.sha256()
        for col in (ts.anchors, ts.positives, ts.negatives, ts.class_ids):
            h.update(col.tobytes())
        assert h.hexdigest() == ("6665e1c6233de13306a031a44295f8e0"
                                 "80094cb14b65dbde3d15b364ed9689c4")

    def test_class_helper_draws_pair_then_subset(self):
        pos, neg = np.array([3, 5, 9]), np.array([0, 1, 2, 4, 6])
        a, p, ng = draw_class_tuples(np.random.default_rng(4), pos, neg, 2, 50)
        rng = np.random.default_rng(4)
        wa, wp = draw_ordered_pairs(rng, 3, 50)
        assert (a == pos[wa]).all() and (p == pos[wp]).all()
        assert (ng == neg[draw_ksubsets(rng, 5, 2, 50)]).all()
        assert ng.shape == (50, 2)


class TestEnumeration:
    def test_matches_naive_enumeration(self):
        ds = make_pool([4, 3, 2], seed=9)
        for k in (1, 2):
            for c in range(3):
                pos = ds.class_indices(c).tolist()
                neg = ds.out_indices(c).tolist()
                want = naive_enumeration(pos, neg, k)
                n_subs = math.comb(len(neg), k)
                # 2 divides every class's pair count (12, 6, 2), 5 none
                for per_chunk in (2, 5):
                    chunks = list(class_tuple_chunks(
                        ds.class_indices(c), ds.out_indices(c), k, per_chunk))
                    sizes = [a.shape[0] for a, _, _ in chunks]
                    assert all(s == per_chunk * n_subs for s in sizes[:-1])
                    assert 0 < sizes[-1] <= per_chunk * n_subs
                    got = [(int(ai), int(pi), tuple(int(x) for x in row))
                           for a, p, ng in chunks
                           for ai, pi, row in zip(a, p, ng)]
                    assert got == want

    def test_all_tuples_class_major_and_valid(self, toy_pool):
        ts = enumerate_all_tuples(toy_pool, k=1)
        assert ts.m_count == 72
        assert np.all(np.diff(ts.class_ids) >= 0)
        ts.validate(toy_pool)

    def test_cap_raises_sizeerror_with_count(self):
        ds = make_pool([6, 6], seed=10)
        total, _ = count_all_tuples(ds, 2)
        with pytest.raises(SizeError) as ei:
            enumerate_all_tuples(ds, 2, cap=total - 1)
        assert str(total) in str(ei.value)
        assert str(total - 1) in str(ei.value)

    def test_cap_refusal_of_a_count_too_long_to_print(self):
        # C(15000, 7500) has about 4,500 digits, past Python's 4,300-digit
        # int-to-str limit, so the refusal gives the count by bit length
        ds = make_pool([15000, 15000], dim=1, seed=10)
        total, _ = count_all_tuples(ds, 7500)
        with pytest.raises(SizeError) as ei:
            enumerate_all_tuples(ds, 7500)
        assert str(ei.value) == (f"tuple enumeration: at least "
                                 f"2^{total.bit_length() - 1} terms exceeds "
                                 f"cap {tuples_mod.DEFAULT_CAP}")

    def test_infeasible_pool_returns_empty(self):
        ds = make_pool([1, 1], seed=0)
        ts = enumerate_all_tuples(ds, 1)
        assert ts.m_count == 0


class TestTupleMass:
    def test_mass_sums_to_one_when_all_feasible(self, toy_pool):
        ts = enumerate_all_tuples(toy_pool, k=1)
        total = sum(tuple_mass(toy_pool, 1, c) for c in ts.class_ids.tolist())
        assert abs(total - 1.0) < 1e-12

    def test_mass_sums_to_feasible_frequency(self):
        # class 0 has a single sample, so only classes 1 and 2 carry mass
        ds = make_pool([1, 3, 4], seed=11)
        ts = enumerate_all_tuples(ds, k=1)
        total = sum(tuple_mass(ds, 1, c) for c in ts.class_ids.tolist())
        assert abs(total - 7 / 8) < 1e-12

    def test_mass_value(self, toy_pool):
        ts = enumerate_all_tuples(toy_pool, k=1)
        assert ts.class_ids[0] == 0
        assert tuple_mass(toy_pool, 1, 0) == pytest.approx((3 / 8) / 30, abs=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_vector_masses_equal_the_loop(self, k):
        ds = make_pool([1, 4, 3, 5], seed=12)
        ts = enumerate_all_tuples(ds, k)
        want = np.array([tuple_mass(ds, k, c) for c in ts.class_ids.tolist()])
        got = tuple_masses(ds, k, ts.class_ids)
        assert got.tobytes() == want.tobytes()

    def test_vector_masses_raise_for_an_infeasible_class(self):
        ds = make_pool([1, 3], seed=0)
        with pytest.raises(PreconditionError):
            tuple_masses(ds, 1, [1, 0, 1])

    def test_infeasible_class_raises(self):
        ds = make_pool([1, 3], seed=0)
        with pytest.raises(PreconditionError):
            tuple_mass(ds, 1, 0)


@st.composite
def pool_and_k(draw):
    sizes = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4))
    k = draw(st.integers(1, 3))
    if sum(sizes) == 0:
        sizes[0] = 2
    return sizes, k


class TestProperties:
    @given(pool_and_k())
    @settings(max_examples=40, deadline=None)
    def test_samplers_always_produce_valid_tuples(self, case):
        sizes, k = case
        ds = make_pool(sizes, dim=3, seed=123)
        feasible = any(class_tuple_count(s, ds.n - s, k) > 0 for s in sizes)
        iid = regime_tuples(ds, k, REGIME_IID, 1)
        iid.validate(ds)
        used = np.concatenate([iid.anchors, iid.positives,
                               iid.negatives.ravel()])
        assert np.unique(used).size == used.size  # disjoint across classes
        assert (iid.m_count > 0) == feasible
        if feasible:
            sub = subsample_tuples(ds, k, 25, seed=2)
            sub.validate(ds)
            assert sub.m_count == 25
        else:
            with pytest.raises(PreconditionError):
                subsample_tuples(ds, k, 25, seed=2)

    @given(pool_and_k())
    @settings(max_examples=25, deadline=None)
    def test_enumeration_count_and_validity(self, case):
        sizes, k = case
        ds = make_pool(sizes, dim=3, seed=321)
        total, per_class = count_all_tuples(ds, k)
        ts = enumerate_all_tuples(ds, k, cap=10**6)
        assert ts.m_count == total
        ts.validate(ds)
        for c in range(len(sizes)):
            assert int((ts.class_ids == c).sum()) == per_class[c]
