"""Contrastive tuple construction over a fixed labeled pool.

A tuple is (anchor, positive, negatives): anchor and positive share a
class, the k negatives are distinct samples from other classes. Negatives
are an unordered k-subset and are always stored sorted by index. Three
regimes produce tuple sets:

* ``iid_disjoint``: globally disjoint tuples (``disjoint_tuples``): no
  sample index appears twice anywhere in the set, so the tuples are
  independent draws when the pool is i.i.d.; as many are drawn as the
  pool supports.
* ``subsampled``: M independent draws from the natural tuple measure,
  which picks a feasible class with probability proportional to N_c+ and
  then a uniform ordered anchor/positive pair and uniform negative
  k-subset within the class.
* ``all_tuples``: the complete enumeration, guarded by a term cap.

``block_tuples`` builds one class's N_c disjoint block tuples under a
permutation pair; it serves the decoupled block estimate only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, PreconditionError, SizeError, count_text

REGIME_IID = "iid_disjoint"
REGIME_SUB = "subsampled"
REGIME_ALL = "all_tuples"
REGIMES = (REGIME_IID, REGIME_SUB, REGIME_ALL)

DEFAULT_CAP = 10**6
JSONL_CHUNK = 4096  # rows per formatting pass in TupleSet.to_jsonl


@dataclass(frozen=True)
class TupleSet:
    """Columnar batch of tuples plus the regime that produced it."""

    regime: str
    k: int
    anchors: np.ndarray    # (M,) int64 dataset indices
    positives: np.ndarray  # (M,)
    negatives: np.ndarray  # (M, k), each row sorted ascending
    class_ids: np.ndarray  # (M,)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        for name in ("anchors", "positives", "negatives", "class_ids"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.int64))
        m = self.anchors.shape[0]
        if self.positives.shape != (m,) or self.class_ids.shape != (m,):
            raise ConfigError("tuple column lengths disagree")
        if self.negatives.shape != (m, self.k):
            raise ConfigError(
                f"negatives has shape {self.negatives.shape}, expected ({m}, {self.k})")

    @property
    def m_count(self) -> int:
        return self.anchors.shape[0]

    def validate(self, ds: LabeledDataset) -> None:
        """Check every tuple invariant against the pool; raises on failure."""
        a, p, neg, cid = self.anchors, self.positives, self.negatives, self.class_ids
        if self.m_count == 0:
            return
        lo = min(a.min(), p.min(), neg.min())
        hi = max(a.max(), p.max(), neg.max())
        if lo < 0 or hi >= ds.n:
            raise PreconditionError(f"tuple index {lo if lo < 0 else hi} out of range")
        if np.any(a == p):
            raise PreconditionError("anchor equals positive")
        if np.any(ds.y[a] != cid) or np.any(ds.y[p] != cid):
            raise PreconditionError("anchor/positive label mismatch")
        if np.any(ds.y[neg] == cid[:, None]):
            raise PreconditionError("negative shares the tuple class")
        if np.any(np.diff(neg, axis=1) <= 0) and self.k > 1:
            raise PreconditionError("negatives must be sorted distinct")

    def to_jsonl(self) -> str:
        """One JSON object per line, byte-identical to json.dumps per tuple.

        Rows are formatted JSONL_CHUNK at a time by one %-template, from
        columns converted to Python ints in bulk.
        """

        line = ('{"class": %d, "anchor": %d, "positive": %d, "negatives": ['
                + ", ".join(["%d"] * self.k) + ']}\n')
        cols = np.column_stack([self.class_ids, self.anchors, self.positives,
                                self.negatives])
        parts = []
        for lo in range(0, self.m_count, JSONL_CHUNK):
            part = cols[lo:lo + JSONL_CHUNK]
            parts.append(line * part.shape[0] % tuple(part.ravel().tolist()))
        return "".join(parts)


def _empty_set(regime: str, k: int) -> TupleSet:
    z = np.zeros(0, dtype=np.int64)
    return TupleSet(regime, k, z, z, np.zeros((0, k), dtype=np.int64), z)


def class_tuple_count(n_pos: int, n_neg: int, k: int) -> int:
    """|T_c| = 2 * C(N_c+, 2) * C(N_c-, k): ordered pairs, unordered subsets."""
    return n_pos * (n_pos - 1) * comb(n_neg, k)


def count_all_tuples(ds: LabeledDataset, k: int) -> tuple[int, list[int]]:
    """Exact per-class and total tuple counts (arbitrary precision ints)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    sizes = ds.class_sizes()
    per_class = [class_tuple_count(int(s), ds.n - int(s), k) for s in sizes]
    return sum(per_class), per_class


def tuple_mass(ds: LabeledDataset, k: int, c: int) -> float:
    """Probability mass of one tuple of class c under the natural tuple
    measure: (N_c+/N) / |T_c|. Summing over the whole enumeration gives
    sum_c rho_hat(c) over feasible classes. Raises if c admits no tuple."""
    n_pos = int(ds.class_sizes()[c])
    cnt = class_tuple_count(n_pos, ds.n - n_pos, k)
    if cnt == 0:
        raise PreconditionError(f"class {c} admits no valid tuple at k={k}")
    return (n_pos / ds.n) / cnt


def tuple_masses(ds: LabeledDataset, k: int, class_ids) -> np.ndarray:
    """tuple_mass of every tuple of a set, from a per-class table indexed
    by its class id column."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    table = np.zeros(ds.num_classes)
    for c in np.unique(class_ids).tolist():
        table[c] = tuple_mass(ds, k, c)
    return table[class_ids]


def _permutation(p, n: int, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ConfigError(f"{name} is not a permutation of {n} items")
    return p


def block_tuples(pos_idx: np.ndarray, neg_idx: np.ndarray, k: int, pi,
                 pibar):
    """The N_c disjoint block tuples of one class under a permutation pair.

    N_c = min(floor(N_c+/2), floor(N_c-/k)). Consecutive in-class samples
    in pi order become (anchor, positive) pairs and consecutive
    out-of-class samples in pi_bar order fill the negative blocks, each
    sorted. Returns (anchors, positives, negatives).
    """

    pi = _permutation(pi, len(pos_idx), "pi")
    pibar = _permutation(pibar, len(neg_idx), "pi_bar")
    n_c = min(len(pos_idx) // 2, len(neg_idx) // k)
    pos, neg = pos_idx[pi], neg_idx[pibar]
    return (pos[0:2 * n_c:2], pos[1:2 * n_c:2],
            np.sort(neg[:n_c * k].reshape(n_c, k), axis=1))


def disjoint_tuples(ds: LabeledDataset, k: int, n: int | None,
                    seed: int) -> TupleSet:
    """n valid tuples sharing no sample index, drawn seeded at random.

    Disjointness is global: every tuple consumes 2 fresh in-class and k
    fresh out-of-class samples, so the set touches exactly n * (k + 2)
    distinct samples. Each tuple's class is drawn proportionally to the
    remaining in-class count among classes that can still afford a full
    tuple, and its samples are uniform over the unused pool. With n None
    the draw stops at the first tuple no class can afford, so a given n
    yields the first n rows of that draw (and raises if there are fewer).
    """

    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n is not None and n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    rows = ds.n // (k + 2) if n is None else n
    rng = np.random.default_rng(seed)
    # pre-shuffled per-class stacks make every pop a uniform unused sample
    stacks = [list(rng.permutation(ds.class_indices(c)))
              for c in range(ds.num_classes)]
    remaining = np.array([len(s) for s in stacks], dtype=np.int64)
    anchors = np.empty(rows, dtype=np.int64)
    positives = np.empty(rows, dtype=np.int64)
    negatives = np.empty((rows, k), dtype=np.int64)
    cids = np.empty(rows, dtype=np.int64)
    for t in range(rows):
        total = int(remaining.sum())
        can = np.flatnonzero((remaining >= 2) & (total - remaining >= k))
        if can.size == 0:
            if n is not None:
                raise PreconditionError(
                    f"pool supports only {t} disjoint tuples, need {n}")
            rows = t
            break
        c = int(rng.choice(can, p=remaining[can] / remaining[can].sum()))
        anchors[t] = stacks[c].pop()
        positives[t] = stacks[c].pop()
        remaining[c] -= 2
        for j in range(k):
            # sequential class-weighted pops = uniform without replacement
            # over the unused out-of-class samples
            w = remaining.astype(np.float64)
            w[c] = 0.0
            z = int(rng.choice(ds.num_classes, p=w / w.sum()))
            negatives[t, j] = stacks[z].pop()
            remaining[z] -= 1
        cids[t] = c
    return TupleSet(REGIME_IID, k, anchors[:rows], positives[:rows],
                    np.sort(negatives[:rows], axis=1), cids[:rows])


def draw_ordered_pairs(rng: np.random.Generator, n: int, size: int):
    """Uniform ordered pairs (i, j), i != j, over range(n). Returns (a, b)."""
    if n < 2:
        raise PreconditionError(f"need at least 2 items, got {n}")
    a = rng.integers(0, n, size=size)
    b = rng.integers(0, n - 1, size=size)
    b = b + (b >= a)
    return a, b


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Sort each row of an int array ascending, in place, and return it. A
    pair is sorted by two column passes, several times faster than np.sort."""
    if rows.shape[1] == 2:
        low = np.minimum(rows[:, 0], rows[:, 1])
        np.maximum(rows[:, 0], rows[:, 1], out=rows[:, 1])
        rows[:, 0] = low
    else:
        rows.sort(axis=1)
    return rows


def draw_ksubsets(rng: np.random.Generator, n: int, k: int, size: int) -> np.ndarray:
    """Uniform k-subsets of range(n), rows sorted ascending, shape (size, k)."""
    if k > n:
        raise PreconditionError(f"cannot draw {k}-subset from {n} items")
    if k == n:
        return np.tile(np.arange(n, dtype=np.int64), (size, 1))
    if 4 * k >= n:
        # Dense regime: per-row random keys, take the k smallest, about 2^20
        # keys a chunk; a chunk's keys and argpartition indices die with its
        # statement. rng.random fills row-major, so the chunking keeps rows.
        out = np.empty((size, k), dtype=np.int64)
        step = max(1, (1 << 20) // n)
        for lo in range(0, size, step):
            hi = min(size, lo + step)
            out[lo:hi] = _sort_rows(np.argpartition(
                rng.random((hi - lo, n)), k - 1, axis=1)[:, :k])
        return out
    # Sparse regime: rejection on duplicate rows. Ordered distinct k-tuples
    # are uniform, so sorting yields uniform subsets.
    draw = _sort_rows(rng.integers(0, n, size=(size, k)))
    bad = np.flatnonzero((np.diff(draw, axis=1) == 0).any(axis=1)) if k > 1 else \
        np.zeros(0, dtype=np.int64)
    while bad.size:
        redraw = _sort_rows(rng.integers(0, n, size=(bad.size, k)))
        draw[bad] = redraw
        still = (np.diff(redraw, axis=1) == 0).any(axis=1)
        bad = bad[still]
    return draw.astype(np.int64, copy=False)


def draw_class_tuples(rng: np.random.Generator, pos_idx: np.ndarray,
                      neg_idx: np.ndarray, k: int, m: int):
    """m uniform tuples of one class as pool indices: (anchors, positives,
    negatives), an ordered pair drawn from rng before a negative k-subset."""
    a, p = draw_ordered_pairs(rng, len(pos_idx), m)
    return pos_idx[a], pos_idx[p], neg_idx[draw_ksubsets(rng, len(neg_idx), k, m)]


def subsample_tuples(ds: LabeledDataset, k: int, m: int, seed: int) -> TupleSet:
    """M i.i.d. draws from the natural tuple measure (feasible classes only).

    Classes are picked proportionally to N_c+ among classes admitting at
    least one tuple, then the ordered pair and the negative subset are
    uniform within the class. Raises if no class is feasible.
    """

    if m < 0:
        raise ConfigError(f"m must be >= 0, got {m}")
    feasible = [c for c, cnt in enumerate(count_all_tuples(ds, k)[1]) if cnt]
    if not feasible:
        raise PreconditionError(f"no class admits a valid tuple at k={k}")
    if m == 0:
        return _empty_set(REGIME_SUB, k)
    rng = np.random.default_rng(seed)
    weights = ds.class_sizes()[feasible].astype(np.float64)
    weights /= weights.sum()
    choice = rng.choice(len(feasible), size=m, p=weights)

    anchors = np.empty(m, dtype=np.int64)
    positives = np.empty(m, dtype=np.int64)
    negatives = np.empty((m, k), dtype=np.int64)
    class_ids = np.empty(m, dtype=np.int64)
    for ci, c in enumerate(feasible):
        rows = np.flatnonzero(choice == ci)
        if rows.size == 0:
            continue
        anchors[rows], positives[rows], negatives[rows] = draw_class_tuples(
            rng, ds.class_indices(c), ds.out_indices(c), k, rows.size)
        class_ids[rows] = c
    return TupleSet(REGIME_SUB, k, anchors, positives, negatives, class_ids)


def class_tuple_chunks(pos_idx: np.ndarray, neg_idx: np.ndarray, k: int,
                       pairs_per_chunk: int):
    """T_c in lexicographic order, as (anchors, positives, negatives) chunks.

    Ordered anchor/positive position pairs vary slowest, negative k-subsets
    (lexicographic over positions) fastest; a chunk holds pairs_per_chunk
    pairs times every subset. The subsets are mapped to pool indices once
    and tiled per chunk. The class must admit a tuple.
    """

    subs = neg_idx[np.array(list(combinations(range(len(neg_idx)), k)),
                            dtype=np.int64)]
    n_subs = subs.shape[0]
    pa, pb = np.nonzero(~np.eye(len(pos_idx), dtype=bool))
    for lo in range(0, pa.shape[0], pairs_per_chunk):
        hi = min(pa.shape[0], lo + pairs_per_chunk)
        yield (pos_idx[np.repeat(pa[lo:hi], n_subs)],
               pos_idx[np.repeat(pb[lo:hi], n_subs)],
               np.tile(subs, (hi - lo, 1)))


def enumerate_all_tuples(ds: LabeledDataset, k: int,
                         cap: int = DEFAULT_CAP) -> TupleSet:
    """Complete tuple set over all classes, class-major lexicographic order."""
    total, per_class = count_all_tuples(ds, k)
    if total > cap:
        raise SizeError(f"tuple enumeration: {count_text(total)} terms "
                        f"exceeds cap {cap}")
    if total == 0:
        return _empty_set(REGIME_ALL, k)
    anchors, positives, negs, cids = [], [], [], []
    for c in range(ds.num_classes):
        if per_class[c] == 0:
            continue
        pos_idx = ds.class_indices(c)
        # one chunk: more pairs per chunk than the class has
        (a, p, ng), = class_tuple_chunks(pos_idx, ds.out_indices(c), k,
                                         len(pos_idx) ** 2)
        anchors.append(a)
        positives.append(p)
        negs.append(ng)
        cids.append(np.full(a.shape[0], c, dtype=np.int64))
    return TupleSet(REGIME_ALL, k,
                    np.concatenate(anchors), np.concatenate(positives),
                    np.concatenate(negs), np.concatenate(cids))


def regime_tuples(ds: LabeledDataset, k: int, regime: str, seed: int,
                  m_tuples: int | None = None,
                  cap: int = DEFAULT_CAP) -> TupleSet:
    """The tuple set of one regime: m_tuples sub-sampled draws, as many
    globally disjoint tuples as the pool supports, or the full enumeration
    under cap."""
    if regime == REGIME_SUB:
        return subsample_tuples(ds, k, m_tuples, seed=seed)
    if regime == REGIME_IID:
        return disjoint_tuples(ds, k, None, seed)
    if regime == REGIME_ALL:
        return enumerate_all_tuples(ds, k, cap=cap)
    raise ConfigError(f"unknown regime {regime!r}")
