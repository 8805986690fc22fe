"""Risk estimators for contrastive tuple losses over a fixed pool.

The class-conditional U-statistic averages the clipped loss over every
valid tuple of a class: ordered anchor/positive pairs times unordered
negative k-subsets, |T_c| = 2 C(N_c+, 2) C(N_c-, k) terms. The overall
empirical risk weights feasible classes by their empirical frequency:

    L_hat = sum_c (N_c+/N) * 1{N_c >= 1} * U(f | c),
    N_c = min(floor(N_c+/2), floor(N_c-/k)).

Every estimator here targets that quantity or its population limit:
exact enumeration, incomplete (Monte Carlo) U-statistics, the decoupled
disjoint-block average underlying the independence argument, the
with-replacement V-statistic, the sub-sampled tuple risk, and a fresh
Monte Carlo draw from the data distribution itself.

The U- and V-statistics, exact or Monte Carlo, share one class-weighted
driver: a per-class generator yields (anchor, positive, negatives) index
chunks, and every chunk goes through the same loss kernel, the shared h
of an incomplete U-statistic (Clemencon, Colin and Bellet, JMLR 2016).
Estimates are named "<ustat|vstat>_<exact|mc>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import GaussianSpec, LabeledDataset
from .errors import ConfigError, PreconditionError, SizeError, count_text
from .loss import LossSpec, loss_value, scores_from_reps
from .tuples import (DEFAULT_CAP, REGIME_SUB, TupleSet, block_tuples,
                     class_tuple_chunks, class_tuple_count, draw_class_tuples)


@dataclass(frozen=True)
class Exact:
    """Full enumeration, refused above the term cap."""

    cap: int = DEFAULT_CAP


@dataclass(frozen=True)
class MonteCarlo:
    """Incomplete estimator: num_draws uniform draws per class."""

    num_draws: int
    seed: int = 0

    def __post_init__(self):
        if self.num_draws < 1:
            raise ConfigError("num_draws must be >= 1")


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    estimator: str
    n_terms: int
    std_error: float | None = None
    seed: int | None = None


_CHUNK = 1 << 16
_PIECE = 4096  # rows per forward piece of a population Monte Carlo chunk


def child_seed(*parts) -> int:
    """The first 32-bit word SeedSequence(parts) generates: one seed each."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _loss_sums(spec, scores):
    """(sum, sumsq) of the clipped losses over an iterable of score arrays."""
    s = sq = 0.0
    for v in scores:
        lv = loss_value(spec, v)
        s += float(lv.sum())
        sq += float((lv * lv).sum())
    return s, sq


def _chunked_loss_stats(reps, anchors, positives, negatives, spec):
    """(sum, sumsq, count) of per-tuple losses, evaluated in chunks."""
    total = anchors.shape[0]
    chunks = (scores_from_reps(reps, anchors[lo:lo + _CHUNK],
                               positives[lo:lo + _CHUNK],
                               negatives[lo:lo + _CHUNK])
              for lo in range(0, total, _CHUNK))
    return (*_loss_sums(spec, chunks), total)


def _std_error(s: float, sq: float, n: int) -> float:
    if n < 2:
        return 0.0
    var = max(0.0, (sq - s * s / n) / (n - 1))
    return math.sqrt(var / n)


def subsampled_risk(model, ds: LabeledDataset, tset: TupleSet,
                    spec: LossSpec) -> RiskEstimate:
    """Mean clipped loss over an i.i.d. sub-sampled tuple set."""
    if tset.regime != REGIME_SUB:
        raise ConfigError(f"expected a {REGIME_SUB} tuple set, got {tset.regime}")
    if tset.m_count == 0:
        raise PreconditionError("empty tuple set")
    reps = model.forward(ds.x)
    s, sq, n = _chunked_loss_stats(reps, tset.anchors, tset.positives,
                                   tset.negatives, spec)
    return RiskEstimate(value=s / n, estimator="subsampled", n_terms=n,
                        std_error=_std_error(s, sq, n))


def _class_split(ds: LabeledDataset, c: int):
    """In-class and out-of-class pool indices of class c."""
    if not 0 <= c < ds.num_classes:
        raise ConfigError(f"class {c} out of range")
    return ds.class_indices(c), ds.out_indices(c)


def _class_chunks(stat: str, mode, pos_idx, neg_idx, k: int, rng):
    """(anchors, positives, negatives) index chunks over one class's terms.

    Exact U: tuples.class_tuple_chunks, _CHUNK // C(N_c-, k) pairs (at
    least one) per chunk. Other modes take _CHUNK terms a chunk. Monte
    Carlo U draws pairs and k-subsets; Monte Carlo V draws all anchors,
    then all positives, then each chunk's negatives (the stream of one
    (num_draws, k) draw, never formed). Exact V unpacks ranks in mixed
    radix (N_c+, N_c+, N_c-, ..., N_c-), one digit column at a time, so
    any k <= _CHUNK works (numpy arrays have at most 64 axes).
    """
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    mc = isinstance(mode, MonteCarlo)
    if stat == "ustat" and not mc:
        yield from class_tuple_chunks(pos_idx, neg_idx, k,
                                      max(1, _CHUNK // math.comb(n_neg, k)))
        return
    total = mode.num_draws if mc else n_pos * n_pos * n_neg**k
    if stat == "vstat" and mc:
        pairs = pos_idx[rng.integers(0, n_pos, size=(2, total))]
    for lo in range(0, total, _CHUNK):
        m = min(total, lo + _CHUNK) - lo
        if stat == "ustat":
            yield draw_class_tuples(rng, pos_idx, neg_idx, k, m)
        elif mc:
            yield (*pairs[:, lo:lo + m],
                   neg_idx[rng.integers(0, n_neg, size=(m, k))])
        else:
            rank = np.arange(lo, lo + m)
            digits = np.empty((m, k), dtype=np.int64)
            for j in range(k - 1, -1, -1):  # last negative fastest
                rank, digits[:, j] = np.divmod(rank, n_neg)
            j1, j2 = np.divmod(rank, n_pos)
            yield pos_idx[j1], pos_idx[j2], neg_idx[digits]


def _class_estimate(reps, stat: str, mode, pos_idx, neg_idx, k: int,
                    spec: LossSpec, rng) -> RiskEstimate:
    """One class's estimate from its index chunks; 0 with n_terms 0 if the
    class has no term (|T_c| for U, N_c+^2 (N_c-)^k index tuples for V)."""
    mc = isinstance(mode, MonteCarlo)
    name = f"{stat}_{'mc' if mc else 'exact'}"
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    # a V power with k past the cap's bit length exceeds the cap unless
    # n_neg < 2, so it is never formed in full; Monte Carlo needs its sign
    count = (class_tuple_count(n_pos, n_neg, k) if stat == "ustat" else
             n_pos * n_pos * n_neg**min(k, 1 if mc else mode.cap.bit_length()))
    if count == 0:
        return RiskEstimate(0.0, name, 0)
    if not mc and count > mode.cap:
        terms = (count_text(count) if stat == "ustat" else
                 f"{n_pos}^2 * {n_neg}^{k}")
        raise SizeError(f"exact class {stat}: {terms} terms exceeds cap "
                        f"{mode.cap}")
    s = sq = 0.0
    n = 0
    for chunk in _class_chunks(stat, mode, pos_idx, neg_idx, k, rng):
        cs, csq, cn = _chunked_loss_stats(reps, *chunk, spec)
        s += cs
        sq += csq
        n += cn
    if mc:
        return RiskEstimate(s / n, name, n, std_error=_std_error(s, sq, n),
                            seed=mode.seed)
    return RiskEstimate(s / n, name, n)


def _overall(model, ds: LabeledDataset, k: int, spec: LossSpec, mode,
             stat: str) -> RiskEstimate:
    """Frequency-weighted sum of the feasible classes' U or V statistics.

    Monte Carlo U seeds class c with child_seed(seed, c). Monte Carlo V
    draws every class from one default_rng(seed) stream, so adding a class
    shifts the draws of every later class; it stays that way so recorded
    V values reproduce.
    """
    if ds.n == 0:
        raise PreconditionError("empty dataset")
    if stat == "vstat" and k > _CHUNK:  # negatives repeat, so k > n is valid
        raise PreconditionError(f"vstat k={k} exceeds the loss chunk of "
                                f"{_CHUNK} tuples")
    mc = isinstance(mode, MonteCarlo)
    rng = np.random.default_rng(mode.seed) if mc else None
    reps = model.forward(ds.x)
    sizes = ds.class_sizes()
    total = var = 0.0
    n_terms = 0
    for c in range(ds.num_classes):
        if mc and stat == "ustat":
            rng = np.random.default_rng(child_seed(mode.seed, c))
        est = _class_estimate(reps, stat, mode, *_class_split(ds, c), k,
                              spec, rng)
        if est.n_terms == 0:
            continue
        w = sizes[c] / ds.n
        total += w * est.value
        n_terms += est.n_terms
        if mc:
            var += (w * est.std_error) ** 2
    if n_terms == 0:
        raise PreconditionError(f"no class admits a {stat} term at k={k}")
    return RiskEstimate(total, est.estimator, n_terms,
                        std_error=math.sqrt(var) if mc else None,
                        seed=mode.seed if mc else None)


def ustat_conditional(model, ds: LabeledDataset, c: int, k: int,
                      spec: LossSpec) -> RiskEstimate:
    """Exact class-conditional U(f | c); 0 with n_terms 0 if infeasible."""
    return _class_estimate(model.forward(ds.x), "ustat", Exact(),
                           *_class_split(ds, c), k, spec, None)


def ustat_overall(model, ds: LabeledDataset, k: int, spec: LossSpec,
                  mode=Exact()) -> RiskEstimate:
    """Frequency-weighted sum of feasible class-conditional U-statistics."""
    return _overall(model, ds, k, spec, mode, "ustat")


def vstat_overall(model, ds: LabeledDataset, k: int, spec: LossSpec,
                  mode=Exact()) -> RiskEstimate:
    """V-statistic analogue: anchors may equal positives, negatives repeat.

    A class only needs one in-class and one out-of-class sample to
    contribute, so pools infeasible for the U-statistic can still have a
    nonzero V-statistic. The gap to the U-statistic is O(1/n).
    """

    return _overall(model, ds, k, spec, mode, "vstat")


def decoupled_block_estimate(model, ds: LabeledDataset, c: int, k: int,
                             spec: LossSpec, perm_pos,
                             perm_neg) -> RiskEstimate:
    """Mean loss over the N_c disjoint block tuples of one permutation pair.

    Averaging this quantity over all (pi, pi_bar) pairs reproduces the
    class-conditional U-statistic exactly; a single pair is the
    independent-blocks estimator used by the concentration argument.
    """

    pos_idx, neg_idx = _class_split(ds, c)
    if min(len(pos_idx) // 2, len(neg_idx) // k) == 0:
        return RiskEstimate(0.0, "ustat_decoupled", 0)
    reps = model.forward(ds.x)
    s, _, n = _chunked_loss_stats(
        reps, *block_tuples(pos_idx, neg_idx, k, perm_pos, perm_neg), spec)
    return RiskEstimate(s / n, "ustat_decoupled", n)


def _population_scores(model, gspec: GaussianSpec, k: int, num_draws: int,
                       chunk: int, rng):
    """Scores (m, k) of num_draws population tuples, m <= chunk draws at a
    time. A chunk (at most 2^21 input doubles) is the unit of rng calls
    and loss sums; its m * (k + 2) input rows are drawn one forward piece
    at a time into one reused buffer of at most _PIECE rows."""
    n_cls, priors = gspec.num_classes, gspec.priors
    buf = np.empty((min(_PIECE, min(chunk, num_draws) * (k + 2)), gspec.dim))
    for done in range(0, num_draws, chunk):
        m = min(chunk, num_draws - done)
        rows = m * (k + 2)
        cls = rng.choice(n_cls, size=m, p=priors)
        negc = rng.choice(n_cls, size=(m, k), p=priors).ravel()
        # redraw in C order, re-testing only the positions just redrawn, for
        # at most 64 rounds; then draw the rest from rho(z) / (1 - rho(c))
        bad = np.flatnonzero(negc == np.repeat(cls, k))
        for _ in range(64):
            if not bad.size:
                break
            negc[bad] = rng.choice(n_cls, size=bad.size, p=priors)
            bad = bad[negc[bad] == cls[bad // k]]
        for c in np.unique(cls[bad // k]):
            at = bad[cls[bad // k] == c]
            q = np.where(np.arange(n_cls) == c, 0.0, priors)
            negc[at] = rng.choice(n_cls, size=at.size, p=q / q.sum())
        rowcls = np.concatenate([cls, cls, negc])
        reps = np.empty((rows, model.weights[-1].shape[0]))
        pieces = -(-rows // _PIECE)
        for i in range(pieces):
            lo, hi = rows * i // pieces, rows * (i + 1) // pieces
            reps[lo:hi] = model.forward(
                gspec.draw_rows(rng, rowcls[lo:hi], buf[:hi - lo]))
        idx = np.arange(rows)
        v = scores_from_reps(reps, idx[:m], idx[m:2 * m],
                             idx[2 * m:].reshape(m, k))
        del cls, negc, bad, rowcls, reps, idx  # freed before the losses run
        yield v


def population_risk_mc(model, gspec: GaussianSpec, k: int, spec: LossSpec,
                       num_draws: int, seed: int) -> RiskEstimate:
    """Monte Carlo population risk under a Gaussian mixture.

    Each draw picks a class c from the priors, an anchor and positive
    from component c, and k negative classes, each with its own fresh
    sample. A negative class z is drawn from the priors until z != c, for
    at most 64 rounds, then from rho(z)/(1 - rho(c)) directly, the law the
    rejection samples; so a prior close to 1 costs at most 64 rounds.

    One generator draws, forwards and scores chunks of at most 2^21 input
    doubles; a chunk is the unit of rng calls and loss sums. Per chunk it
    draws the classes, the negative classes, then the normals of the
    anchor, positive and negative rows in that order, before the next
    chunk's classes. It walks the rows in even pieces of at most _PIECE
    rows; GaussianSpec.draw_rows fills each in one reused buffer (numpy's
    float64 normal stream is the same whether drawn in one call or
    several), and the piece is forwarded into the chunk's representations,
    which scores_from_reps scores. A chunk of at most _PIECE rows is one
    piece, and no piece of a larger one has fewer than _PIECE / 2 rows: a
    BLAS may round a matmul of a few rows differently, but pieces of 512
    rows or more forwarded to the bytes of the whole chunk in every case
    checked. The losses are summed per chunk. A k whose single draw would
    not fit a chunk is refused.
    """

    if gspec.num_classes < 2:
        raise PreconditionError("population risk needs at least 2 classes")
    if num_draws < 1:
        raise ConfigError("num_draws must be >= 1")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    chunk = (1 << 21) // ((k + 2) * gspec.dim)  # draws per 2^21 doubles
    if chunk == 0:
        raise PreconditionError(
            f"k={k}: one draw of {k + 2} rows of dim {gspec.dim} exceeds "
            "the 2^21-double draw chunk")
    s, sq = _loss_sums(spec, _population_scores(
        model, gspec, k, num_draws, chunk, np.random.default_rng(seed)))
    return RiskEstimate(s / num_draws, "population_mc", num_draws,
                        std_error=_std_error(s, sq, num_draws), seed=seed)
