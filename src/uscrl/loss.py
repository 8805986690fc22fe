"""Contrastive tuple losses on score vectors.

A tuple with anchor x, positive x+ and negatives x_1-..x_k- is scored by
v_i = f(x)^T f(x+) - f(x)^T f(x_i-). The logistic loss is
log(1 + sum_i exp(-v_i)); the hinge variant is max(0, margin - min_i v_i).
Both are nonincreasing in every score, 1-Lipschitz in the sup norm, and
optionally clipped to [0, clip]. Inside the clipped region the gradient
is exactly zero.

The kernel works on k-major scores: a C-contiguous (k, batch) array. k is
small (1 to 3 in practice), and numpy reduces a short trailing axis one
row at a time, so every max, min and sum over the k negatives is instead
an elementwise op across k rows. For k < 8 this adds the negatives in the
same order as a sum over a trailing axis would (numpy sums only 8 or more
terms pairwise), so the layout changes no value. One pass gives the loss
and, when asked, its gradient; the public ``loss_value`` and
``loss_grad`` keep the (k,) / (batch, k) layout and transpose once.

``scores_from_reps`` scores tuples over a pool of n rows R. A call that
asks for at least n**2 scores (batch * k >= n**2) reads each score as
G[a, p] - G[a, q] from the Gram matrix G = R R^T; a smaller call gathers
each tuple's rows and scores them. The two paths agree to rounding, not
to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("logistic", "hinge")

_BLOCK = 4096  # tuples per scoring block in scores_from_reps


def default_clip(k: int) -> float:
    """Clip level 4*log(1+k): four times the logistic loss of a zero model."""
    return 4.0 * math.log1p(k)


@dataclass(frozen=True)
class LossSpec:
    kind: str = "logistic"
    clip: float = math.inf
    margin: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if not self.clip > 0:
            raise ConfigError(f"clip must be positive, got {self.clip}")
        if self.kind == "hinge":
            if self.margin <= 0:
                raise ConfigError(f"margin must be positive, got {self.margin}")
            if not math.isfinite(self.clip):
                raise ConfigError("hinge loss requires a finite clip")

    @classmethod
    def for_k(cls, k: int, kind: str = "logistic", clip: float | None = None,
              margin: float = 1.0) -> LossSpec:
        """Spec for k negatives; clip None means default_clip(k)."""
        return cls(kind=kind, clip=default_clip(k) if clip is None else clip,
                   margin=margin)


def _kmajor_raw(spec: LossSpec, vt: np.ndarray):
    """Unclipped loss of k-major scores vt (k, batch), and for logistic its
    exp terms and denominator (None for hinge)."""
    if spec.kind == "hinge":
        return np.maximum(0.0, spec.margin - vt.min(axis=0)), None, None
    e = np.negative(vt)  # log(1 + sum_i exp(-v_i)) = logsumexp([0, -v])
    m = np.maximum(e.max(axis=0), 0.0)
    e -= m
    np.exp(e, out=e)
    denom = np.exp(-m)
    denom += e.sum(axis=0)
    return m + np.log(denom), e, denom


def _value_and_grad(spec: LossSpec, vt: np.ndarray):
    """Clipped losses (batch,) and their gradient (k, batch), as loss_grad."""
    raw, e, denom = _kmajor_raw(spec, vt)
    if e is None:
        g = np.zeros_like(vt)
        cols = np.flatnonzero((raw > 0) & (raw < spec.clip))
        if cols.size:
            g[np.argmin(vt[:, cols], axis=0), cols] = -1.0
    else:  # d/dv_i = -exp(-v_i) / (1 + sum_j exp(-v_j))
        g = np.negative(np.divide(e, denom, out=e), out=e)
        g[:, raw >= spec.clip] = 0.0
    return np.minimum(raw, spec.clip), g


def _to_kmajor(v):
    """Scores (k,) or (batch, k) as a C-contiguous (k, batch) array."""
    v = np.asarray(v, dtype=np.float64)
    scalar = v.ndim == 1
    return np.ascontiguousarray((v[None, :] if scalar else v).T), scalar


def loss_value(spec: LossSpec, v) -> np.ndarray | float:
    """Clipped loss of score vectors; v is (k,) or (batch, k)."""
    vt, scalar = _to_kmajor(v)
    out = np.minimum(_kmajor_raw(spec, vt)[0], spec.clip)
    return float(out[0]) if scalar else out


def loss_grad(spec: LossSpec, v) -> np.ndarray:
    """Gradient in v, elementwise zero wherever the clip is active.

    Hinge uses the subgradient that puts weight -1 on the first minimal
    coordinate when strictly inside (0, clip) and 0 at the kinks.
    """

    vt, scalar = _to_kmajor(v)
    g = _value_and_grad(spec, vt)[1]
    return g[:, 0] if scalar else np.ascontiguousarray(g.T)


def _scores(r: np.ndarray, b: int, k: int):
    """(ra, diff, v) of a tuple-major block r of b*(k+2) rows: b anchors,
    b positives, then each tuple's k negatives. ra is the anchor rows,
    diff = positive - negative (b, k, d) and v = einsum(ra, diff) (b, k).

    diff is one flat subtraction over b*k rows, not a broadcast whose
    inner loop is only d long; the einsum keeps its layout, since its sum
    over d is not sequential and a new layout could move its last bits."""
    ra, d = r[:b], r.shape[1]
    diff = (np.repeat(r[b:2 * b], k, axis=0) - r[2 * b:]).reshape(b, k, d)
    return ra, diff, np.einsum("bd,bkd->bk", ra, diff)


def scores_from_reps(reps: np.ndarray, anchors, positives, negatives) -> np.ndarray:
    """Score matrix (batch, k) from row representations and index columns
    in range(n), n = len(reps).

    A call of batch * k >= n**2 builds G = reps @ reps.T, which is then no
    larger than the output, and looks each score up as G[a, p] - G[a, q];
    a smaller call gathers the tuples' rows, one tuple-major np.take per
    block, and scores them with _scores. Both take _BLOCK tuples at a
    time, so the temporaries stay cache-sized whatever the batch."""
    negatives = np.asarray(negatives)
    b, k = negatives.shape
    n = reps.shape[0]
    v = np.empty((b, k))
    gram = (reps @ reps.T).ravel() if n * n <= b * k else None
    for lo in range(0, b, _BLOCK):
        hi = min(b, lo + _BLOCK)
        if gram is None:
            idx = np.concatenate([anchors[lo:hi], positives[lo:hi],
                                  negatives[lo:hi].ravel()])
            v[lo:hi] = _scores(np.take(reps, idx, axis=0), hi - lo, k)[2]
        else:
            row = np.asarray(anchors[lo:hi], dtype=np.int64) * n
            np.subtract(np.take(gram, row + positives[lo:hi])[:, None],
                        np.take(gram, negatives[lo:hi] + row[:, None]),
                        out=v[lo:hi])
    return v


def block_loss_grad(spec: LossSpec, r: np.ndarray, b: int, k: int):
    """Clipped losses (b,) of a tuple-major block r of b*(k+2) rows, as
    _scores reads it, and the gradient of their mean in each row of r; the
    score gradient is divided by b before its row sums, fixing their bytes."""
    ra, diff, v = _scores(r, b, k)
    losses, gt = _value_and_grad(spec, np.ascontiguousarray(v.T))
    gv = np.divide(gt, b, out=gt).T  # gradient of the batch mean, (b, k)
    blocks = np.empty_like(r)
    blocks[:b] = np.einsum("bk,bkd->bd", gv, diff)
    np.multiply(gt.sum(axis=0)[:, None], ra, out=blocks[b:2 * b])
    neg = blocks[2 * b:].reshape(b, k, r.shape[1])
    np.negative(np.multiply(gv[:, :, None], ra[:, None, :], out=neg), out=neg)
    return losses, blocks


def tuple_losses(model, ds, anchors, positives, negatives,
                 spec: LossSpec) -> np.ndarray:
    """Per-tuple clipped losses for index columns against a pool."""
    return loss_value(spec, scores_from_reps(model.forward(ds.x), anchors,
                                             positives, negatives))
