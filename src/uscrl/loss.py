"""Contrastive tuple losses on score vectors.

A tuple with anchor x, positive x+ and negatives x_1-..x_k- is scored by
v_i = f(x)^T f(x+) - f(x)^T f(x_i-). The logistic loss is
log(1 + sum_i exp(-v_i)); the hinge variant is max(0, margin - min_i v_i).
Both are nonincreasing in every score, 1-Lipschitz in the sup norm, and
optionally clipped to [0, clip]. Inside the clipped region the gradient
is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("logistic", "hinge")


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

    @property
    def eta(self) -> float:
        """Lipschitz constant in the sup norm over score vectors."""
        return 1.0

    @property
    def bound(self) -> float:
        """Upper bound on attained loss values (inf when unclipped logistic)."""
        return self.clip


def _raw_logistic(v: np.ndarray) -> np.ndarray:
    # log(1 + sum_i exp(-v_i)) = logsumexp([0, -v]) computed stably.
    neg = -v
    m = np.maximum(neg.max(axis=-1), 0.0)
    s = np.exp(-m) + np.exp(neg - m[..., None]).sum(axis=-1)
    return m + np.log(s)


def loss_value(spec: LossSpec, v) -> np.ndarray | float:
    """Clipped loss of score vectors; v is (k,) or (batch, k)."""
    v = np.asarray(v, dtype=np.float64)
    scalar = v.ndim == 1
    vv = v[None, :] if scalar else v
    if spec.kind == "logistic":
        raw = _raw_logistic(vv)
    else:
        raw = np.maximum(0.0, spec.margin - vv.min(axis=-1))
    out = np.minimum(raw, spec.clip)
    return float(out[0]) if scalar else out


def loss_grad(spec: LossSpec, v) -> np.ndarray:
    """Gradient in v, elementwise zero wherever the clip is active.

    Hinge uses the subgradient that puts weight -1 on the first minimal
    coordinate when strictly inside (0, clip) and 0 at the kinks.
    """

    v = np.asarray(v, dtype=np.float64)
    scalar = v.ndim == 1
    vv = v[None, :] if scalar else v
    if spec.kind == "logistic":
        # d/dv_i = -exp(-v_i) / (1 + sum_j exp(-v_j)), softmax-style stable.
        neg = -vv
        m = np.maximum(neg.max(axis=-1), 0.0)
        e = np.exp(neg - m[..., None])
        denom = np.exp(-m) + e.sum(axis=-1)
        g = -e / denom[..., None]
        raw = m + np.log(denom)
        g[raw >= spec.clip] = 0.0
    else:
        raw = spec.margin - vv.min(axis=-1)
        g = np.zeros_like(vv)
        active = (raw > 0) & (raw < spec.clip)
        rows = np.flatnonzero(active)
        if rows.size:
            g[rows, np.argmin(vv[rows], axis=-1)] = -1.0
    return g[0] if scalar else g


def scores_from_reps(reps: np.ndarray, anchors, positives, negatives) -> np.ndarray:
    """Score matrix (batch, k) from row representations and index columns."""
    ra = reps[anchors]
    diff = reps[positives][:, None, :] - reps[negatives]
    return np.einsum("bd,bkd->bk", ra, diff)


def _pool_rows(idx: np.ndarray, n: int):
    """Sorted distinct rows of idx and each entry's position among them."""
    # what a sort-based unique with an inverse returns, from two tables
    # over the pool; the position table is written only at the marked
    # rows, so a large pool costs two cheap O(n) passes and no cumsum
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    rows = np.flatnonzero(mask)
    lookup = np.empty(n, dtype=np.int64)
    lookup[rows] = np.arange(rows.size)
    return rows, lookup[idx]


def tuple_losses(model, ds, anchors, positives, negatives,
                 spec: LossSpec) -> np.ndarray:
    """Per-tuple clipped losses for index columns against a pool."""
    negatives = np.asarray(negatives, dtype=np.int64)
    m = negatives.shape[0]
    rows, inverse = _pool_rows(np.concatenate(
        [np.ravel(anchors), np.ravel(positives), negatives.ravel()]), ds.n)
    reps = model.forward(ds.x[rows])
    v = scores_from_reps(reps, inverse[:m], inverse[m:2 * m],
                         inverse[2 * m:].reshape(negatives.shape))
    return loss_value(spec, v)
