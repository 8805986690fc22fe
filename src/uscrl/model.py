"""Representation models with norm constraints, plus the mean classifier.

One layered class, ``MlpModel``, composes linear layers and 1-Lipschitz
activations, each layer under its own spectral cap. The linear family
x -> A x is its one-layer identity case with one more cap, on the
(2,1)-norm of A^T (the sum of the Euclidean norms of A's rows);
``LinearModel`` only builds it. Checkpoints record the family as
``"linear"`` or ``"mlp"`` by whether that cap is set.

Constraints are enforced by multiplicative projection after every SGD
step; spectral norms are exact (LAPACK SVD), and the SVD is skipped
when the Frobenius norm or a Gershgorin bound on the Gram matrix
already certifies the cap. Backward computes the exact gradient of the
mean clipped tuple loss, including the zero gradient on clipped tuples.
"""

from __future__ import annotations

import math
import numbers
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, FormatError, NumericError
from .fileio import (atomic_write, read_exact, read_json, read_payload,
                     write_json)
from .loss import LossSpec, _scores, _value_and_grad

CHECKPOINT_MAGIC = b"USCRLW01"
CHECKPOINT_VERSION = 1

ACTIVATIONS = ("relu", "identity")

# tuple_batch_backward forwards the whole pool once a batch has this many
# index entries per pool row; below it, only the rows the batch touches.
# Rows the batch skips add zero rows to the backward's sum over rows, which
# BLAS may block differently, so the whole-pool side can move a gradient's
# last bits (seen for MLPs, and for linear maps on pools of 1,500+ rows).
WHOLE_POOL_RATIO = 2


def _check_caps(caps) -> None:
    """Raise unless every norm cap is a positive finite number."""
    if not all(isinstance(s, numbers.Real) and not isinstance(s, bool)
               and 0 < s <= sys.float_info.max for s in caps):
        raise ConfigError("norm caps must be positive finite numbers")


def _layer(w: np.ndarray, kind: str, h: np.ndarray) -> np.ndarray:
    """h @ w.T, then ReLU in place on that fresh product, or identity; the
    model constructors admit no other kind."""
    z = h @ w.T
    return np.maximum(z, 0.0, out=z) if kind == "relu" else z


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix, exact (one LAPACK SVD).

    Exact also when the leading singular values tie or cluster: a hard
    projection onto a spectral cap needs the true norm, not an estimate.
    """

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError("spectral_norm expects a matrix")
    if not np.isfinite(a).all():
        raise NumericError("spectral_norm: non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass
class MlpModel:
    weights: list              # [(d_1, d_0), (d_2, d_1), ...]
    spectral_caps: list        # per-layer cap s_l
    activations: list          # per-layer activation kind
    max_col_sum: float | None = None  # linear family: ||W^T||_{2,1} cap

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        L = len(self.weights)
        if L == 0:
            raise ConfigError("at least one layer required")
        if any(w.ndim != 2 for w in self.weights):
            raise ConfigError("every layer weight must be a matrix")
        caps, acts = self.spectral_caps, self.activations
        if not (isinstance(caps, (list, tuple)) and isinstance(acts, (list, tuple))
                and len(caps) == L == len(acts)):
            raise ConfigError("caps/activations must be lists, one per layer")
        for l in range(1, L):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise ConfigError(f"layer {l} input dim mismatch")
        _check_caps(caps)
        for kind in acts:
            if not isinstance(kind, str) or kind not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {kind!r}")
        if self.max_col_sum is not None:
            if list(acts) != ["identity"]:
                raise ConfigError("max_col_sum caps a single identity layer")
            _check_caps([self.max_col_sum])

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for w, kind in zip(self.weights, self.activations):
            h = _layer(w, kind, h)
        return h


class LinearModel(MlpModel):
    def __init__(self, a, max_col_sum, max_spectral):
        super().__init__([a], [max_spectral], ["identity"], max_col_sum)

    # a binding of its own: benchmarks/tracing.py wraps each model class's
    # forward as found in that class's __dict__
    forward = MlpModel.forward


def make_linear(in_dim: int, out_dim: int, max_col_sum: float,
                max_spectral: float, seed: int) -> LinearModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, then projected."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(in_dim)
    a = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return project(LinearModel(a, max_col_sum=max_col_sum,
                               max_spectral=max_spectral))


def make_mlp(widths, spectral_caps, seed: int,
             activations=None) -> MlpModel:
    """widths = [in, hidden..., out]; ReLU everywhere unless overridden."""
    if len(widths) < 2:
        raise ConfigError("widths must list input and output dims")
    L = len(widths) - 1
    if activations is None:
        activations = ["relu"] * L
    if np.isscalar(spectral_caps):
        spectral_caps = [float(spectral_caps)] * L
    rng = np.random.default_rng(seed)
    ws = [rng.uniform(-1.0 / math.sqrt(i), 1.0 / math.sqrt(i), size=(o, i))
          for i, o in zip(widths[:-1], widths[1:])]
    return project(MlpModel(ws, list(spectral_caps), list(activations)))


def _cap_spectral(w: np.ndarray, cap: float) -> np.ndarray:
    """w scaled down to spectral norm cap; w itself when the cap is slack.

    Two exact certificates skip the SVD: ||w||_2 <= ||w||_F, and sigma^2 is
    at most the largest absolute row sum of the smaller Gram matrix
    (Gershgorin), so a sum below cap^2 clears w. Non-finite weights fail
    the first test and skip the second, so they reach spectral_norm's check.
    """

    fro = np.linalg.norm(w)
    if fro <= cap:
        return w
    if math.isfinite(fro):
        gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
        if np.abs(gram).sum(axis=1).max() < cap * cap:
            return w
    sig = spectral_norm(w)
    return w * (cap / sig) if sig > cap else w


def project(model):
    """Scale weights down onto the constraint set; idempotent.

    Multiplicative scaling shrinks every norm by the same factor, so one
    pass lands exactly on (or inside) each cap.
    """

    for l, (w, cap) in enumerate(zip(model.weights, model.spectral_caps)):
        w = _cap_spectral(w, cap)
        if model.max_col_sum is not None:
            # ||W^T||_{2,1} from squared row norms, the reduction
            # np.linalg.norm(w, axis=1) does
            cs = float(np.sqrt((w * w).sum(axis=1)).sum())
            if cs > model.max_col_sum:
                w = w * (model.max_col_sum / cs)
        model.weights[l] = w
    return model


def _forward_cached(model, x: np.ndarray) -> list:
    """Forward pass keeping every layer's input and the output, for backprop."""
    hs = [np.asarray(x, dtype=np.float64)]
    for w, kind in zip(model.weights, model.activations):
        hs.append(_layer(w, kind, hs[-1]))
    return hs


def _backprop(model, hs, grad_out):
    """Gradients of sum(grad_out * output) w.r.t. every layer weight.

    A ReLU layer masks with its output: relu(z) > 0 exactly where z > 0,
    NaN included, so no pre-activation is kept.
    """

    grads = [None] * len(model.weights)
    delta = grad_out
    for l in range(len(model.weights) - 1, -1, -1):
        if model.activations[l] == "relu":
            delta = delta * (hs[l + 1] > 0.0)
        grads[l] = delta.T @ hs[l]
        if l > 0:
            delta = delta @ model.weights[l]
    return grads


def _pool_rows(x: np.ndarray, idx: np.ndarray):
    """The rows of x that idx touches, in pool order, and each entry's
    position among them."""
    # what a sort-based unique with an inverse returns, from two tables
    # over the pool; the position table is written only at the marked
    # rows, so a large pool costs two cheap O(n) passes and no cumsum
    mask = np.zeros(len(x), dtype=bool)
    mask[idx] = True
    rows = np.flatnonzero(mask)
    lookup = np.empty(len(x), dtype=np.int64)
    lookup[rows] = np.arange(rows.size)
    return np.take(x, rows, axis=0), lookup[idx]


def tuple_batch_backward(model, ds: LabeledDataset, anchors, positives,
                         negatives, spec: LossSpec):
    """Mean clipped loss over a tuple batch and its exact weight gradients.

    A batch of b*(k+2) >= WHOLE_POOL_RATIO * n index entries (ratio 2)
    forwards the whole pool, indexed by its own columns; a smaller one
    forwards its distinct rows (a mask, no sort). np.take gathers their
    representations tuple-major, one k-major pass gives losses and
    gradient, and one np.bincount sums the blocks onto rows in entry order
    (anchor, positive, negative) before the single backward pass.
    """

    anchors = np.asarray(anchors, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim != 2:
        raise ConfigError("negatives must be (batch, k)")
    b, k = negatives.shape

    x, inverse = ds.x, np.concatenate([anchors, positives, negatives.ravel()])
    if inverse.size < WHOLE_POOL_RATIO * ds.n:
        x, inverse = _pool_rows(x, inverse)
    hs = _forward_cached(model, x)
    reps = hs[-1]
    m, d = reps.shape
    r = np.take(reps, inverse, axis=0)
    ra, diff, v = _scores(r, b, k)
    losses, gt = _value_and_grad(spec, np.ascontiguousarray(v.T))
    gv = np.divide(gt, b, out=gt).T  # gradient of the batch mean, (b, k)

    blocks = np.empty_like(r)  # score gradient per gathered entry
    blocks[:b] = np.einsum("bk,bkd->bd", gv, diff)
    np.multiply(gt.sum(axis=0)[:, None], ra, out=blocks[b:2 * b])
    neg = blocks[2 * b:].reshape(b, k, d)
    np.negative(np.multiply(gv[:, :, None], ra[:, None, :], out=neg), out=neg)
    # bin j*m + row holds feature j of a row, so each bin's terms arrive
    # in entry order; the sums go back to row-major for backprop, since
    # BLAS may round a transposed operand differently
    bins = (np.arange(0, d * m, m)[:, None] + inverse).ravel()
    grad_reps = np.ascontiguousarray(np.bincount(
        bins, weights=blocks.T.ravel(), minlength=d * m).reshape(d, m).T)

    grads = _backprop(model, hs, grad_reps)
    if not all(np.isfinite(g).all() for g in grads):
        raise NumericError("non-finite gradient in tuple batch backward")
    return grads, float(losses.sum() / b)


def mean_classifier(reps: np.ndarray, labels: np.ndarray, num_classes: int,
                    queries: np.ndarray):
    """Class means mu_c of ``reps`` and, per query q, argmax_c q . mu_c.

    Returns (means, predictions): the classifier through which Arora et al.
    (2019) tie contrastive risk to downstream error, with no bias and ties
    to the lowest class. A class with no sample keeps a zero row and is
    never predicted; a single present class warns and is every prediction.
    """

    reps = np.asarray(reps, dtype=np.float64)
    if reps.shape[0] == 0:
        raise ConfigError("mean classifier needs at least one labeled sample")
    member = np.asarray(labels) == np.arange(num_classes)[:, None]
    counts = member.sum(axis=1)
    means = (member @ reps) / np.maximum(counts, 1)[:, None]
    if np.count_nonzero(counts) == 1:
        warnings.warn("mean classifier labels contain a single class; "
                      "every prediction is that class")
    scores = np.asarray(queries, dtype=np.float64) @ means.T
    scores[:, counts == 0] = -np.inf
    return means, scores.argmax(axis=1)


def _model_meta(model) -> dict:
    """The checkpoint's family and constraints; linear caps as given."""
    shapes = [list(w.shape) for w in model.weights]
    if model.max_col_sum is not None:
        return {"family": "linear", "shapes": shapes,
                "max_col_sum": model.max_col_sum,
                "max_spectral": model.spectral_caps[0]}
    return {"family": "mlp", "shapes": shapes,
            "spectral_caps": [float(s) for s in model.spectral_caps],
            "activations": list(model.activations)}


def save_checkpoint(model, path_prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (shapes, constraints) and <prefix>.bin (weights).

    The blob is little-endian float64 behind a 16-byte header: 8 magic
    bytes, uint32 format version, uint32 array count.
    """

    meta = _model_meta(model)
    meta["version"] = CHECKPOINT_VERSION
    meta["blob"] = path_prefix.rsplit("/", 1)[-1] + ".bin"
    json_path, bin_path = path_prefix + ".json", path_prefix + ".bin"
    with atomic_write(bin_path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.weights)))
        for w in model.weights:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
    write_json(json_path, meta)
    return json_path, bin_path


def load_checkpoint(path_prefix: str):
    """Model of a checkpoint pair; FormatError on any malformed part."""
    json_path, bin_path = path_prefix + ".json", path_prefix + ".bin"

    def bad(what: str) -> FormatError:
        return FormatError(f"checkpoint metadata {json_path}: {what}")

    meta = read_json(json_path, f"checkpoint metadata {json_path}")
    if not isinstance(meta, dict):
        raise bad("not a JSON object")
    family = meta.get("family", "mlp")  # a missing family is named below
    if family not in ("linear", "mlp"):
        raise bad(f"family must be \"linear\" or \"mlp\", not {family!r}")
    linear = family == "linear"
    keys = ["family", "shapes"] + (["max_col_sum", "max_spectral"] if linear
                                   else ["spectral_caps", "activations"])
    missing = [key for key in keys if key not in meta]
    if missing:
        raise bad(f"missing key(s) {', '.join(missing)}")
    shapes = meta["shapes"]
    if not (isinstance(shapes, list) and shapes and (len(shapes) == 1 or not linear)
            and all(isinstance(s, list) and len(s) == 2
                    and all(type(v) is int and v > 0 for v in s) for s in shapes)):
        raise bad("shapes must be [rows, cols] pairs of positive ints")
    with open(bin_path, "rb") as f:
        head = read_exact(f, 16, "checkpoint header")
        if head[:8] != CHECKPOINT_MAGIC:
            raise FormatError("checkpoint magic: bad header")
        version, count = struct.unpack("<II", head[8:])
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"checkpoint version: unsupported {version}")
        if count != len(shapes):
            raise FormatError(
                f"checkpoint arrays: blob has {count}, meta lists {len(shapes)}")
        # the shapes must account for the whole payload before any weight
        # is read; the model constructors then check caps and activations
        sizes = [r * c for r, c in shapes]
        flat = np.frombuffer(read_payload(f, 8 * sum(sizes),
                                          "checkpoint payload"), dtype="<f8")
    ws = [w.reshape(shape).copy() for w, shape
          in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    try:
        if linear:
            return LinearModel(ws[0], max_col_sum=meta["max_col_sum"],
                               max_spectral=meta["max_spectral"])
        return MlpModel(ws, meta["spectral_caps"], meta["activations"])
    except ConfigError as e:
        raise bad(str(e)) from None
