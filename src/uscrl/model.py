"""Representation models with norm constraints, plus the mean classifier.

Two families share one forward/backward core:

* ``LinearModel``: x -> A x with caps on the spectral norm of A and on
  the (2,1)-norm of A^T (sum of Euclidean norms of A's rows).
* ``MlpModel``: composition of linear layers and 1-Lipschitz activations,
  each layer under its own spectral cap.

Constraints are enforced by multiplicative projection after every SGD
step; spectral norms are exact (LAPACK SVD), and the SVD is skipped
when the Frobenius norm or a Gershgorin bound on the Gram matrix
already certifies the cap. Backward computes the exact gradient of the
mean clipped tuple loss, including the zero gradient on clipped tuples.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, FormatError, NumericError
from .fileio import atomic_write
from .loss import LossSpec, _scores, _value_and_grad

CHECKPOINT_MAGIC = b"USCRLW01"
CHECKPOINT_VERSION = 1

ACTIVATION_XI = {"relu": 1.0, "identity": 1.0}

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


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    """ReLU or identity; the model constructors admit no other kind."""
    return np.maximum(z, 0.0) if kind == "relu" else z


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
class LinearModel:
    a_mat: np.ndarray          # (out_dim, in_dim)
    max_col_sum: float         # cap on ||A^T||_{2,1}
    max_spectral: float

    def __post_init__(self):
        self.a_mat = np.asarray(self.a_mat, dtype=np.float64)
        if self.a_mat.ndim != 2:
            raise ConfigError("a_mat must be a matrix")
        _check_caps([self.max_col_sum, self.max_spectral])

    @property
    def in_dim(self) -> int:
        return self.a_mat.shape[1]

    @property
    def out_dim(self) -> int:
        return self.a_mat.shape[0]

    @property
    def weights(self) -> list[np.ndarray]:
        return [self.a_mat]

    @property
    def activations(self) -> list[str]:
        return ["identity"]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.a_mat.T

    def set_weights(self, ws):
        (self.a_mat,) = ws


@dataclass
class MlpModel:
    layer_weights: list        # [(d_1, d_0), (d_2, d_1), ...]
    spectral_caps: list        # per-layer cap s_l
    layer_activations: list    # per-layer activation kind

    def __post_init__(self):
        self.layer_weights = [np.asarray(w, dtype=np.float64) for w in self.layer_weights]
        L = len(self.layer_weights)
        if L == 0:
            raise ConfigError("at least one layer required")
        caps, acts = self.spectral_caps, self.layer_activations
        if not (isinstance(caps, (list, tuple)) and isinstance(acts, (list, tuple))
                and len(caps) == L == len(acts)):
            raise ConfigError("caps/activations must be lists, one per layer")
        for l in range(1, L):
            if self.layer_weights[l].shape[1] != self.layer_weights[l - 1].shape[0]:
                raise ConfigError(f"layer {l} input dim mismatch")
        _check_caps(caps)
        for kind in acts:
            if not isinstance(kind, str) or kind not in ACTIVATION_XI:
                raise ConfigError(f"unknown activation {kind!r}")

    @property
    def in_dim(self) -> int:
        return self.layer_weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layer_weights[-1].shape[0]

    @property
    def weights(self) -> list[np.ndarray]:
        return self.layer_weights

    @property
    def activations(self) -> list[str]:
        return self.layer_activations

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for w, kind in zip(self.layer_weights, self.layer_activations):
            h = _apply_activation(kind, h @ w.T)
        return h

    def set_weights(self, ws):
        self.layer_weights = list(ws)


def make_linear(in_dim: int, out_dim: int, max_col_sum: float,
                max_spectral: float, seed: int) -> LinearModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, then projected."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(in_dim)
    a = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    model = LinearModel(a, max_col_sum=max_col_sum, max_spectral=max_spectral)
    return project(model)


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


def _cap_spectral(w: np.ndarray, cap: float, fro=None) -> np.ndarray:
    """w scaled down to spectral norm cap; w itself when the cap is slack.

    Two exact certificates skip the SVD: ||w||_2 <= ||w||_F, and sigma^2 is
    at most the largest absolute row sum of the smaller Gram matrix
    (Gershgorin), so a sum below cap^2 clears w. Non-finite weights fail
    the first test and skip the second, so they reach spectral_norm's check.
    """

    fro = np.linalg.norm(w) if fro is None else fro  # the caller's ||w||_F
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

    if isinstance(model, LinearModel):
        # squared row norms, the reduction np.linalg.norm(a, axis=1) does,
        # give both the Frobenius norm and ||A^T||_{2,1}
        a, sq = model.a_mat, (model.a_mat * model.a_mat).sum(axis=1)
        capped = _cap_spectral(a, model.max_spectral, math.sqrt(sq.sum()))
        if capped is not a:
            a, sq = capped, (capped * capped).sum(axis=1)
        cs = float(np.sqrt(sq).sum())
        if cs > model.max_col_sum:
            a = a * (model.max_col_sum / cs)
        model.a_mat = a
        return model
    for l, (w, cap) in enumerate(zip(model.layer_weights, model.spectral_caps)):
        model.layer_weights[l] = _cap_spectral(w, cap)
    return model


def _forward_cached(model, x: np.ndarray):
    """Forward pass keeping pre-activations and layer inputs for backprop."""
    h = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    for w, kind in zip(model.weights, model.activations):
        inputs.append(h)
        z = h @ w.T
        preacts.append(z)
        h = _apply_activation(kind, z)
    return h, inputs, preacts


def _backprop(model, inputs, preacts, grad_out):
    """Gradients of sum(grad_out * output) w.r.t. every layer weight."""
    grads = [None] * len(model.weights)
    delta = grad_out
    for l in range(len(model.weights) - 1, -1, -1):
        if model.activations[l] == "relu":
            delta = delta * (preacts[l] > 0.0)
        grads[l] = delta.T @ inputs[l]
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
    reps, inputs, preacts = _forward_cached(model, x)
    m, d = reps.shape
    r = np.take(reps, inverse, axis=0)
    ra = r[:b]
    diff, v = _scores(ra, r[b:2 * b], r[2 * b:].reshape(b, k, d))
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

    grads = _backprop(model, inputs, preacts, grad_reps)
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
    if isinstance(model, LinearModel):
        return {"family": "linear",
                "shapes": [list(model.a_mat.shape)],
                "max_col_sum": model.max_col_sum,
                "max_spectral": model.max_spectral}
    return {"family": "mlp",
            "shapes": [list(w.shape) for w in model.layer_weights],
            "spectral_caps": [float(s) for s in model.spectral_caps],
            "activations": list(model.layer_activations)}


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
    with atomic_write(json_path) as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return json_path, bin_path


def load_checkpoint(path_prefix: str):
    """Model of a checkpoint pair; FormatError on any malformed part."""
    json_path, bin_path = path_prefix + ".json", path_prefix + ".bin"

    def bad(what: str) -> FormatError:
        return FormatError(f"checkpoint metadata {json_path}: {what}")

    with open(json_path) as f:
        try:
            meta = json.load(f)
        except (ValueError, RecursionError) as e:
            raise bad(f"not valid JSON ({e})") from None
    if not isinstance(meta, dict):
        raise bad("not a JSON object")
    linear = meta.get("family") == "linear"
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
        head = f.read(16)
        if len(head) != 16 or head[:8] != CHECKPOINT_MAGIC:
            raise FormatError("checkpoint magic: bad or truncated header")
        version, count = struct.unpack("<II", head[8:])
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"checkpoint version: unsupported {version}")
        if count != len(shapes):
            raise FormatError(
                f"checkpoint arrays: blob has {count}, meta lists {len(shapes)}")
        # the shapes must account for the whole payload before any weight
        # is read; the model constructors then check caps and activations
        need = 8 * sum(r * c for r, c in shapes)
        have = os.fstat(f.fileno()).st_size - 16
        if have != need:
            raise FormatError(f"checkpoint payload: shapes claim {need} bytes, "
                              f"blob holds {have} (" + ("truncated weight data"
                              if have < need else "trailing bytes") + ")")
        ws = [np.frombuffer(f.read(8 * r * c), dtype="<f8").reshape(r, c).copy()
              for r, c in shapes]
    try:
        if linear:
            return LinearModel(ws[0], max_col_sum=meta["max_col_sum"],
                               max_spectral=meta["max_spectral"])
        return MlpModel(ws, meta["spectral_caps"], meta["activations"])
    except ConfigError as e:
        raise bad(str(e)) from None
