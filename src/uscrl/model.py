"""Representation models with norm constraints, plus the mean classifier.

One layered class, ``MlpModel``, composes linear layers and 1-Lipschitz
activations, each layer under its own spectral cap. The linear family
x -> A x is its one-layer identity case with one more cap, on the
(2,1)-norm of A^T (the sum of the Euclidean norms of A's rows).
``make_mlp`` builds and initializes both families. Checkpoints record the
family as ``"linear"`` or ``"mlp"`` by whether that cap is set.

Constraints are enforced by multiplicative projection after every SGD
step; spectral norms are exact (LAPACK SVD), and the SVD is skipped
when the Frobenius norm or a Gershgorin bound on the Gram matrix
already certifies the cap; the (2,1) row-norm sum is skipped when
sqrt(rows) times the Frobenius norm certifies that cap. Backward
computes the exact gradient of the mean clipped tuple loss, including
the zero gradient on clipped tuples. It runs over a block of batches
(``tuple_block_backward``), preparing once per block what depends only
on the tuples: one range check, and each batch's index entries. It has
two sides: a small pool's whole-pool batch scores from the pool's Gram
matrix (``loss.gram_loss_grad``), and every other batch gathers its
tuples' representation rows (``loss.block_loss_grad``).
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
from .loss import (LossSpec, block_loss_grad, check_index, gram_index,
                   gram_loss_grad)

CHECKPOINT_MAGIC = b"USCRLW01"
CHECKPOINT_VERSION = 1

ACTIVATIONS = ("relu", "identity")

# tuple_block_backward forwards the whole pool once a batch has this many
# index entries per pool row; below it, only the rows the batch touches.
# Rows the batch skips add zero rows to the backward's sum over rows, which
# BLAS may block differently, so the whole-pool side can move a gradient's
# last bits (seen for MLPs, and for linear maps on pools of 1,500+ rows).
# A whole-pool batch of n**2 <= b*(k+2)*d (d the output dim) scores from
# the pool's Gram matrix, no larger than the (b*(k+2), d) gathered block;
# that side agrees with gathering to rounding, not to the bit.
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


# A linear map from its matrix. The package builds none (make_mlp builds
# both families); it stays as the tests' constructor, and because
# benchmarks/tracing.py and benchmarks/test_bench.py name it.
class LinearModel(MlpModel):
    def __init__(self, a, max_col_sum, max_spectral):
        super().__init__([a], [max_spectral], ["identity"], max_col_sum)

    # a binding of its own: benchmarks/tracing.py wraps each model class's
    # forward as found in that class's __dict__
    forward = MlpModel.forward


def make_mlp(widths, spectral_cap, seed: int, activations=None,
             max_col_sum=None) -> MlpModel:
    """widths = [in, hidden..., out], ReLU unless overridden, each layer's
    cap spectral_cap as given; Uniform(+-1/sqrt(fan_in)) init, projected.
    A linear map is make_mlp([in, out], s, seed, ["identity"], a)."""
    if len(widths) < 2:
        raise ConfigError("widths must list input and output dims")
    L = len(widths) - 1
    if activations is None:
        activations = ["relu"] * L
    rng = np.random.default_rng(seed)
    ws = [rng.uniform(-1.0 / math.sqrt(i), 1.0 / math.sqrt(i), size=(o, i))
          for i, o in zip(widths[:-1], widths[1:])]
    return project(MlpModel(ws, [spectral_cap] * L, list(activations),
                            max_col_sum))


# sqrt(rows) * ||w||_F bounds the (2,1) row-norm sum, so project skips
# that sum when the bound times this margin is within the cap. For w of
# fewer than 2^30 entries each computed sum of squares, and so each norm
# and the row-norm sum, is within 2^-22 relative of its exact value, and
# the margin 2^-20 covers both sides' rounding together.
_ROW_SUM_MARGIN = 1.0 + 2.0 ** -20


def _frobenius(w: np.ndarray) -> float:
    """||w||_F from the one dot that np.linalg.norm(w) computes, so the
    bits match."""
    x = w.ravel(order="K")
    return math.sqrt(x.dot(x))


def _cap_spectral(w: np.ndarray, cap: float, fro: float | None = None):
    """w scaled down to spectral norm cap; w itself when the cap is slack.
    ``fro`` is ||w||_F when the caller has it.

    Two exact certificates skip the SVD: ||w||_2 <= ||w||_F, and sigma^2 is
    at most the largest absolute row sum of the smaller Gram matrix
    (Gershgorin), so a sum below cap^2 clears w. Non-finite weights fail
    the first test and skip the second, so they reach spectral_norm's check.
    """

    if fro is None:
        fro = _frobenius(w)
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
    pass lands exactly on (or inside) each cap. A layer the spectral cap
    leaves as it is keeps its Frobenius norm, which certifies a slack
    (2,1) cap without the row-norm sum.
    """

    a = model.max_col_sum
    for l, (w, cap) in enumerate(zip(model.weights, model.spectral_caps)):
        fro = _frobenius(w)
        out = _cap_spectral(w, cap, fro)
        if a is not None and not (
                out is w
                and math.sqrt(w.shape[0]) * fro * _ROW_SUM_MARGIN <= a):
            # ||W^T||_{2,1} from squared row norms, the reduction
            # np.linalg.norm(w, axis=1) does
            cs = float(np.sqrt((out * out).sum(axis=1)).sum())
            if cs > a:
                out = out * (a / cs)
        model.weights[l] = out
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


def _batch_entries(anchors, positives, negatives, b: int) -> np.ndarray:
    """Each batch's index entries in gather order (its b anchors, its b
    positives, then each tuple's k negatives), batch-major: (m // b,
    b * (k + 2)) for m tuples, m a multiple of b."""
    nb = len(anchors) // b
    entries = np.empty((nb, b * (negatives.shape[1] + 2)), dtype=np.int64)
    entries[:, :b] = anchors.reshape(nb, b)
    entries[:, b:2 * b] = positives.reshape(nb, b)
    entries[:, 2 * b:] = negatives.reshape(nb, -1)
    return entries


def tuple_block_backward(model, ds: LabeledDataset, anchors, positives,
                         negatives, spec: LossSpec, batch_size: int):
    """Yield, per batch of batch_size tuples of a block (the last may be
    short), its exact weight gradients and mean clipped loss, reading
    model.weights as they stand when resumed: the caller steps the
    weights between batches.

    Once per block: one range check of every index (IndexError outside
    range(n), on either side), and each batch's Gram flat index
    (loss.gram_index) or gather entries, batch-major, so a batch reads a
    contiguous view and a step does only what reads the weights.

    Each batch picks its side, so a short last batch can take another.
    A batch of b*(k+2) >= WHOLE_POOL_RATIO * n index entries (ratio 2)
    forwards the whole pool; a smaller one forwards its distinct rows (a
    mask, no sort). A whole-pool batch with n**2 <= b*(k+2)*d, d the
    output dim, takes the Gram side: loss.gram_loss_grad gives the losses
    and every pool row's gradient from G = R R^T, which then holds no more
    doubles than the gathered block would. Otherwise np.take gathers the
    representations tuple-major, loss.block_loss_grad gives losses and row
    gradients, and one np.bincount sums those onto rows in entry order
    (anchor, positive, negative). Either side ends in the single backward
    pass.
    """

    anchors = np.asarray(anchors, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim != 2:
        raise ConfigError("negatives must be (batch, k)")
    m, k = negatives.shape
    n, d = ds.n, model.weights[-1].shape[0]
    check_index(n, anchors, positives, negatives)
    full = m - m % batch_size
    for lo, hi in ((0, full), (full, m)):  # the whole batches, the short one
        if hi == lo:
            continue
        b = min(batch_size, hi - lo)
        cols = (anchors[lo:hi], positives[lo:hi], negatives[lo:hi])
        whole = b * (k + 2) >= WHOLE_POOL_RATIO * n
        gram = whole and n * n <= b * (k + 2) * d
        for idx in (gram_index(n, *cols, b) if gram
                    else _batch_entries(*cols, b)):
            if gram:
                hs = _forward_cached(model, ds.x)
                losses, grad_reps = gram_loss_grad(spec, hs[-1], idx)
            else:
                x, inverse = (ds.x, idx) if whole else _pool_rows(ds.x, idx)
                hs = _forward_cached(model, x)
                rows = hs[-1].shape[0]
                losses, blocks = block_loss_grad(
                    spec, np.take(hs[-1], inverse, axis=0), b, k)
                # bin j*rows + row holds feature j of a row, so each bin's
                # terms arrive in entry order; the sums go back to
                # row-major for backprop, since BLAS may round a
                # transposed operand differently
                bins = (np.arange(0, d * rows, rows)[:, None]
                        + inverse).ravel()
                grad_reps = np.ascontiguousarray(np.bincount(
                    bins, weights=blocks.T.ravel(),
                    minlength=d * rows).reshape(d, rows).T)
            grads = _backprop(model, hs, grad_reps)
            if not all(np.isfinite(g).all() for g in grads):
                raise NumericError(
                    "non-finite gradient in tuple batch backward")
            yield grads, float(losses.sum() / b)


def tuple_batch_backward(model, ds: LabeledDataset, anchors, positives,
                         negatives, spec: LossSpec):
    """Mean clipped loss over one tuple batch and its exact weight
    gradients: the one-batch case of tuple_block_backward."""
    step = next(tuple_block_backward(model, ds, anchors, positives,
                                     negatives, spec, max(1, len(negatives))),
                None)
    if step is None:
        raise ConfigError("a tuple batch needs at least one tuple")
    return step


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
    parts = (([meta["max_spectral"]], ["identity"], meta["max_col_sum"])
             if linear else (meta["spectral_caps"], meta["activations"]))
    try:
        return MlpModel(ws, *parts)
    except ConfigError as e:
        raise bad(str(e)) from None
