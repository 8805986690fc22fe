"""Labeled sample pools: synthetic Gaussian mixtures and IDX image files.

A pool is a fixed labeled dataset from which contrastive tuples are built.
Everything downstream (tuple samplers, risk estimators, trainers) consumes
the :class:`LabeledDataset` container defined here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .fileio import read_exact, read_payload


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian mixture: one center per class, shared sigma.

    ``sigma``, ``centers`` and ``priors`` must be finite; ``priors`` must be
    strictly positive, sum to one and pass the pool draw's multinomial, and
    are uniform when not given; class c draws x = centers[c] + sigma * z
    with z standard normal.
    """

    centers: np.ndarray  # (num_classes, dim)
    sigma: float = 0.1
    priors: np.ndarray | None = None  # None is filled in as uniform

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ConfigError("centers must be a (num_classes, dim) array")
        if not np.isfinite(centers).all():
            raise ConfigError("centers must be finite")
        object.__setattr__(self, "centers", centers)
        if not 0 < self.sigma < np.inf:
            raise ConfigError(
                f"sigma must be positive and finite, got {self.sigma}")
        c = centers.shape[0]
        p = np.asarray(np.full(c, 1.0 / c) if self.priors is None
                       else self.priors, dtype=np.float64)
        if p.shape != (c,):
            raise ConfigError(f"priors has shape {p.shape}, expected ({c},)")
        if not (np.isfinite(p).all() and (p > 0).all()):
            raise ConfigError("priors must be strictly positive and finite")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ConfigError(f"priors sum to {p.sum()}, expected 1")
        try:  # generate_gaussian's multinomial allows only 1e-12 of slack
            np.random.default_rng(0).multinomial(0, p)
        except ValueError as e:
            raise ConfigError(f"priors {p.tolist()}: {e}") from None
        object.__setattr__(self, "priors", p)

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @staticmethod
    def random(num_classes: int, dim: int = 128, sigma: float = 0.1,
               seed: int = 0, priors=None) -> "GaussianSpec":
        """Spec with standard-normal random centers (seeded)."""
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((num_classes, dim))
        return GaussianSpec(centers=centers, sigma=sigma, priors=priors)


@dataclass(frozen=True)
class LabeledDataset:
    """Fixed pool of N labeled samples, stored as dense arrays.

    ``x`` is (N, dim) float64, ``y`` is (N,) integer labels in
    [0, num_classes). Per-class index lists are computed per call, not
    cached, and sorted ascending, so every positional convention downstream
    (tuple enumeration order, permutation semantics) is deterministic.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2:
            raise ConfigError("x must be a (N, dim) array")
        if y.shape != (x.shape[0],):
            raise ConfigError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if x.shape[0] and (y.min() < 0 or y.max() >= self.num_classes):
            raise ConfigError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{y.min()}, {y.max()}]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def class_indices(self, c: int) -> np.ndarray:
        """Sorted indices of the samples labeled c."""
        return np.flatnonzero(self.y == c)

    def out_indices(self, c: int) -> np.ndarray:
        """Sorted indices of the samples NOT labeled c."""
        return np.flatnonzero(self.y != c)

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.num_classes)

    def subset(self, indices) -> "LabeledDataset":
        """Re-indexed sub-pool keeping the same label space."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.x[idx], self.y[idx], self.num_classes)


def generate_gaussian(spec: GaussianSpec, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled samples from the mixture.

    Class sizes come from one exact multinomial draw (sequential binomial
    conditioning, as numpy's generator implements), not from n independent
    label draws, so the per-class counts are exchangeable with the
    multinomial law assumed by the estimator analysis. Samples are laid
    out class-by-class in label order.
    """

    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, spec.priors)
    xs = []
    ys = []
    for c in range(spec.num_classes):
        m = int(counts[c])
        if m == 0:
            continue
        xs.append(spec.centers[c] + spec.sigma * rng.standard_normal((m, spec.dim)))
        ys.append(np.full(m, c, dtype=np.int64))
    if xs:
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys, axis=0)
    else:
        x = np.zeros((0, spec.dim))
        y = np.zeros(0, dtype=np.int64)
    return LabeledDataset(x=x, y=y, num_classes=spec.num_classes)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def load_idx(images_path: str, labels_path: str,
             num_classes: int | None = None) -> LabeledDataset:
    """Load an IDX image/label file pair (the MNIST container format).

    Both headers are big-endian. Pixels are scaled to [0, 1] by dividing
    by 255 and images are flattened row-major, so the per-sample Euclidean
    norm is at most sqrt(rows*cols). Raises FormatError naming the
    offending field on any malformed input.
    """

    with open(images_path, "rb") as f:
        head = read_exact(f, 16, "images header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(
                f"images magic: expected {_IDX_IMAGES_MAGIC:#010x}, got {magic:#010x}")
        if rows == 0 or cols == 0:
            raise FormatError(f"images header: {rows} x {cols} images have no pixels")
        payload = read_payload(f, count * rows * cols, "images payload")
    with open(labels_path, "rb") as f:
        head = read_exact(f, 8, "labels header")
        magic, label_count = struct.unpack(">II", head)
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(
                f"labels magic: expected {_IDX_LABELS_MAGIC:#010x}, got {magic:#010x}")
        label_bytes = read_payload(f, label_count, "labels payload")
    if label_count != count:
        raise FormatError(
            f"labels count: {label_count} labels for {count} images")

    x = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    x = x.reshape(count, rows * cols)
    y = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    if num_classes is None:
        num_classes = int(y.max()) + 1 if count else 1
    return LabeledDataset(x=x, y=y, num_classes=num_classes)


def train_holdout_split(ds: LabeledDataset, holdout_fraction: float,
                        seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded uniform split into (train, holdout) sub-pools."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    n_hold = max(1, int(round(holdout_fraction * ds.n)))
    return ds.subset(np.sort(perm[n_hold:])), ds.subset(np.sort(perm[:n_hold]))
