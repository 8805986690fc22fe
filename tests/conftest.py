import numpy as np
import pytest

from uscrl.dataset import LabeledDataset
from uscrl.model import make_mlp


def make_pool(sizes, dim=6, seed=0, scale=1.0):
    """Pool with exactly the given per-class sizes, class-major layout."""
    rng = np.random.default_rng(seed)
    ys = []
    for c, m in enumerate(sizes):
        ys.extend([c] * m)
    y = np.array(ys, dtype=np.int64)
    x = scale * rng.standard_normal((len(y), dim))
    return LabeledDataset(x=x, y=y, num_classes=len(sizes))


def rand_linear(in_dim, out_dim, seed=0, max_col_sum=64.0, max_spectral=4.0):
    return make_mlp([in_dim, out_dim], max_spectral, seed, ["identity"],
                    max_col_sum)


def rand_mlp(widths, seed=0, cap=4.0, activations=None):
    return make_mlp(widths, cap, seed=seed, activations=activations)


@pytest.fixture
def toy_pool():
    # class sizes 3, 3, 2 over 8 samples; the k=1 enumeration has 72 tuples
    return make_pool([3, 3, 2], dim=4, seed=7)


@pytest.fixture
def toy_model(toy_pool):
    return rand_linear(toy_pool.dim, 3, seed=11)
