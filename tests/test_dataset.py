import hashlib
import struct

import numpy as np
import pytest

from uscrl.dataset import (GaussianSpec, LabeledDataset, generate_gaussian,
                           load_idx, train_holdout_split)
from uscrl.errors import ConfigError, FormatError

from conftest import make_pool


class TestGaussianSpec:
    def test_basic_properties(self):
        spec = GaussianSpec(centers=np.zeros((3, 5)))
        assert spec.num_classes == 3
        assert spec.dim == 5
        # priors are filled in as uniform at construction
        np.testing.assert_array_equal(spec.priors, np.full(3, 1 / 3))

    def test_explicit_priors(self):
        spec = GaussianSpec(centers=np.zeros((2, 2)), priors=[0.25, 0.75])
        np.testing.assert_array_equal(spec.priors, [0.25, 0.75])

    def test_random_is_seeded(self):
        a = GaussianSpec.random(4, dim=8, seed=3)
        b = GaussianSpec.random(4, dim=8, seed=3)
        c = GaussianSpec.random(4, dim=8, seed=4)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert not np.array_equal(a.centers, c.centers)

    @pytest.mark.parametrize("kwargs", [
        {"centers": np.zeros(3)},
        {"centers": np.zeros((2, 2)), "sigma": 0.0},
        {"centers": np.zeros((2, 2)), "priors": [0.5, 0.25]},
        {"centers": np.zeros((2, 2)), "priors": [1.5, -0.5]},
        {"centers": np.zeros((2, 2)), "priors": [0.2, 0.3, 0.5]},
        {"centers": np.zeros((2, 2)), "sigma": np.inf},
        {"centers": np.zeros((2, 2)), "sigma": np.nan},
        {"centers": [[0.0, np.inf], [0.0, 0.0]]},
        {"centers": [[0.0, np.nan], [0.0, 0.0]]},
        {"centers": np.zeros((3, 2)), "priors": [np.nan, 0.5, 0.5]},
        {"centers": np.zeros((2, 2)), "priors": [np.inf, 0.5]},
        # within 1e-9 of summing to one, but refused by generate_gaussian's
        # multinomial: the first two sum past 1 + 1e-12, or one class is > 1
        {"centers": np.zeros((3, 2)), "priors": [0.5, 0.5000000004, 1e-10]},
        {"centers": np.zeros((1, 2)), "priors": [1 + 5e-10]},
        # within every slack above, but one class holds all the mass, so a
        # tuple's negative class could never be drawn
        {"centers": np.zeros((2, 2)), "priors": [1.0, 1e-10]},
        {"centers": np.zeros((2, 2)), "priors": [1 + 1e-13, 1e-10]},
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ConfigError):
            GaussianSpec(**kwargs)

    def test_accepts_priors_within_the_draws_slack(self):
        spec = GaussianSpec(centers=np.zeros((3, 2)),
                            priors=[0.5, 0.5 + 5e-13, 1e-10])
        assert generate_gaussian(spec, 24, seed=0).n == 24

    def test_single_class_keeps_its_whole_prior(self):
        spec = GaussianSpec(centers=np.zeros((1, 2)))
        np.testing.assert_array_equal(spec.priors, [1.0])

    def test_draw_rows_is_center_plus_sigma_z_in_place(self):
        spec = GaussianSpec.random(3, dim=4, sigma=0.7, seed=1)
        labels = np.array([2, 0, 0, 1, 2])
        out = np.empty((5, 4))
        assert spec.draw_rows(np.random.default_rng(8), labels, out) is out
        z = np.random.default_rng(8).standard_normal((5, 4))
        np.testing.assert_array_equal(out, spec.centers[labels] + 0.7 * z)


class TestLabeledDataset:
    def test_index_caches_are_sorted_and_complementary(self):
        ds = make_pool([3, 4, 2], seed=1)
        for c in range(3):
            inside = ds.class_indices(c)
            outside = ds.out_indices(c)
            assert np.all(np.diff(inside) > 0)
            assert np.all(np.diff(outside) > 0)
            merged = np.sort(np.concatenate([inside, outside]))
            np.testing.assert_array_equal(merged, np.arange(ds.n))
            assert np.all(ds.y[inside] == c)
            assert np.all(ds.y[outside] != c)
        # each call returns a fresh array, so a caller's edit cannot leak
        ds.class_indices(0)[:] = -1
        assert np.all(ds.y[ds.class_indices(0)] == 0)

    def test_class_sizes_and_len(self):
        ds = make_pool([3, 4, 2])
        np.testing.assert_array_equal(ds.class_sizes(), [3, 4, 2])
        assert ds.n == 9

    def test_subset_reindexes(self):
        ds = make_pool([3, 3], dim=2, seed=2)
        sub = ds.subset([1, 4, 5])
        assert sub.n == 3
        np.testing.assert_array_equal(sub.y, [0, 1, 1])
        np.testing.assert_array_equal(sub.x, ds.x[[1, 4, 5]])
        assert sub.num_classes == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigError):
            LabeledDataset(x=np.zeros((2, 2)), y=np.array([0, 5]), num_classes=2)
        with pytest.raises(ConfigError):
            LabeledDataset(x=np.zeros((2, 2)), y=np.array([0, -1]), num_classes=2)
        with pytest.raises(ConfigError):
            LabeledDataset(x=np.zeros(4), y=np.array([0]), num_classes=1)


class TestGenerateGaussian:
    def test_deterministic_and_class_major(self):
        spec = GaussianSpec.random(3, dim=4, seed=0)
        a = generate_gaussian(spec, 50, seed=9)
        b = generate_gaussian(spec, 50, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert np.all(np.diff(a.y) >= 0)  # labels laid out class by class
        assert a.n == 50

    def test_multinomial_class_sizes(self):
        # one exact multinomial draw: counts sum to n and each class count
        # sits within 4 sigma of n * prior for a seeded draw
        spec = GaussianSpec.random(4, dim=2, seed=1)
        ds = generate_gaussian(spec, 2000, seed=5)
        sizes = ds.class_sizes()
        assert sizes.sum() == 2000
        sigma = np.sqrt(2000 * 0.25 * 0.75)
        assert np.all(np.abs(sizes - 500) < 4 * sigma)

    def test_samples_track_their_centers(self):
        spec = GaussianSpec.random(3, dim=16, sigma=0.05, seed=2)
        ds = generate_gaussian(spec, 600, seed=3)
        for c in range(3):
            rows = ds.class_indices(c)
            mean = ds.x[rows].mean(axis=0)
            # mean of m draws deviates by about sigma/sqrt(m) per coordinate
            tol = 6 * 0.05 / np.sqrt(len(rows))
            assert np.max(np.abs(mean - spec.centers[c])) < tol

    def test_skewed_priors(self):
        spec = GaussianSpec.random(2, dim=2, seed=0, priors=[0.9, 0.1])
        ds = generate_gaussian(spec, 1000, seed=1)
        sizes = ds.class_sizes()
        assert sizes[0] > sizes[1]
        assert abs(sizes[0] - 900) < 4 * np.sqrt(1000 * 0.9 * 0.1)

    def test_empty_pool(self):
        spec = GaussianSpec.random(2, dim=3, seed=0)
        ds = generate_gaussian(spec, 0, seed=0)
        assert ds.n == 0 and ds.dim == 3
        assert ds.x.shape == (0, 3) and ds.x.dtype == np.float64
        assert ds.y.dtype == np.int64

    @pytest.mark.parametrize("spec,n,seed,want", [
        (GaussianSpec.random(5, dim=96, sigma=2.0, seed=0), 4000, 1,
         "3bcec334ac0b98fc"),
        # counts [17, 0, 13]: the middle class draws no row
        (GaussianSpec.random(3, dim=3, sigma=0.5, seed=2,
                             priors=[0.45, 0.05, 0.5]), 30, 9,
         "6569199adcc14c94"),
    ])
    def test_pool_bytes_are_pinned(self, spec, n, seed, want):
        # every recorded pool, checkpoint and benchmark digest rests on
        # this draw: the class counts, then all rows' normals in C order
        ds = generate_gaussian(spec, n, seed)
        got = hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest()
        assert got[:16] == want


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=3,
                    images_magic=0x803, labels_magic=0x801,
                    image_count=None, label_count=None,
                    trailing_images=b"", trailing_labels=b""):
    n = len(labels)
    image_count = n if image_count is None else image_count
    label_count = n if label_count is None else label_count
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", images_magic, image_count, rows, cols)
                    + bytes(pixels) + trailing_images)
    lab.write_bytes(struct.pack(">II", labels_magic, label_count)
                    + bytes(labels) + trailing_labels)
    return str(img), str(lab)


class TestLoadIdx:
    def test_parses_pixels_and_labels(self, tmp_path):
        pixels = list(range(12))  # two 2x3 images
        img, lab = _write_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(img, lab)
        assert ds.x.shape == (2, 6)
        np.testing.assert_allclose(ds.x[0], np.arange(6) / 255.0)
        np.testing.assert_allclose(ds.x[1], np.arange(6, 12) / 255.0)
        np.testing.assert_array_equal(ds.y, [1, 0])
        assert ds.num_classes == 2  # inferred from max label

    def test_explicit_num_classes(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(12)), [1, 0])
        ds = load_idx(img, lab, num_classes=10)
        assert ds.num_classes == 10

    def test_bad_images_magic(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(12)), [1, 0],
                                   images_magic=0x804)
        with pytest.raises(FormatError, match="images magic"):
            load_idx(img, lab)

    def test_bad_labels_magic(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(12)), [1, 0],
                                   labels_magic=0x803)
        with pytest.raises(FormatError, match="labels magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(11)), [1, 0])
        with pytest.raises(FormatError, match="images payload"):
            load_idx(img, lab)

    def test_trailing_bytes(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, list(range(12)), [1, 0],
                                   trailing_images=b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        pixels = list(range(18))
        img, lab = _write_idx_pair(tmp_path, pixels, [1, 0, 1],
                                   image_count=3, label_count=2)
        # labels payload is 3 bytes but header promises 2 -> trailing bytes
        with pytest.raises(FormatError):
            load_idx(img, lab)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (2, 0)])
    def test_images_without_pixels(self, tmp_path, rows, cols):
        img, lab = _write_idx_pair(tmp_path, [], [1, 0], rows=rows, cols=cols)
        with pytest.raises(FormatError, match="no pixels"):
            load_idx(img, lab)

    def test_label_header_disagrees_with_images(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 3) + bytes(range(12)))
        lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes([1, 0, 1]))
        with pytest.raises(FormatError, match="labels count"):
            load_idx(str(img), str(lab))


class TestHoldoutSplit:
    def test_partition(self):
        ds = make_pool([10, 10], seed=4)
        train, hold = train_holdout_split(ds, 0.25, seed=0)
        assert hold.n == 5 and train.n == 15
        # the two parts partition the pool
        key = lambda d: {tuple(row) for row in d.x}
        assert key(train) | key(hold) == key(ds)
        assert not key(train) & key(hold)

    def test_seeded(self):
        ds = make_pool([10, 10], seed=4)
        a1, b1 = train_holdout_split(ds, 0.3, seed=5)
        a2, b2 = train_holdout_split(ds, 0.3, seed=5)
        np.testing.assert_array_equal(a1.x, a2.x)
        np.testing.assert_array_equal(b1.y, b2.y)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_fraction(self, frac):
        ds = make_pool([4, 4])
        with pytest.raises(ConfigError):
            train_holdout_split(ds, frac, seed=0)
