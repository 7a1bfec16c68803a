import math

import numpy as np
import pytest

from vrlkit.datagen import (
    CIFAR_RECORD_BYTES,
    CORRUPTION_KINDS,
    CorruptionSpec,
    Dataset,
    GAUSS_NOISE_FACTORS,
    apply_normalizer,
    blob_centers,
    corrupt,
    fit_normalizer,
    load_cifar_binary,
    load_csv,
    make_blob,
    make_gaussian_blobs,
    make_two_moons,
    make_uniform_box,
    pooled_feature_sd,
    save_csv,
    split,
)
from vrlkit.datagen import _SQ_DEV_BLOCK, _sum_sq_dev
from vrlkit.tensor import RngState


def on_canonical_arc(point, label):
    x, y = point
    if label == 0:
        return abs(x * x + y * y - 1.0) < 1e-9 and y >= -1e-9
    return abs((x - 1.0) ** 2 + (y - 0.5) ** 2 - 1.0) < 1e-9 and y <= 0.5 + 1e-9


class TestTwoMoons:
    def test_zero_noise_points_on_arcs(self):
        ds = make_two_moons(200, 0.0, RngState(0))
        for point, label in zip(ds.x, ds.labels):
            assert on_canonical_arc(point, label)

    def test_balanced_and_deterministic(self):
        a = make_two_moons(101, 0.2, RngState(5))
        b = make_two_moons(101, 0.2, RngState(5))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels)
        assert abs(counts[0] - counts[1]) <= 1

    def test_degenerate_n(self):
        with pytest.raises(ValueError):
            make_two_moons(3, 0.1, RngState(0))


class TestBlobs:
    def test_nearest_centroid_oracle(self):
        ds = make_gaussian_blobs(600, 3, 10.0, RngState(1), noise_sd=0.1)
        centers = blob_centers(3, 10.0)
        dists = ((ds.x[:, None, :] - centers[None]) ** 2).sum(axis=2)
        preds = dists.argmin(axis=1)
        assert (preds == ds.labels).mean() >= 0.99

    def test_balanced_within_one(self):
        ds = make_gaussian_blobs(100, 3, 5.0, RngState(2))
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_identical(self):
        a = make_gaussian_blobs(50, 2, 4.0, RngState(3))
        b = make_gaussian_blobs(50, 2, 4.0, RngState(3))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)

    def test_needs_two_per_class(self):
        with pytest.raises(ValueError):
            make_gaussian_blobs(5, 3, 4.0, RngState(0))

    @pytest.mark.parametrize("k", [0, -2])
    def test_needs_at_least_one_blob(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            make_gaussian_blobs(10, k, 4.0, RngState(0))

    def test_ood_generators(self):
        blob = make_blob(40, (30.0, 30.0), 1.0, RngState(4))
        assert blob.n == 40 and blob.d == 2
        box = make_uniform_box(40, (-2, -2), (2, 2), RngState(5))
        assert box.x.min() >= -2 and box.x.max() <= 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda sd: make_gaussian_blobs(10, 2, 4.0, RngState(0), noise_sd=sd),
            lambda sd: make_blob(10, (0.0, 0.0), sd, RngState(0)),
        ],
        ids=["blobs", "blob"],
    )
    def test_negative_noise_sd_rejected(self, make):
        make(0.0)
        with pytest.raises(ValueError, match="noise_sd must be >= 0"):
            make(-1.0)


def write_cifar_file(path, labels, pixel_value=255):
    records = []
    for lab in labels:
        records.append(bytes([lab]) + bytes([pixel_value] * 3072))
    path.write_bytes(b"".join(records))


class TestCifarLoader:
    def test_saturated_record(self, tmp_path):
        path = tmp_path / "one.bin"
        write_cifar_file(path, [3])
        ds = load_cifar_binary(path)
        assert ds.n == 1 and ds.labels[0] == 3
        assert np.array_equal(ds.x, np.ones((1, 3072)))
        assert ds.image_shape == (32, 32, 3)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES + 10))
        with pytest.raises(ValueError):
            load_cifar_binary(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lab.bin"
        write_cifar_file(path, [11])
        with pytest.raises(ValueError):
            load_cifar_binary(path)

    def test_max_per_class_subsampling(self, tmp_path):
        path = tmp_path / "multi.bin"
        write_cifar_file(path, [0] * 15 + [1] * 12 + [2] * 8)
        ds = load_cifar_binary(path, max_per_class=10)
        counts = np.bincount(ds.labels, minlength=3)
        assert list(counts) == [10, 10, 8]

    # 2,000 records with interleaved random labels (about 200 per label)
    @pytest.mark.parametrize("max_per_class", [1, 7, 150, 2000])
    def test_max_per_class_equals_loop_oracle(self, tmp_path, max_per_class):
        rng = np.random.default_rng(1)
        records = rng.integers(0, 256, (2000, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, 2000)
        path = tmp_path / "many.bin"
        path.write_bytes(records.tobytes())
        ds = load_cifar_binary(path, max_per_class=max_per_class)
        x, labels = max_per_class_oracle(records, max_per_class)
        assert ds.x.tobytes() == x.tobytes()
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("max_per_class", [0, -1])
    def test_nonpositive_max_per_class_rejected(self, tmp_path, max_per_class):
        path = tmp_path / "one.bin"
        write_cifar_file(path, [3])
        with pytest.raises(ValueError, match="max_per_class must be >= 1"):
            load_cifar_binary(path, max_per_class=max_per_class)


def max_per_class_oracle(records, max_per_class):
    """The first max_per_class records of each label, in file order, one record at a time."""
    labels = records[:, 0].astype(np.int64)
    x = records[:, 1:].astype(np.float64) / 255.0
    keep = []
    seen = {}
    for i, lab in enumerate(labels):
        c = seen.get(lab, 0)
        if c < max_per_class:
            keep.append(i)
            seen[lab] = c + 1
    return x[keep], labels[keep]


class TestCorrupt:
    def test_gaussian_noise_matches_chi_mean(self):
        ds = make_gaussian_blobs(4000, 2, 6.0, RngState(7))
        spec = CorruptionSpec("gaussian_noise", 1)
        out = corrupt(ds, spec, RngState(8))
        sigma = GAUSS_NOISE_FACTORS[0] * pooled_feature_sd(ds)
        # mean length of a d-dim isotropic Gaussian: sigma * chi_d mean
        d = ds.d
        chi_mean = math.sqrt(2) * math.gamma((d + 1) / 2) / math.gamma(d / 2)
        observed = np.linalg.norm(out.x - ds.x, axis=1).mean()
        assert abs(observed - sigma * chi_mean) <= 0.05 * sigma * chi_mean

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_gaussian_noise_bitwise(self, level):
        ds = make_gaussian_blobs(300, 3, 5.0, RngState(9))
        before = ds.x.copy()
        out = corrupt(ds, CorruptionSpec("gaussian_noise", level), RngState(31))
        sigma = GAUSS_NOISE_FACTORS[level - 1] * pooled_feature_sd(ds)
        expected = ds.x + sigma * RngState(31).normal(ds.x.shape)
        assert out.x.tobytes() == expected.tobytes()
        assert ds.x.tobytes() == before.tobytes()

    def test_labels_untouched(self):
        ds = make_gaussian_blobs(100, 2, 5.0, RngState(9))
        for kind in ("gaussian_noise", "feature_shift", "feature_scale", "rotation2d"):
            out = corrupt(ds, CorruptionSpec(kind, 3), RngState(10))
            assert np.array_equal(out.labels, ds.labels)

    def test_intensity_monotone(self):
        ds = make_gaussian_blobs(500, 2, 5.0, RngState(11))
        for kind in ("gaussian_noise", "feature_shift", "feature_scale", "rotation2d"):
            mags = []
            for level in range(1, 6):
                out = corrupt(ds, CorruptionSpec(kind, level), RngState(12))
                mags.append(np.linalg.norm(out.x - ds.x, axis=1).mean())
            assert all(a < b for a, b in zip(mags, mags[1:]))

    def test_rotation_preserves_norms(self):
        ds = make_two_moons(100, 0.1, RngState(13))
        out = corrupt(ds, CorruptionSpec("rotation2d", 5), RngState(14))
        before = np.linalg.norm(ds.x, axis=1)
        after = np.linalg.norm(out.x, axis=1)
        assert np.all(np.abs(before - after) <= 1e-12)

    def test_intensity_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec("gaussian_noise", 0)
        with pytest.raises(ValueError):
            CorruptionSpec("fog", 1)


class TestSplit:
    def test_stratified_90_10(self):
        ds = make_gaussian_blobs(1000, 10, 20.0, RngState(15))
        train, rest = split(ds, 0.9, stratified=True, rng=RngState(16))
        assert train.n == 900 and rest.n == 100
        assert list(np.bincount(train.labels, minlength=10)) == [90] * 10
        assert list(np.bincount(rest.labels, minlength=10)) == [10] * 10

    def test_partition_is_permutation(self):
        ds = make_two_moons(101, 0.3, RngState(17))
        train, rest = split(ds, 0.7, stratified=False, rng=RngState(18))
        union = np.vstack([train.x, rest.x])
        assert union.shape == ds.x.shape
        key = lambda arr: np.lexsort(arr.T)
        assert np.allclose(union[key(union)], ds.x[key(ds.x)])

    def test_same_seed_same_split(self):
        ds = make_gaussian_blobs(120, 3, 5.0, RngState(19))
        a = split(ds, 0.8, stratified=True, rng=RngState(20))
        b = split(ds, 0.8, stratified=True, rng=RngState(20))
        assert np.array_equal(a[0].x, b[0].x)

    def test_small_class_rejected(self):
        ds = make_gaussian_blobs(10, 2, 5.0, RngState(21))
        lone = ds.take(np.concatenate([np.flatnonzero(ds.labels == 0),
                                       np.flatnonzero(ds.labels == 1)[:1]]))
        with pytest.raises(ValueError):
            split(lone, 0.5, stratified=True, rng=RngState(22))

    def test_bad_fraction(self):
        ds = make_two_moons(20, 0.1, RngState(23))
        with pytest.raises(ValueError):
            split(ds, 1.0, stratified=False, rng=RngState(24))


class TestNormalizerAndCsv:
    def test_stats_fit_on_train_reused(self):
        ds = make_gaussian_blobs(300, 3, 6.0, RngState(25))
        train, rest = split(ds, 0.8, stratified=True, rng=RngState(26))
        stats = fit_normalizer(train)
        before = rest.x.copy()
        train_n = apply_normalizer(train, stats)
        rest_n = apply_normalizer(rest, stats)
        assert np.allclose(train_n.x.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(train_n.x.std(axis=0), 1.0, atol=1e-10)
        # the val/test set reuses train stats verbatim, so it is not centered
        assert rest_n.x.tobytes() == ((before - stats[0]) / stats[1]).tobytes()
        assert rest.x.tobytes() == before.tobytes()

    def test_csv_round_trip(self, tmp_path):
        ds = make_two_moons(30, 0.2, RngState(27))
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.labels, ds.labels)

    def test_csv_row_without_features_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0.5,1\n\n2\n")
        with pytest.raises(ValueError, match="line 3: no feature column"):
            load_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("0.5,0.25,1\n\n0.5,1\n", "line 3: 2 cells, expected 3"),
        ("0.5,1\n0.25,0\n0.5,0.25,1\n", "line 3: 3 cells, expected 2"),
    ])
    def test_ragged_csv_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (7, 5), (64, 48), (301, 17)])
    def test_fit_normalizer_equals_mean_and_std(self, shape):
        rng = np.random.default_rng(shape[0])
        x = 1e3 + rng.normal(size=shape) * rng.uniform(0.1, 50.0, size=shape[1])
        x[:, 0] = 2.5  # a constant column: its sd is the 1e-8 floor
        mean, sd = fit_normalizer(Dataset(x, np.zeros(shape[0]), k=1, name="x"))
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert sd.tobytes() == np.maximum(x.std(axis=0), 1e-8).tobytes()
        assert sd[0] == 1e-8


class TestSumSqDev:
    """The normalizer's blocked sum of squared deviations is numpy's own
    reduction bit for bit: numpy adds the rows of a C-ordered (n, d) array
    in order, which each row block continues, and sums a single column
    pairwise, which only one whole reduce repeats."""

    @staticmethod
    def data(n, d, seed):
        rng = np.random.default_rng(seed)
        return 1e3 + rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0, size=d)

    @pytest.mark.parametrize("size", ["1", "block-1", "block", "block+1", "3blocks+2"])
    @pytest.mark.parametrize("d", [1, 2, 3, 64, 3072])
    def test_equals_numpy_var_and_std(self, d, size):
        block = max(1, _SQ_DEV_BLOCK // d)  # rows per block
        n = {"1": 1, "block-1": max(block - 1, 1), "block": block, "block+1": block + 1,
             "3blocks+2": 3 * block + 2}[size]
        x = self.data(n, d, n + d)
        got = _sum_sq_dev(x, x.mean(axis=0)) / n
        assert got.tobytes() == x.var(axis=0).tobytes()
        mean, sd = fit_normalizer(Dataset(x, np.zeros(n), k=1, name="x"))
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert sd.tobytes() == np.maximum(x.std(axis=0), 1e-8).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_one_long_column_is_summed_pairwise(self, seed):
        # 40,000 rows of one column span two blocks; summed block by block,
        # the sum differs from numpy's pairwise one on some of these seeds
        x = self.data(40_000, 1, seed)
        assert (_sum_sq_dev(x, x.mean(axis=0)) / 40_000).tobytes() == x.var(axis=0).tobytes()

    def test_column_major_input_equals_numpy(self):
        x = np.asfortranarray(self.data(3 * _SQ_DEV_BLOCK // 64 + 5, 64, 9))
        assert (_sum_sq_dev(x, x.mean(axis=0)) / len(x)).tobytes() == x.var(axis=0).tobytes()

    @pytest.mark.parametrize("shape", [(2, 1), (7, 5), (40, 3072), (3 * _SQ_DEV_BLOCK // 3 + 1, 3)])
    def test_pooled_feature_sd_keeps_its_bits(self, shape):
        x = self.data(*shape, shape[0])
        ds = Dataset(x, np.zeros(shape[0]), k=1, name="x")
        assert pooled_feature_sd(ds) == float(np.sqrt(np.mean(x.var(axis=0))))


class TestPublicFunctionsKeepTheirInput:
    """build_pipeline works in place on sets it owns; the public functions
    never do, and their results equal the plain formulas bit for bit."""

    @staticmethod
    def image_set():
        rng = np.random.default_rng(3)
        return Dataset(rng.normal(size=(24, 48)), np.arange(24) % 3, k=3, name="img",
                       image_shape=(4, 4, 3))

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_corrupt(self, kind):
        ds = make_two_moons(60, 0.2, RngState(40))
        before = ds.x.copy()
        corrupt(ds, CorruptionSpec(kind, 4), RngState(41))
        assert ds.x.tobytes() == before.tobytes()

    def test_apply_normalizer(self):
        ds = self.image_set()
        before = ds.x.copy()
        stats = fit_normalizer(ds.take(np.arange(12)))
        out = apply_normalizer(ds, stats)
        assert ds.x.tobytes() == before.tobytes()
        assert out.x.tobytes() == ((before - stats[0]) / stats[1]).tobytes()
        assert (out.name, out.image_shape) == (ds.name, ds.image_shape)

    @pytest.mark.parametrize("stratified", [True, False])
    def test_split(self, stratified):
        ds = self.image_set()
        before = ds.x.copy()
        train, rest = split(ds, 0.5, stratified, RngState(43))
        train.x += 1.0  # the splits own their rows
        rest.x += 1.0
        assert ds.x.tobytes() == before.tobytes()

    def test_ood_makers_equal_their_formulas(self):
        center, low, high = np.array([3.0, -1.5, 0.25]), np.array([-2.0, 0.5, 1.0]), 7.5
        blob = make_blob(50, center, 0.7, RngState(44))
        assert blob.x.tobytes() == (center + 0.7 * RngState(44).normal((50, 3))).tobytes()
        box = make_uniform_box(50, low, [high] * 3, RngState(45))
        u = RngState(45).uniform(150).reshape(50, 3)
        assert box.x.tobytes() == (low + u * (high - low)).tobytes()

    def test_cifar_loader_equals_astype_over_255_for_every_byte(self, tmp_path):
        pixels = np.arange(3 * 3072) % 256
        records = np.zeros((3, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 1:] = pixels.reshape(3, 3072)
        path = tmp_path / "bytes.bin"
        path.write_bytes(records.tobytes())
        ds = load_cifar_binary(path)
        expected = records[:, 1:].astype(np.float64) / 255.0
        assert ds.x.tobytes() == expected.tobytes()
        assert set(np.unique(records[:, 1:])) == set(range(256))
