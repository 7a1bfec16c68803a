"""Deterministic dataset construction: toy 2-D sets, CIFAR-style binary
ingestion, covariate-shift corruption, OOD generators, and splits.

Corruption never touches labels; it models covariate shift only.  Feature
normalization statistics are meant to be fit on the train split and then
reused verbatim on every other set (val/test/OOD/corrupted).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .tensor import RngState, as_matrix, atomic_open


@dataclass
class Dataset:
    x: np.ndarray            # (n, d) float64
    labels: np.ndarray       # (n,) int64 in [0, k)
    k: int
    name: str
    image_shape: tuple | None = None   # (H, W, C); rows laid out as C planes of H*W

    def __post_init__(self):
        self.x = as_matrix(self.x)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.x.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row of x")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError(f"labels out of range [0, {self.k})")
        if self.image_shape is not None:
            h, w, c = self.image_shape
            if h * w * c != self.x.shape[1]:
                raise ValueError("image_shape does not match feature count")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def onehot(self) -> np.ndarray:
        out = np.zeros((self.n, self.k))
        out[np.arange(self.n), self.labels] = 1.0
        return out

    def take(self, idx, name=None) -> "Dataset":
        return replace(
            self, x=self.x[idx], labels=self.labels[idx],
            name=self.name if name is None else name,
        )


def make_two_moons(n: int, noise_sd: float, rng: RngState) -> Dataset:
    """Two interleaved half-circles, balanced, with Gaussian jitter."""
    if n < 4:
        raise ValueError("need n >= 4 for two balanced moons")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    n0 = n // 2
    n1 = n - n0
    t0 = np.linspace(0.0, math.pi, n0)
    t1 = np.linspace(0.0, math.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if noise_sd > 0:
        x = x + noise_sd * rng.normal(x.shape)
    order = rng.permutation(n)
    return Dataset(x[order], labels[order], k=2, name="two_moons")


def blob_centers(k: int, separation: float) -> np.ndarray:
    """k centers on a circle with adjacent centers `separation` apart."""
    if k == 1:
        return np.zeros((1, 2))
    radius = separation / (2.0 * math.sin(math.pi / k))
    theta = 2.0 * math.pi * np.arange(k) / k
    return radius * np.column_stack([np.cos(theta), np.sin(theta)])


def make_gaussian_blobs(
    n: int, k: int, separation: float, rng: RngState, noise_sd: float = 1.0
) -> Dataset:
    """k isotropic Gaussian blobs in 2-D, balanced to within one sample."""
    if k < 1:
        raise ValueError(f"need k >= 1 blobs, got k={k}")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    centers = blob_centers(k, separation)
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    xs, ys = [], []
    for label, cnt in enumerate(counts):
        xs.append(centers[label] + noise_sd * rng.normal((cnt, 2)))
        ys.append(np.full(cnt, label, dtype=np.int64))
    x = np.vstack(xs)
    labels = np.concatenate(ys)
    order = rng.permutation(n)
    return Dataset(x[order], labels[order], k=k, name="gaussian_blobs")


def make_blob(
    n: int, center, noise_sd: float, rng: RngState, name: str = "blob"
) -> Dataset:
    """One Gaussian blob at an arbitrary center; handy as a far-away OOD set."""
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    center = np.asarray(center, dtype=np.float64)
    x = center + noise_sd * rng.normal((n, center.size))
    return Dataset(x, np.zeros(n, dtype=np.int64), k=1, name=name)


def make_uniform_box(n: int, low, high, rng: RngState, name: str = "uniform_box") -> Dataset:
    """Uniform noise over an axis-aligned box; an alternative OOD generator."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    d = low.size
    u = rng.uniform(n * d).reshape(n, d)
    return Dataset(low + u * (high - low), np.zeros(n, dtype=np.int64), k=1, name=name)


CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes (R, G, B planes)


def load_cifar_binary(path, max_per_class: int | None = None) -> Dataset:
    """Load CIFAR-10-format binary records with pixels scaled to [0, 1].

    With max_per_class, only the first max_per_class records of each label
    are kept, in file order.  Standardize with fit_normalizer on the train
    split, like any other dataset.
    """
    if max_per_class is not None and max_per_class < 1:
        raise ValueError(f"max_per_class must be >= 1, got {max_per_class}")
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(
            f"file size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= 10:
        raise ValueError(f"label byte out of range: {labels.max()}")
    if max_per_class is not None:
        # per-label running count: each record's 1-based rank within its label
        seen = np.cumsum(labels[:, None] == np.arange(10), axis=0)
        keep = seen[np.arange(labels.size), labels] <= max_per_class
        records, labels = records[keep], labels[keep]
    x = np.divide(records[:, 1:], 255.0, dtype=np.float64)
    return Dataset(x, labels, k=10, name="cifar", image_shape=(32, 32, 3))


def fit_normalizer(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/sd from this dataset (intended: the train split)."""
    mean = ds.x.mean(axis=0)
    # ds.x.std(axis=0) bit for bit, without computing the mean a second time
    sd = np.sqrt(_sum_sq_dev(ds.x, mean) / ds.n)
    return mean, np.maximum(sd, 1e-8)


_SQ_DEV_BLOCK = 32768  # values per row block of _sum_sq_dev: 256 KiB of float64


def _sum_sq_dev(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per-column sum of ``(x - mean) ** 2``, in ``x.var(axis=0)``'s order.

    With ``mean = x.mean(axis=0)``, this over ``len(x)`` is ``x.var(axis=0)``
    bit for bit. numpy sums the rows of a C-ordered (n, d) array in order,
    one row at a time, so the rows go through one reused block whose first
    row carries the running sum: each block's reduce continues that sum, and
    no (n, d) temporary is made. A single column, which numpy sums pairwise
    like a 1-D array, and an input that fits one block take one whole reduce.
    """
    n, d = x.shape
    rows = max(1, _SQ_DEV_BLOCK // d)
    if d == 1 or n <= rows or not x.flags.c_contiguous:
        dev = x - mean
        dev *= dev
        return np.add.reduce(dev, axis=0)
    buf = np.zeros((rows + 1, d))
    for start in range(0, n, rows):
        dev = buf[1:1 + min(rows, n - start)]
        np.subtract(x[start:start + rows], mean, out=dev)
        dev *= dev
        np.add.reduce(buf[:1 + dev.shape[0]], axis=0, out=buf[0])
    return buf[0]


def apply_normalizer(ds: Dataset, stats) -> Dataset:
    """Standardize with the given (mean, sd) stats, as fit by fit_normalizer."""
    return _normalize_in_place(replace(ds, x=ds.x.copy()), stats)


def _normalize_in_place(ds: Dataset, stats) -> Dataset:
    """apply_normalizer without the copy: ``ds.x`` itself is standardized.

    For a caller that owns ``ds`` and has no further use for its raw rows.
    """
    mean, sd = stats
    ds.x -= mean
    ds.x /= sd
    return ds


CORRUPTION_KINDS = ("gaussian_noise", "feature_shift", "feature_scale", "rotation2d")

# Intensity schedules, level 1..5. Noise/shift are in units of the pooled
# per-feature standard deviation; rotation is in degrees.
GAUSS_NOISE_FACTORS = (0.05, 0.1, 0.2, 0.4, 0.8)
SHIFT_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
SCALE_FACTORS = (1.2, 1.5, 2.0, 3.0, 5.0)
ROTATION_DEGREES = (5.0, 10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    intensity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.intensity not in (1, 2, 3, 4, 5):
            raise ValueError("intensity must be in 1..5")


def pooled_feature_sd(ds: Dataset) -> float:
    """RMS of the per-feature standard deviations."""
    variance = _sum_sq_dev(ds.x, ds.x.mean(axis=0)) / ds.n  # ds.x.var(axis=0), bit for bit
    return float(np.sqrt(np.mean(variance)))


def corrupt(ds: Dataset, spec: CorruptionSpec, rng: RngState) -> Dataset:
    """Covariate-shift corruption: perturb x, keep labels."""
    return _corrupt(ds, spec, rng, pooled_feature_sd(ds))


def _corrupt(ds: Dataset, spec: CorruptionSpec, rng: RngState, scale: float) -> Dataset:
    """corrupt with ``scale`` = pooled_feature_sd(ds) given, so that several
    corruptions of one set compute it once. The result owns a fresh ``x``."""
    level = spec.intensity - 1
    if spec.kind == "gaussian_noise":
        x = rng.normal(ds.x.shape)
        x *= GAUSS_NOISE_FACTORS[level] * scale
        x += ds.x
    elif spec.kind == "feature_shift":
        direction = rng.normal(ds.d)
        direction = direction / np.linalg.norm(direction)
        x = ds.x + SHIFT_FACTORS[level] * scale * direction
    elif spec.kind == "feature_scale":
        mean = ds.x.mean(axis=0)
        x = mean + SCALE_FACTORS[level] * (ds.x - mean)
    else:  # rotation2d
        if ds.d != 2:
            raise ValueError("rotation2d requires 2-D features")
        theta = math.radians(ROTATION_DEGREES[level])
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        x = ds.x @ rot.T
    return replace(ds, x=x, name=f"{ds.name}+{spec.kind}{spec.intensity}")


def split(
    ds: Dataset, train_frac: float, stratified: bool, rng: RngState
) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive split; stratified keeps per-class counts within one."""
    train_idx, rest_idx = _split_indices(ds.labels, ds.k, train_frac, stratified, rng)
    return (
        ds.take(train_idx, name=f"{ds.name}/train"),
        ds.take(rest_idx, name=f"{ds.name}/rest"),
    )


def _split_indices(
    labels: np.ndarray, k: int, train_frac: float, stratified: bool, rng: RngState
) -> tuple[np.ndarray, np.ndarray]:
    """split's (train, rest) row indices into ``labels``, each sorted."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    if stratified:
        train_idx, rest_idx = [], []
        for label in range(k):
            members = np.flatnonzero(labels == label)
            if members.size == 0:
                continue  # label id absent from this dataset
            if members.size < 2:
                raise ValueError(
                    f"class {label} has 1 sample; stratified split needs at least 2"
                )
            members = members[rng.permutation(members.size)]
            cut = int(round(train_frac * members.size))
            cut = min(max(cut, 1), members.size - 1)
            train_idx.append(members[:cut])
            rest_idx.append(members[cut:])
        return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(rest_idx))
    order = rng.permutation(labels.size)
    cut = int(round(train_frac * labels.size))
    cut = min(max(cut, 1), labels.size - 1)
    return np.sort(order[:cut]), np.sort(order[cut:])


def save_csv(ds: Dataset, path):
    """Header-free rows f1,...,fd,label with round-trip float formatting."""
    with atomic_open(path, "w", encoding="ascii") as f:
        for row, label in zip(ds.x, ds.labels):
            f.write(",".join(repr(float(v)) for v in row))
            f.write(f",{int(label)}\n")


def load_csv(path, k: int | None = None, name: str = "csv") -> Dataset:
    """Read the save_csv format: one or more feature columns, then the integer label."""
    rows, labels = [], []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: no feature column before the label")
            if rows and len(parts) != len(rows[0]) + 1:  # the first data line's count
                raise ValueError(f"line {lineno}: {len(parts)} cells, expected {len(rows[0]) + 1}")
            rows.append([float(v) for v in parts[:-1]])
            label = int(parts[-1])
            if label < 0:
                raise ValueError(f"line {lineno}: label {label} is negative")
            labels.append(label)
    if not rows:
        raise ValueError("no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(labels.max()) + 1
    return Dataset(np.asarray(rows, dtype=np.float64), labels, k=k, name=name)
