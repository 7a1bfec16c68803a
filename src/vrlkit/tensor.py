"""Dense float64 matrix helpers and a splittable, counter-based RNG.

Everything downstream works on plain 2-D numpy arrays (row-major, float64).
Randomness always flows through an explicit RngState so that a run is fully
reproducible from its seed, independent of iteration order: each consumer
derives its own stream with ``split``.
"""

import hashlib
import math
import struct

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array, validating rank."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def _derive_key(seed: int, path: tuple) -> int:
    # 128-bit Philox key from (seed, split path); blake2b keeps unrelated
    # paths statistically independent.
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF))
    for label in path:
        h.update(struct.pack("<q", int(label)))
    return int.from_bytes(h.digest(), "little")


class RngState:
    """Seeded random stream backed by the counter-based Philox generator.

    ``split(*labels)`` derives an independent child stream keyed by the
    integer label path, so e.g. the shuffle stream of epoch 3 never depends
    on how many draws the mixing stream of epoch 2 consumed.  Instances are
    single-owner: never share one across concurrent consumers.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.Philox(key=_derive_key(self.seed, self.path))
        )

    def __repr__(self):
        return f"RngState(seed={self.seed}, path={self.path})"

    def split(self, *labels: int) -> "RngState":
        """Derive an independent child stream for the given label path."""
        return RngState(self.seed, self.path + labels)

    def uniform(self, n: int) -> np.ndarray:
        """n draws from U[0, 1)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._gen.random(int(n))

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws with the given shape."""
        return self._gen.standard_normal(shape)

    def integers(self, low: int, high: int, size=None):
        """Integer draws in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n)."""
        return self._gen.permutation(int(n))

    def gamma(self, shape: float, size=None):
        """Gamma(shape, 1) draws via Marsaglia-Tsang rejection.

        Valid for any shape > 0; shapes below 1 use the boosting identity
        Gamma(a) = Gamma(a+1) * U^(1/a).  Returns a float when size is None,
        else an array of length ``size``.
        """
        if shape <= 0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        scalar = size is None
        n = 1 if scalar else int(size)
        if n == 0:
            return np.empty(0)
        boosted = shape < 1.0
        a = shape + 1.0 if boosted else float(shape)
        out = self._marsaglia_tsang(a, n)
        if boosted:
            u = 1.0 - self._gen.random(n)
            out = out * u ** (1.0 / shape)
        return float(out[0]) if scalar else out

    def _marsaglia_tsang(self, a: float, n: int) -> np.ndarray:
        # a >= 1. Acceptance rate is ~0.95+, so the refill loop is short.
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        filled = 0
        while filled < n:
            k = n - filled
            x = self._gen.standard_normal(k)
            v = (1.0 + c * x) ** 3
            u = 1.0 - self._gen.random(k)  # in (0, 1], log is finite
            pos = v > 0
            safe_v = np.where(pos, v, 1.0)
            accept = pos & (
                np.log(u) < 0.5 * x * x + d * (1.0 - safe_v + np.log(safe_v))
            )
            got = d * v[accept]
            out[filled : filled + got.size] = got
            filled += got.size
        return out

