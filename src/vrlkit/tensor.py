"""Dense float64 matrix helpers, a splittable counter-based RNG, atomic writes.

Everything downstream works on plain 2-D numpy arrays (row-major, float64).
Randomness always flows through an explicit RngState so that a run is fully
reproducible from its seed, independent of iteration order: each consumer
derives its own stream with ``split``.  Every artifact is written through
``atomic_open``, so a failed write never leaves a half-written file.
"""

import contextlib
import hashlib
import os
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


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open() a temp file beside path; replace path with it only on success.

    If the body raises, the temp file is removed and path keeps its old bytes.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
        """Gamma(shape, 1) draws from numpy's ``Generator.gamma``.

        Returns a float when size is None, else an array of length ``size``.
        """
        if shape <= 0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        return self._gen.gamma(shape, size=size)

    def beta(self, a: float, size=None):
        """Symmetric Beta(a, a) draws from numpy's ``Generator.beta``.

        Returns a float when size is None, else an array of length ``size``.
        """
        if a <= 0:
            raise ValueError(f"beta parameter must be > 0, got {a}")
        return self._gen.beta(a, a, size=size)
