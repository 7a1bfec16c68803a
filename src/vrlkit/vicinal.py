"""Vicinal-distribution machinery: Beta interpolation factors, Mixup and
CutMix batch construction, and the regularized two-term loss.

The mixing weight lambda is drawn from a symmetric Beta(alpha, alpha) built
from two Gamma variates.  Pairing inside a batch is a random cyclic shift of
a shuffled index list, which guarantees pair(i) != i without rejection.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .tensor import RngState, as_matrix

LAMBDA_MODES = ("per_batch", "per_pair")


@dataclass(frozen=True)
class BetaParams:
    """Symmetric Beta(alpha, alpha) over [0, 1]."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be finite and > 0")


def sample_lambdas(params: BetaParams, n: int, rng: RngState) -> np.ndarray:
    """n Beta(alpha, alpha) draws (vectorized two-Gamma construction)."""
    g1 = rng.gamma(params.alpha, size=n)
    g2 = rng.gamma(params.alpha, size=n)
    return g1 / (g1 + g2)


@dataclass
class MixedBatch:
    x_mixed: np.ndarray
    y_mixed: np.ndarray
    lambda_used: float | np.ndarray | list
    pairing: np.ndarray | list  # pairing[i] != i for all i


def stack_batches(batches: list) -> MixedBatch:
    """Several runs' batches as one row block per run, run-major, for a
    stacked network; lambda_used and pairing become one entry per run.
    A single batch is its own block and comes back as it is."""
    if len(batches) == 1:
        return batches[0]
    return MixedBatch(
        np.concatenate([m.x_mixed for m in batches]),
        np.concatenate([m.y_mixed for m in batches]),
        [m.lambda_used for m in batches],
        [m.pairing for m in batches],
    )


def sample_pairing(n: int, rng: RngState) -> np.ndarray:
    """Random in-batch partner assignment with no fixed points (n >= 2)."""
    perm = rng.permutation(n)
    pairing = np.empty(n, dtype=np.int64)
    pairing[perm] = np.concatenate((perm[1:], perm[:1]))
    return pairing


def mixup_batch(
    x,
    y_onehot,
    params: BetaParams,
    lambda_mode: str = "per_batch",
    rng: RngState | None = None,
    lam: float | None = None,
) -> MixedBatch:
    """Convex combination of each sample with a random in-batch partner.

    lambda_mode "per_batch" draws a single lambda for the whole batch;
    "per_pair" draws one per pair.  `lam` forces a fixed value (test hook).
    """
    x = as_matrix(x)
    y = as_matrix(y_onehot)
    n = x.shape[0]
    if n < 2:
        raise ValueError("mixup needs a batch of at least 2")
    if y.shape[0] != n:
        raise ValueError("x and y_onehot row counts differ")
    if lambda_mode not in LAMBDA_MODES:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    pairing = sample_pairing(n, rng)
    if lam is not None:
        lam_used = float(lam)
        lam_col = lam_used
    elif lambda_mode == "per_batch":
        lam_used = float(sample_lambdas(params, 1, rng)[0])
        lam_col = lam_used
    else:
        lam_used = sample_lambdas(params, n, rng)
        lam_col = lam_used[:, None]
    x_mixed = lam_col * x + (1.0 - lam_col) * x[pairing]
    y_mixed = lam_col * y + (1.0 - lam_col) * y[pairing]
    return MixedBatch(x_mixed, y_mixed, lam_used, pairing)


def cutmix_batch(
    x_img,
    y_onehot,
    params: BetaParams,
    rng: RngState,
    image_shape: tuple,
    lam: float | None = None,
) -> MixedBatch:
    """Paste one rectangular patch from each sample's partner image.

    A single lambda and box are drawn per batch; box side lengths are
    H*sqrt(1-lambda) x W*sqrt(1-lambda) (rounded to pixels, kept inside the
    image), and the soft target uses the effective lambda recomputed from the
    realized patch area.
    """
    x = as_matrix(x_img)
    y = as_matrix(y_onehot)
    n = x.shape[0]
    if n < 2:
        raise ValueError("cutmix needs a batch of at least 2")
    if image_shape is None:
        raise ValueError("cutmix requires (H, W, C) image shape metadata")
    h, w, c = image_shape
    if h * w * c != x.shape[1]:
        raise ValueError(
            f"rows of length {x.shape[1]} do not match image shape {image_shape}"
        )
    pairing = sample_pairing(n, rng)
    lam_drawn = float(lam if lam is not None else sample_lambdas(params, 1, rng)[0])
    ratio = np.sqrt(max(0.0, 1.0 - lam_drawn))
    patch_h = int(round(h * ratio))
    patch_w = int(round(w * ratio))
    # Top-left corner uniform over positions keeping the box inside, then a
    # defensive clip at the borders.
    y0 = int(rng.integers(0, h - patch_h + 1)) if patch_h < h else 0
    x0 = int(rng.integers(0, w - patch_w + 1)) if patch_w < w else 0
    y1 = min(y0 + patch_h, h)
    x1 = min(x0 + patch_w, w)
    area = (y1 - y0) * (x1 - x0)
    lam_eff = 1.0 - area / (h * w)
    imgs = x.reshape(n, c, h, w).copy()
    if area > 0:
        partner = x[pairing].reshape(n, c, h, w)
        imgs[:, :, y0:y1, x0:x1] = partner[:, :, y0:y1, x0:x1]
    y_mixed = lam_eff * y + (1.0 - lam_eff) * y[pairing]
    return MixedBatch(imgs.reshape(n, -1), y_mixed, lam_eff, pairing)


def regmix_loss(
    net, x, y_onehot, mixed: MixedBatch | None, eta, *,
    _buffers: nn.StepBuffers | None = None, _runs: tuple | None = None,
) -> tuple[float, nn.GradientSet]:
    """Two-term objective: clean-batch CE plus eta times mixed-batch CE.

    The weighted-term list [(x, y, 1), (x_mixed, y_mixed, eta)] for
    nn.weighted_ce: one forward/backward per term, gradients g_c + eta * g_m.
    For a stacked network (rows and ``stack_batches`` blocks run-major) eta
    may be one value per run.

    ``_runs`` = (c, m) is a lockstep group's step on its stacked network:
    the mixed rows are those of the runs [0, m), with one eta per run (1 for
    a mixed-only run), and the clean rows x those of the runs [c, R), c <= m
    (nn._two_term_ce).  mixed is None when m = 0.
    ``_buffers`` is the training step's (nn.StepBuffers).
    """
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ValueError("eta must be finite and >= 0")
    mixed_term = None if mixed is None else (mixed.x_mixed, mixed.y_mixed, eta)
    if _runs is None:
        return nn.weighted_ce(net, [(x, y_onehot, 1), mixed_term], _buffers=_buffers)
    return nn._two_term_ce(net, mixed_term, (x, y_onehot, 1), *_runs, _buffers=_buffers)
