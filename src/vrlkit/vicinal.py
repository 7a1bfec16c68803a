"""Vicinal-distribution machinery: Beta interpolation factors, Mixup and
CutMix batch construction, and the regularized two-term loss.

The mixing weight lambda is drawn from a symmetric Beta(alpha, alpha).  A
batch's rows are paired by sorting them on random keys, each with the next
one, cyclically, so pair(i) != i without rejection.

Only _draw_plan draws pairings, lambdas and boxes: a whole epoch for each of
a lockstep group's mixing runs, or one step for a single mixup_batch or
cutmix_batch call given an RngState.  _mix_step builds a group's mixed rows
with one such call per stretch of neighbouring runs that share an op, into
the tail of the step's rows.
"""

import math
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
    """n Beta(alpha, alpha) draws, in one RngState.beta call."""
    return rng.beta(params.alpha, size=n)


@dataclass
class MixedBatch:
    x_mixed: np.ndarray
    y_mixed: np.ndarray
    lambda_used: float | np.ndarray | None = None  # set by mixup_batch and cutmix_batch
    pairing: np.ndarray | None = None  # pairing[i] != i for all i


def _batch(x, y_onehot, lam, rng, what: str):
    """The rows as matrices and lam checked, before anything is drawn."""
    x, y = as_matrix(x), as_matrix(y_onehot)
    if x.shape[0] < 2:
        raise ValueError(f"{what} needs a batch of at least 2")
    if y.shape[0] != x.shape[0]:
        raise ValueError("x and y_onehot row counts differ")
    if lam is not None:
        lam = np.asarray(lam, dtype=np.float64)
        if not (lam.min() >= 0 and lam.max() <= 1):  # NaN fails too
            raise ValueError(f"{what} lam must lie in [0, 1]")
    if rng is None:
        raise ValueError(f"{what} needs an RngState to draw its pairing and lambda")
    return x, y, lam


def _convex(a, lam_col, rest_col, pairing, out):
    """lam * a + (1 - lam) * a[pairing], written into out (or a fresh array),
    given rest_col = 1 - lam_col."""
    out = np.multiply(lam_col, a, out=out)
    partner = np.take(a, pairing, axis=0)
    partner *= rest_col
    out += partner
    return out


def mixup_batch(
    x,
    y_onehot,
    params: BetaParams,
    lambda_mode: str = "per_batch",
    rng: RngState | None = None,
    lam: float | None = None,
    *,
    _pairing: np.ndarray | None = None,
    _out: tuple | None = None,
) -> MixedBatch:
    """Convex combination of each sample with a random in-batch partner.

    lambda_mode "per_batch" draws a single lambda for the whole batch;
    "per_pair" draws one per pair, both as a plan of one step (_draw_plan).
    `lam` forces a fixed value in [0, 1] (test hook), or gives one per row.

    ``_pairing`` with a ``lam`` is a drawn plan: nothing is drawn, and a
    partner may be any row of x, so a lockstep group's block of runs mixes
    in one call with run-offset partner indices.  Nothing is checked either:
    x and y_onehot are float64 matrices and lam an array of values in
    [0, 1], one or one per row, as vicinal._draw_plan gives them (from
    sample_lambdas, or a force_lambda that TrainConfig checked).  ``_out`` =
    (x_out, y_out) receives the mixed rows.
    """
    if _pairing is None or lam is None:
        if lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
        x, y_onehot, lam = _batch(x, y_onehot, lam, rng, "mixup")
        scalar = lam.ndim == 0 if lam is not None else lambda_mode == "per_batch"
        plan = _draw_plan([(("mixup",), params, lambda_mode, lam, rng, None)], [x.shape[0]], None)
        _pairing, lam = plan.pairing, plan.lam
    else:
        scalar = lam.ndim == 0
    lam_col = lam[:, None] if lam.ndim else lam
    rest_col = 1.0 - lam_col  # shared by the x and the y mix
    x_out, y_out = (None, None) if _out is None else _out
    x_mixed = _convex(x, lam_col, rest_col, _pairing, x_out)
    y_mixed = _convex(y_onehot, lam_col, rest_col, _pairing, y_out)
    return MixedBatch(x_mixed, y_mixed, float(lam.flat[0]) if scalar else lam, _pairing)


def cutmix_batch(
    x_img,
    y_onehot,
    params: BetaParams,
    rng: RngState | None,
    image_shape: tuple,
    lam: float | None = None,
    *,
    _pairing: np.ndarray | None = None,
    _boxes: np.ndarray | None = None,
    _out: tuple | None = None,
) -> MixedBatch:
    """Paste one rectangular patch from each sample's partner image.

    A single lambda and box are drawn per batch, as a plan of one step
    (_draw_plan); box side lengths are H*sqrt(1-lambda) x W*sqrt(1-lambda)
    (rounded to pixels, kept inside the image), and the soft target uses the
    effective lambda recomputed from the realized patch area.

    ``_pairing`` with ``_boxes`` is a drawn plan: nothing is drawn, x is one
    block of rows per box (y0, y1, x0, x1), pasted into that block only, and
    a partner may be any row of x.  Nothing is checked either: x and
    y_onehot are float64 matrices of image_shape rows, as the trainer gives
    them.  ``_out`` = (x_out, y_out) receives the mixed rows.
    """
    x, y = x_img, y_onehot
    if _pairing is None or _boxes is None:
        x, y, lam = _batch(x, y, lam, rng, "cutmix")
        if image_shape is None:
            raise ValueError("cutmix requires (H, W, C) image shape metadata")
        if math.prod(image_shape) != x.shape[1]:
            raise ValueError(f"rows of length {x.shape[1]} do not match image shape {image_shape}")
        plan = _draw_plan([(("cutmix",), params, "per_batch", lam, rng, None)], [len(x)], image_shape)
        _pairing, _boxes = plan.pairing, plan.boxes[0]
    n, (h, w, c) = x.shape[0], image_shape
    x_out, y_out = (np.empty_like(x), None) if _out is None else _out
    np.copyto(x_out, x)
    imgs, src, rows = x_out.reshape(n, c, h, w), x.reshape(n, c, h, w), n // len(_boxes)
    for r, (y0, y1, x0, x1) in enumerate(_boxes.tolist()):
        if y1 > y0 and x1 > x0:
            block = slice(r * rows, (r + 1) * rows)
            imgs[block, :, y0:y1, x0:x1] = src[_pairing[block], :, y0:y1, x0:x1]
    lam_eff = 1.0 - (_boxes[:, 1] - _boxes[:, 0]) * (_boxes[:, 3] - _boxes[:, 2]) / (h * w)
    lam_col = np.repeat(lam_eff, rows)[:, None]
    y_mixed = _convex(y, lam_col, 1.0 - lam_col, _pairing, y_out)
    return MixedBatch(x_out, y_mixed, float(lam_eff[0]) if len(_boxes) == 1 else lam_eff, _pairing)


@dataclass
class _Plan:
    """One epoch's mixing for the mixing runs of a lockstep group.

    cut[r, s] says whether run r mixes step s by CutMix (else by Mixup), and
    boxes[r, s] is its CutMix box (y0, y1, x0, x1).  pairing and lam hold
    one entry per row of the epoch's steps in the trainer's row order: step
    by step, one block of rows per run.  A row's pairing is its partner's
    index in its step's rows, and its lam is its Mixup lambda.
    """

    cut: np.ndarray
    boxes: np.ndarray
    pairing: np.ndarray
    lam: np.ndarray
    image_shape: tuple | None


# Bits of each pairing sort key below the step index, which leaves room for
# 2**23 steps in an int64.
_KEY_BITS = 40


def _draw_plan(runs, sizes, image_shape) -> _Plan:
    """The plan of one epoch whose steps have the given row counts, for the
    runs given as (ops, params, lambda_mode, lam, mix_rng, coin_rng).

    A run draws its whole epoch in vectorised calls from its own streams.
    With two ops, one coin per step from coin_rng picks Mixup when < 0.5.
    From mix_rng, in order:
    - one random sort key per row: a step's rows in key order, each paired
      with the next one, cyclically, so pair(i) != i;
    - one Beta lambda per step, for per_batch Mixup or for CutMix;
    - one per row, for per_pair Mixup (a forced lam, one value or one per
      row, replaces both; CutMix takes a step's from its first row);
    - with CutMix, the top and then the left corner of every step's box.
    """
    sizes = np.asarray(sizes)
    steps, n = len(sizes), int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    step_of = np.repeat(np.arange(steps), sizes)
    start_of = starts[step_of]
    # where run r's row i sits in the plan's row order: step, run, row
    run_offsets = np.arange(len(runs))[:, None] * sizes[step_of]
    slots = (len(runs) - 1) * start_of + np.arange(n) + run_offsets
    cut, boxes = np.zeros((len(runs), steps), bool), np.zeros((len(runs), steps, 4), np.int64)
    partner, lams = np.empty((len(runs), n), np.int64), np.empty((len(runs), n))
    for r, (ops, params, lambda_mode, lam, mix_rng, coin_rng) in enumerate(runs):
        cut[r] = coin_rng.uniform(steps) >= 0.5 if len(ops) > 1 else ops == ("cutmix",)
        keys = (step_of << _KEY_BITS) | mix_rng.integers(0, 1 << _KEY_BITS, size=n)
        order = np.argsort(keys, kind="stable")
        following = np.roll(order, -1)
        following[starts + sizes - 1] = order[starts]
        partner[r, order] = following - start_of
        per_row = lambda_mode == "per_pair" and "mixup" in ops
        if lam is not None:
            lams[r] = lam
        elif "cutmix" in ops or not per_row:
            lams[r] = np.repeat(sample_lambdas(params, steps, mix_rng), sizes)
        lam_step = lams[r, starts]  # unset, and unused, for per_pair Mixup alone
        if lam is None and per_row:
            lams[r] = sample_lambdas(params, n, mix_rng)
        if "cutmix" in ops:
            h, w, _ = image_shape
            ratio = np.sqrt(1.0 - lam_step)  # box sides rounded to pixels
            patch_h = np.round(h * ratio).astype(np.int64)
            patch_w = np.round(w * ratio).astype(np.int64)
            y0 = mix_rng.integers(0, h - patch_h + 1)
            x0 = mix_rng.integers(0, w - patch_w + 1)
            boxes[r] = np.stack([y0, np.minimum(y0 + patch_h, h), x0, np.minimum(x0 + patch_w, w)], 1)
    pairing, lam = np.empty(partner.size, np.int64), np.empty(lams.size)
    pairing[slots], lam[slots] = partner + run_offsets, lams
    return _Plan(cut, boxes, pairing, lam, image_shape)


def _mix_step(plan: _Plan, b: int, lo: int, hi: int, x, y):
    """Write the mixed rows of step b, rows [lo, hi) of each run's epoch,
    into the tail of x and y.

    x and y are a step's rows: one block per run of the group, the m mixing
    runs first, then m blocks for the mixed rows.  Each stretch of
    neighbouring runs that use the same op in plan.cut[:, b] mixes in one
    mixup_batch or cutmix_batch call, in place on its rows of x and y.
    """
    rows, runs = hi - lo, len(plan.cut)
    step = slice(runs * lo, runs * hi)
    pairing, lam = plan.pairing[step], plan.lam[step]
    out = x[len(x) - runs * rows:], y[len(y) - runs * rows:]
    by_cut, first = plan.cut[:, b].tolist(), 0
    for last in range(1, runs + 1):
        if last < runs and by_cut[last] == by_cut[first]:
            continue
        block = slice(first * rows, last * rows)
        partners, to = pairing[block] - first * rows, (out[0][block], out[1][block])
        if by_cut[first]:
            cutmix_batch(x[block], y[block], None, None, plan.image_shape,
                         _pairing=partners, _boxes=plan.boxes[first:last, b], _out=to)
        else:
            mixup_batch(x[block], y[block], None, lam=lam[block], _pairing=partners, _out=to)
        first = last


def regmix_loss(
    net, x, y_onehot, mixed: MixedBatch | None, eta, *, _plan: nn._StepPlan | None = None,
) -> tuple[float, nn.GradientSet]:
    """Two-term objective: clean-batch CE plus eta times mixed-batch CE.

    One nn._two_term_ce call over every run (a stacked network takes its
    rows one block per run, run-major, and eta one value per run or one for
    all), with the clean term alone when mixed is None.  A lockstep group's
    step passes its ``_plan`` (nn._StepPlan) and mixed None: x and y_onehot
    hold the clean rows of the runs [c, R), then the mixed rows of the runs
    [0, m), with (c, m) and eta the plan's.

    Without ``_plan`` eta (finite, >= 0) and the targets (>= 0) are checked
    here.  With it they are the trainer's: each eta from a TrainConfig, which
    checks it, and targets that are one-hot rows of checked labels or convex
    mixes of them, so a step scans neither.
    """
    if _plan is not None:
        return nn._two_term_ce(net, x, y_onehot, _plan.c, _plan.m, eta, _plan=_plan)
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ValueError("eta must be finite and >= 0")
    m = 0
    if mixed is not None:  # every run, a plain network being one
        if len(mixed.x_mixed) != len(x):
            raise nn.ShapeError(f"{len(mixed.x_mixed)} mixed rows vs {len(x)} clean rows")
        x, y_onehot = np.concatenate([x, mixed.x_mixed]), np.concatenate([y_onehot, mixed.y_mixed])
        m = math.prod(net.weights[0].shape[:-2])
    y_onehot = as_matrix(y_onehot)
    nn._check_targets(y_onehot)
    return nn._two_term_ce(net, x, y_onehot, 0, m, eta)
