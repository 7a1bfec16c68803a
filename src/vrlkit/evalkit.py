"""Evaluation metrics and analyses: AUROC for OOD detection, ECE/AdaECE,
temperature scaling, the Fisher cluster criterion, and entropy profiles over
pairwise interpolation paths.

AUROC is the Mann-Whitney U with half-weight ties, which is exactly the area
under the ROC curve, computed by counting: each OOD score counts the
in-distribution scores below it and half of those equal to it.  The
equal-mass bins of AdaECE are counted too: a sample's bin is the number of
bin cuts whose confidence lies below its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .datagen import Dataset
from .tensor import RngState, as_matrix, atomic_open
from .uncertainty import UncertaintyScores, entropy_of


def auroc(in_scores: UncertaintyScores, out_scores: UncertaintyScores) -> float:
    """P(random OOD sample scores above a random in-distribution one), ties half."""
    if in_scores.measure != out_scores.measure:
        raise ValueError(
            f"measure mismatch: {in_scores.measure} vs {out_scores.measure}"
        )
    n_in, n_out = len(in_scores), len(out_scores)
    if n_in == 0 or n_out == 0:
        raise ValueError("both score sets must be non-empty")
    if np.isnan(in_scores.values).any() or np.isnan(out_scores.values).any():
        raise ValueError("scores must not be NaN")
    in_sorted = np.sort(in_scores.values)
    # U = sum over OOD scores of #in below + #in at or below, halved: exact
    below = np.searchsorted(in_sorted, out_scores.values, side="left").sum()
    at_or_below = np.searchsorted(in_sorted, out_scores.values, side="right").sum()
    return float(0.5 * (below + at_or_below) / (n_in * n_out))


@dataclass(frozen=True)
class BinningSpec:
    mode: str = "equal_width"  # equal_width | equal_mass
    n_bins: int = 15

    def __post_init__(self):
        if self.mode not in ("equal_width", "equal_mass"):
            raise ValueError(f"unknown binning mode {self.mode!r}")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")


def _checked(scores, labels, spec: BinningSpec, what: str):
    """Validate a (n, k) score matrix and its n labels before any binning."""
    s = as_matrix(scores)
    labels = np.asarray(labels)
    n = s.shape[0]
    if n == 0:
        raise ValueError(f"{what} have no rows")
    if labels.shape != (n,):
        raise ValueError(f"{labels.size} labels for {n} rows of {what}")
    if not np.isfinite(s).all():
        raise ValueError(f"{what} must be finite")
    if spec.mode == "equal_mass" and spec.n_bins > n:
        raise ValueError("equal_mass binning needs n_bins <= n_samples")
    return s, labels


def _confidence_correct(probs, labels, spec: BinningSpec):
    p, labels = _checked(probs, labels, spec, "probabilities")
    return p.max(axis=1), p.argmax(axis=1) == labels


def _bin_cells(conf, correct, spec: BinningSpec):
    """The (row, bin) cell of every sample, with its confidence and correctness.

    `conf` is (m, n): m confidence vectors over the same n samples, whose
    boolean correctness is `correct` (n,); a 1-D `conf` is one row.  Returns
    three (m, n) arrays in matching order: the cell index row * n_bins + bin,
    the confidence and the correctness.  Equal width puts c in bin
    min(floor(c * n_bins), n_bins - 1).  Equal mass sorts each row stably and
    cuts it after the sorted confidence c_i at position round(i * n / n_bins) - 1,
    for i = 1 .. n_bins - 1; a sample's bin is the number of c_i below its
    confidence, so a run of tied confidences stays whole in the left bin.
    """
    conf = np.atleast_2d(conf)
    m, n = conf.shape
    n_bins = spec.n_bins
    if spec.mode == "equal_width":
        idx = np.minimum((conf * n_bins).astype(np.intp), n_bins - 1)
        correct = np.broadcast_to(correct, conf.shape)
    else:
        order = np.argsort(conf, axis=1, kind="stable")
        conf = np.take_along_axis(conf, order, axis=1)
        correct = correct[order]
        left = conf[:, [round(i * n / n_bins) - 1 for i in range(1, n_bins)]]
        idx = np.stack([np.searchsorted(lo, row) for lo, row in zip(left, conf)])
    return idx + n_bins * np.arange(m)[:, None], conf, correct


def _binned_ece(conf, correct, spec: BinningSpec) -> np.ndarray:
    """ECE of each row of `conf`: sum over bins of |sum correct - sum conf| / n."""
    cells, conf, correct = _bin_cells(conf, correct, spec)
    m, n = conf.shape
    size = m * spec.n_bins
    # a bin's correct-sum is a count, so the unweighted bincount is exact
    gap = np.bincount(cells[correct], minlength=size) - np.bincount(
        cells.ravel(), conf.ravel(), minlength=size
    )
    return np.abs(gap.reshape(m, spec.n_bins)).sum(axis=1) / n


def ece(probs, labels, spec: BinningSpec = BinningSpec()) -> float:
    """Expected calibration error over equal-width confidence bins."""
    if spec.mode != "equal_width":
        raise ValueError("ece requires an equal_width BinningSpec")
    conf, correct = _confidence_correct(probs, labels, spec)
    return float(_binned_ece(conf, correct, spec)[0])


def adaece(probs, labels, spec: BinningSpec = BinningSpec("equal_mass")) -> float:
    """Adaptive ECE over equal-mass bins of sorted confidence."""
    if spec.mode != "equal_mass":
        raise ValueError("adaece requires an equal_mass BinningSpec")
    conf, correct = _confidence_correct(probs, labels, spec)
    return float(_binned_ece(conf, correct, spec)[0])


@dataclass(frozen=True)
class Temperature:
    T: float

    def __post_init__(self):
        if not 0.1 <= self.T <= 10.0:
            raise ValueError("temperature must lie in [0.1, 10]")


TEMPERATURE_GRID = np.arange(100, 10001) / 1000.0  # 0.100 .. 10.000 step 0.001

# fit_temperature sizes its temperature chunk so that the (k, chunk, n)
# buffer holds about this many doubles.
_TEMPERATURE_CHUNK_FLOATS = 65536

# fit_temperature skips a chunk whose ECE lower bound exceeds the best ECE by
# more than this: room for the rounding of the mean confidence and of the bin
# sums, and for an exp that is not monotone at the last ulp.
_PRUNE_MARGIN = 1e-9


def apply_temperature(logits, temp: Temperature) -> np.ndarray:
    return nn.softmax(as_matrix(logits) / temp.T)


def _max_confidence(shifted: np.ndarray, ts: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The (ts.size, n) max-softmax confidences 1 / sum_c exp(D_c / T), in buf.

    `shifted` is the class-major (k, 1, n) D; the k planes of buf[:, :ts.size]
    are overwritten and the result is a view of the first.
    """
    planes = buf[:, : ts.size]
    np.divide(shifted, ts[:, None], out=planes)
    np.exp(planes, out=planes)
    conf = nn._class_sum(planes)
    np.divide(1.0, conf, out=conf)
    return conf


def fit_temperature(
    logits_val, labels_val, spec: BinningSpec = BinningSpec()
) -> Temperature:
    """Grid-search the softmax temperature minimizing validation ECE.

    The grid runs 0.100..10.000 in steps of 0.001; ties go to the smaller T.
    The grid is searched in chunks of temperatures, each binned in one pass.
    Scaling by a positive temperature never changes the argmax, so accuracy
    is untouched by construction.

    The max-softmax confidence at temperature T is 1 / sum_c exp(D_c / T),
    with D the logits minus their row maximum.  D is laid out class-major,
    so each chunk fills one (k, chunk, n) buffer and adds its class planes
    in order (`nn._class_sum`), as `softmax` does: for k < 8, bitwise the
    class-last (chunk, n, k) array summed over its last axis.

    Chunks that cannot hold the minimum are never binned.  Whatever the
    binning, ECE(T) >= |acc - mc(T)|, mc being the mean confidence, and as
    D <= 0 every confidence falls as T grows.  So no T of a chunk [Ta, Tb]
    has an ECE below max(0, mc(Tn) - acc, acc - mc(Ta)), Tn being the next
    chunk's first T (the last grid T for the last chunk), as mc(Tn) <=
    mc(Tb).  The search computes mc at every chunk start and at the last
    grid T, bins the chunks in increasing order of that bound, and stops at
    the first chunk whose bound exceeds the best ECE so far by more than
    `_PRUNE_MARGIN`.  A temperature's ECE does not depend on the chunk it is
    binned in, and the best (ECE, T) pair wins, so the returned T is the
    exhaustive scan's, bit for bit.
    """
    s, labels = _checked(logits_val, labels_val, spec, "logits")
    correct = s.argmax(axis=1) == labels
    n, k = s.shape
    shifted = np.ascontiguousarray((s - s.max(axis=1, keepdims=True)).T)[:, None, :]
    chunk = min(max(1, _TEMPERATURE_CHUNK_FLOATS // (n * k)), TEMPERATURE_GRID.size)
    buf = np.empty((k, chunk, n))
    starts = np.arange(0, TEMPERATURE_GRID.size, chunk)
    ends = np.append(TEMPERATURE_GRID[starts], TEMPERATURE_GRID[-1])
    mean_conf = np.concatenate([
        _max_confidence(shifted, ends[i : i + chunk], buf).mean(axis=1)
        for i in range(0, ends.size, chunk)
    ])
    acc = correct.mean()
    bound = np.maximum(np.maximum(mean_conf[1:] - acc, acc - mean_conf[:-1]), 0.0)
    best_ece, best_t = math.inf, math.inf
    for c in np.argsort(bound, kind="stable"):
        if bound[c] > best_ece + _PRUNE_MARGIN:
            break
        ts = TEMPERATURE_GRID[starts[c] : starts[c] + chunk]
        errs = _binned_ece(_max_confidence(shifted, ts, buf), correct, spec)
        i = int(np.argmin(errs))  # the first minimum: the smallest T
        if (errs[i], ts[i]) < (best_ece, best_t):
            best_ece, best_t = errs[i], ts[i]
    return Temperature(float(best_t))


def fisher_criterion(features, labels, epsilon: float = 0.0) -> float:
    """trace((S_W + eps I)^-1 S_B): cluster separation over compactness.

    S_W sums per-class scatter matrices; S_B weights squared class-mean
    offsets from the global mean by class size.  Larger is better.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    phi = as_matrix(features)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("fisher criterion needs >= 2 classes")
    d = phi.shape[1]
    mu = phi.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        members = phi[labels == c]
        if members.shape[0] < 2:
            raise ValueError(f"class {c} needs >= 2 samples")
        mu_c = members.mean(axis=0)
        centered = members - mu_c
        s_w += centered.T @ centered
        offset = mu_c - mu
        s_b += members.shape[0] * np.outer(offset, offset)
    return float(np.trace(np.linalg.solve(s_w + epsilon * np.eye(d), s_b)))


@dataclass
class EntropyProfile:
    """Predictive entropies along interpolation paths between class pairs."""

    lambda_grid: np.ndarray   # (L,) equally spaced in [0, 1]
    entropies: np.ndarray     # (n_pairs, L)
    histogram: np.ndarray     # (L, h_bins) counts over (lambda, H) cells
    h_edges: np.ndarray       # (h_bins + 1,) entropy bin edges


def entropy_profile(
    net: nn.Network,
    ds: Dataset,
    n_pairs: int = 1000,
    rng: RngState | None = None,
    lambda_points: int = 20,
    h_bins: int = 30,
) -> EntropyProfile:
    """Interpolate random different-label pairs and record entropy vs lambda.

    Pairs are drawn with replacement and redrawn until their labels differ;
    each pair is evaluated at `lambda_points` equally spaced mixing factors,
    with x_bar = lambda * x_i + (1 - lambda) * x_j.

    The first layer is affine and the two weights sum to 1, so x_bar's
    first-layer pre-activation is lambda * z_i + (1 - lambda) * z_j, with
    z = x @ W_0 + b_0.  Each distinct endpoint row is forwarded once, and each
    lambda interpolates the (n_pairs, width) pre-activations and runs only the
    layers after the first, never building an interpolated input batch.
    """
    if rng is None:
        raise ValueError("entropy profile needs an RngState to draw its pairs")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if np.unique(ds.labels).size < 2:
        raise ValueError("entropy profile needs at least two classes")
    i_idx = np.asarray(rng.integers(0, ds.n, size=n_pairs))
    j_idx = np.asarray(rng.integers(0, ds.n, size=n_pairs))
    while True:
        same = ds.labels[i_idx] == ds.labels[j_idx]
        if not same.any():
            break
        j_idx[same] = rng.integers(0, ds.n, size=int(same.sum()))
    grid = np.linspace(0.0, 1.0, lambda_points)
    # one forward of the distinct endpoint rows; keep only layer 0's pre-activation
    rows, inverse = np.unique(np.concatenate([i_idx, j_idx]), return_inverse=True)
    z = nn.forward(net, ds.x[rows])[2].pre[0]
    zi, zj = z[inverse[:n_pairs]], z[inverse[n_pairs:]]
    entropies = np.empty((n_pairs, lambda_points))
    zbar = np.empty_like(zi)  # reused: a fresh array per lambda costs page faults
    for li, lam in enumerate(grid):
        np.multiply(zi, lam, out=zbar)
        zbar += (1.0 - lam) * zj
        _, act = nn._forward_from_first_pre(net, zbar)
        entropies[:, li] = entropy_of(nn.softmax(act[-1]))
    h_max = math.log(ds.k)
    h_edges = np.linspace(0.0, h_max, h_bins + 1)
    cell = np.clip(np.searchsorted(h_edges, entropies, side="right") - 1, 0, h_bins - 1)
    hist = np.bincount(
        (cell + h_bins * np.arange(lambda_points)).ravel(),
        minlength=lambda_points * h_bins,
    ).reshape(lambda_points, h_bins)
    return EntropyProfile(grid, entropies, hist, h_edges)


def barrier_statistic(profile: EntropyProfile) -> float:
    """Mean entropy at mid-path lambdas over mean entropy at the endpoints."""
    lam = profile.lambda_grid
    mid = (lam >= 0.4) & (lam <= 0.6)
    ends = (lam <= 0.05) | (lam >= 0.95)
    if profile.entropies.size == 0 or not mid.any() or not ends.any():
        raise ValueError("profile too coarse for the barrier statistic")
    numerator = profile.entropies[:, mid].mean()
    denominator = max(profile.entropies[:, ends].mean(), nn.EPS_LOG)
    return float(numerator / denominator)


def _svg_color(frac: float) -> str:
    # white -> deep blue ramp
    r = int(round(255 * (1.0 - 0.95 * frac)))
    g = int(round(255 * (1.0 - 0.80 * frac)))
    b = int(round(255 * (1.0 - 0.35 * frac)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg(width, height, shapes, x_label, x_label_y, y_label, path) -> str:
    """A standalone SVG: white ground, the shapes, and two axis labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *shapes,
        f'<text x="{width // 2}" y="{x_label_y}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="12" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {height // 2})">{y_label}</text>',
        "</svg>",
    ]
    svg = "\n".join(parts) + "\n"
    if path is not None:
        with atomic_open(path, "w", encoding="ascii") as f:
            f.write(svg)
    return svg


def heatmap_svg(profile: EntropyProfile, path=None) -> str:
    """Render the (lambda, entropy) count histogram as a standalone SVG."""
    margin, cell_w, cell_h = 40, 18, 9
    n_lam, n_h = profile.histogram.shape
    width = margin * 2 + n_lam * cell_w
    height = margin * 2 + n_h * cell_h
    peak = max(int(profile.histogram.max()), 1)
    cells = [
        f'<rect x="{margin + li * cell_w}" y="{margin + (n_h - 1 - hi) * cell_h}" '
        f'width="{cell_w}" height="{cell_h}" '
        f'fill="{_svg_color(int(profile.histogram[li, hi]) / peak)}"/>'
        for li in range(n_lam)
        for hi in range(n_h)
    ]
    return _svg(
        width, height, cells, "interpolation factor", height - 8, "predictive entropy", path
    )


def reliability_svg(probs, labels, spec: BinningSpec = BinningSpec(), path=None) -> str:
    """Reliability diagram: per-bin accuracy bars against the diagonal.

    Bars sit on a confidence axis, so only equal-width bins are drawn.
    """
    if spec.mode != "equal_width":
        raise ValueError(f"reliability_svg draws equal_width bins, not {spec.mode!r}")
    conf, correct = _confidence_correct(probs, labels, spec)
    cells, _, correct = _bin_cells(conf, correct, spec)
    count = np.bincount(cells.ravel(), minlength=spec.n_bins)
    correct_sum = np.bincount(cells[correct], minlength=spec.n_bins)
    size = 320
    margin = 40
    plot = size - 2 * margin
    shapes = [
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{margin}" stroke="#999" stroke-dasharray="4 3"/>'
    ]
    bar_w = plot / spec.n_bins
    for b in np.flatnonzero(count):
        bar_h = float(correct_sum[b] / count[b]) * plot
        shapes.append(
            f'<rect x="{margin + b * bar_w:.2f}" y="{size - margin - bar_h:.2f}" '
            f'width="{bar_w:.2f}" height="{bar_h:.2f}" fill="#4477aa" '
            f'stroke="white"/>'
        )
    return _svg(size, size, shapes, "confidence", size - 10, "accuracy", path)
