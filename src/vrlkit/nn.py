"""Multilayer-perceptron classifier with exact backprop and Nesterov SGD.

Networks are plain stacks of dense layers; the final layer always emits raw
logits (identity activation).  Losses use the soft-target cross-entropy form,
which is linear in the target and therefore covers one-hot, mixed, and
smoothed labels with a single code path.
"""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor import RngState, ShapeError, as_matrix, atomic_open

EPS_LOG = 1e-12  # floor inside log(); prevents -inf loss from saturated softmax

ACTIVATIONS = ("relu", "tanh", "identity")

_CHECKPOINT_MAGIC = b"VRLNET1 "


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "identity"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class Network:
    """Ordered dense layers; weights[l] is (in_dim, out_dim), biases[l] (out_dim,).

    A stacked network (``Network.stack``) holds several runs of one
    architecture on a leading run axis: weights[l] is (runs, in_dim, out_dim)
    and biases[l] (runs, out_dim).  forward, backward, weighted_ce and
    sgd_step treat every run at once with the same lines as a plain network.
    """

    def __init__(self, layers, rng: RngState | None = None):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )
        if layers[-1].activation != "identity":
            raise ValueError("last layer must have identity activation (logits)")
        self.layers = layers
        self.weights = []
        self.biases = []
        for spec in layers:
            self.weights.append(_init_weight(spec, rng))
            self.biases.append(np.zeros(spec.out_dim))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_dim

    def _with(self, weights, biases) -> "Network":
        other = Network.__new__(Network)
        other.layers = list(self.layers)
        other.weights = weights
        other.biases = biases
        return other

    @staticmethod
    def stack(nets, *, _new=np.empty) -> "Network":
        """One stacked network holding ``nets`` (one architecture) in order;
        its arrays tile one block _new(size), all weights and then all biases."""
        first = nets[0]
        if any(net.layers != first.layers for net in nets):
            raise ValueError("stacked networks must share an architecture")
        per_param = list(zip(*([*net.weights, *net.biases] for net in nets)))
        tiles = _tiles([(len(nets), *arrays[0].shape) for arrays in per_param], _new)
        for tile, arrays in zip(tiles, per_param):
            np.stack(arrays, out=tile)
        return first._with(tiles[:len(first.layers)], tiles[len(first.layers):])

    def unstack(self) -> list:
        """The runs of a stacked network as plain networks (copies)."""
        return [
            self._with([w[r].copy() for w in self.weights], [b[r].copy() for b in self.biases])
            for r in range(self.weights[0].shape[0])
        ]


def _tiles(shapes, new=np.empty) -> list:
    """Arrays of the given shapes, back to back in the 1-D block new(size)."""
    ends = np.cumsum([0, *map(math.prod, shapes)]).tolist()
    flat = new(ends[-1])
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


def _init_weight(spec: LayerSpec, rng: RngState | None) -> np.ndarray:
    if rng is None:
        return np.zeros((spec.in_dim, spec.out_dim))
    # He-uniform for relu, Xavier-uniform otherwise.
    if spec.activation == "relu":
        limit = math.sqrt(6.0 / spec.in_dim)
    else:
        limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
    u = rng.uniform(spec.in_dim * spec.out_dim).reshape(spec.in_dim, spec.out_dim)
    return (2.0 * u - 1.0) * limit


def _activate(name: str, z: np.ndarray, out=None) -> np.ndarray:
    """activation(z), into ``out`` if given."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray, out=None):
    """d activation / dz, given a = activation(z), into ``out`` if given.
    relu gives bools, which a product reads as 1.0 and 0.0."""
    if name == "relu":
        return np.greater(z, 0.0, out=out)
    if name == "tanh":
        g = np.multiply(a, a, out=out)
        return np.subtract(1.0, g, out=g)
    return 1.0


class _Layers(NamedTuple):
    """The arrays forward and backward write per layer; None is a fresh one."""

    pre: list
    act: list
    delta: list
    dact: list


def _fresh(n_layers: int) -> _Layers:
    nones = [None] * n_layers
    return _Layers(nones, nones, nones, nones)


class _StepPlan:
    """Every array of a two-term pass (_two_term_ce), laid out once.

    The trainer builds one per lockstep group and passes it as ``_plan`` to
    vicinal.regmix_loss, which hands it on to _two_term_ce, forward and
    backward, and to sgd_step; a library call of _two_term_ce builds one for
    its own nets and batch size.  It holds ``net``, the stacked network of
    ``nets``, and for (c, m) and eta: ``run_map``, forward's (lead,
    stretches) for the clean rows of the runs [c, R) and then the mixed rows
    of the runs [0, m); ``sums``, the gradient sums (weights, then biases);
    ``clean``, the clean stretch's gradients, the slices [c, R) of the sums
    or arrays of their own when c < m; ``outs``, backward's GradientSet per
    stretch; and ``scales``, eta and its view per gradient sum, or None when
    every eta is 1.  Per batch size in ``sizes`` it holds ``rows[size]``,
    the row views, and ``layers[size]``, the per-layer arrays.  Each role
    (the rows, the targets, and per layer the pre-activations, activations,
    deltas and activation gradients) is one array sized for the largest
    batch, and a smaller batch takes a prefix of it.  ``sgd`` is sgd_step's
    (params, gradient sums, velocities) triple of flat blocks.  A pass's
    arrays hold its values only until the next pass writes them.
    """

    def __init__(self, nets, c: int, m: int, eta, sizes):
        first, runs, n_layers = nets[0], len(nets), len(nets[0].layers)
        size = runs * sum(p.size for p in [*first.weights, *first.biases])
        params = np.empty(size)
        self.net = Network.stack(nets, _new=lambda n: params)
        self.c, self.m = c, m
        shapes = [p.shape for p in [*self.net.weights, *self.net.biases]]
        shapes += [(runs - c, *shape[1:]) for shape in shapes] * (c < m)
        grads = np.empty(sum(map(math.prod, shapes)))
        arrays = _tiles(shapes, lambda n: grads)
        # the mixed stretch writes the sums of [0, m), the clean one those of
        # [c, R), or arrays of its own when the two overlap
        self.sums = arrays[:2 * n_layers]
        self.clean = arrays[2 * n_layers:] or [g[c:] for g in self.sums]
        outs = [self.clean] * (c < runs) + [[g[:m] for g in self.sums]] * (m > 0)
        self.outs = [GradientSet(a[:n_layers], a[n_layers:]) for a in outs]
        run_list = [(lo, hi) for lo, hi in ((c, runs), (0, m)) if lo < hi]
        ends = np.cumsum([hi - lo for lo, hi in run_list]).tolist()
        self.run_map = (ends[-1],), tuple(
            (slice(e - hi + lo, e), slice(lo, hi)) for e, (lo, hi) in zip(ends, run_list))
        eta = np.asarray(eta, dtype=np.float64)
        self.scales = None
        if m and (eta != 1).any():
            self.scales = eta, [eta.reshape(eta.shape + (1,) * (g.ndim - eta.ndim))
                                for g in self.sums]
        self.sgd = params, grads[:size], np.zeros(size)
        sizes, blocks = sorted(set(sizes)), self.run_map[0][0]

        def prefixes(shape, dtype=np.float64) -> dict:
            """shape(rows) per batch size, as prefix views of one array."""
            flat = np.empty(math.prod(shape(sizes[-1])), dtype)
            return {rows: flat[:math.prod(shape(rows))].reshape(shape(rows)) for rows in sizes}

        # each run's gathered rows, then the mixed rows of the runs [0, m); a
        # step reads the clean rows of the runs [c, R) and the mixed ones
        x, y = (prefixes(lambda rows, w=w: ((runs + m) * rows, w))
                for w in (first.in_dim, first.n_classes))
        self.rows = {rows: (x[rows], y[rows], x[rows][:runs * rows].reshape(runs, rows, -1),
                            y[rows][:runs * rows].reshape(runs, rows, -1),
                            x[rows][c * rows:], y[rows][c * rows:]) for rows in sizes}
        per_layer = []  # (pre, act, delta, dact) per layer, each per batch size or None
        for spec in first.layers:
            def shape(rows, w=spec.out_dim):
                return blocks, rows, w
            active = spec.activation != "identity"
            dact_type = bool if spec.activation == "relu" else np.float64
            per_layer.append((prefixes(shape), prefixes(shape) if active else None,
                              prefixes(shape), prefixes(shape, dact_type) if active else None))
        self.layers = {rows: _Layers(*([a and a[rows] for a in role] for role in zip(*per_layer)))
                       for rows in sizes}


class ForwardCache:
    """Per-layer pre-activations and activations from one forward pass."""

    def __init__(self, net, x, pre, act, run_map):
        self.net = net
        self.x = x  # the input rows as passed, (rows, in_dim)
        self.pre = pre  # pre[l] = act[l-1] @ W[l] + b[l]
        self.act = act  # act[l] = activation(pre[l]); act[-1] = logits
        self.run_map = run_map  # (lead, stretches), as forward sets them out


_WHOLE = ((..., ...),)  # one stretch: every block of rows, on its own run


def _per_run(rows: np.ndarray, lead: tuple) -> np.ndarray:
    """View a (blocks * n, c) row block as (blocks, n, c) given lead = (blocks,):
    block v owns rows v*n .. (v+1)*n - 1.  lead = () keeps (n, c)."""
    if lead and rows.shape[0] % lead[0]:
        raise ShapeError(f"{rows.shape[0]} rows do not split into {lead[0]} runs")
    return rows.reshape(*lead, -1, rows.shape[1])


def forward(
    net: Network, x_batch, *, _plan: _StepPlan | None = None,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on a batch.

    Returns (logits, features, cache) where features are the penultimate
    activations (the inputs themselves for a single-layer net).  A stacked
    network takes one block of rows per run, stacked run-major, and returns
    logits and features as (runs, rows per run, width).  A two-term pass's
    ``_plan`` gives the arrays written and the run map: stretches of blocks,
    each for a range of runs in turn, so each matmul runs once per stretch,
    on views of the weights.  Without it every array is fresh.
    """
    x = as_matrix(x_batch)
    if x.shape[1] != net.in_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, network expects {net.in_dim}"
        )
    # without a plan, block r of a stacked network is run r
    run_map = (net.weights[0].shape[:-2], _WHOLE) if _plan is None else _plan.run_map
    lead, stretches = run_map
    h = _per_run(x, lead)
    arrays = _fresh(len(net.layers)) if _plan is None else _plan.layers[h.shape[-2]]
    pre, act = _forward_from_first_pre(net, _dense(net, 0, h, stretches, arrays.pre[0]),
                                       stretches, arrays)
    logits = act[-1]
    features = act[-2] if len(act) > 1 else h
    return logits, features, ForwardCache(net, x, pre, act, run_map)


def _dense(net: Network, l: int, h: np.ndarray, stretches=_WHOLE, out=None) -> np.ndarray:
    """Layer l's pre-activation h @ W[l] + b[l], one matmul per stretch,
    into ``out`` if given."""
    w, b = net.weights[l], net.biases[l]
    z = np.empty((*h.shape[:-1], w.shape[-1])) if out is None else out
    for blocks, runs in stretches:
        np.matmul(h[blocks], w[runs], out=z[blocks])
        z[blocks] += b[runs][..., None, :]
    return z


def _forward_from_first_pre(net: Network, z0: np.ndarray, stretches=_WHOLE,
                            arrays: _Layers | None = None) -> tuple[list, list]:
    """Apply the network from layer 0's pre-activation on: (pre, act) per
    layer, into ``arrays`` if given."""
    arrays = arrays or _fresh(len(net.layers))
    pre, act = [z0], []
    for l, spec in enumerate(net.layers):
        if l:
            pre.append(_dense(net, l, act[-1], stretches, arrays.pre[l]))
        act.append(_activate(spec.activation, pre[-1], arrays.act[l]))
    return pre, act


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability.

    Rows are the last axis, so a stacked (runs, rows, k) array works per run.
    The work runs on class planes (`_softmax_planes`), summed in class order:
    for k < 8, bit for bit `e / e.sum(axis=-1, keepdims=True)` class-last.
    """
    s = np.asarray(logits, dtype=np.float64)
    if s.ndim not in (2, 3):
        raise ShapeError(f"expected (rows, k) or (runs, rows, k) logits, got ndim={s.ndim}")
    n, k = math.prod(s.shape[:-1]), s.shape[-1]
    buf = np.empty((k + 1, n))
    np.copyto(buf[:k], s.reshape(n, k).T)
    out = np.empty((n, k))
    _softmax_planes(buf, k, out=out.T)
    return out.reshape(s.shape)


def _softmax_planes(buf: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Softmax over the k class planes buf[:k], into the (k, ...) view out.

    buf[k] is the plane of scratch that `_class_sum` adds into.  The max over
    planes is order-free, and the rest elementwise, so every value is the
    class-last softmax's whose row sum adds the classes in order.
    """
    e = buf[:k]
    np.subtract(e, e.max(axis=0), out=e)
    np.exp(e, out=e)
    return np.divide(e, _class_sum(e, buf[k:]), out=out)


def _class_sum(planes: np.ndarray, out=None) -> np.ndarray:
    """Add the k planes of `planes` (k, ...) in class order into out[0] and
    return it; `out` defaults to `planes`, whose first plane is then the sum
    (with k = 1, planes[0] itself is), and any other leaves them intact."""
    out = planes if out is None else out
    total = planes[0]
    for plane in planes[1:]:
        total = np.add(total, plane, out=out[0])
    return total


def cross_entropy_soft(probs, soft_targets) -> float:
    """Batch-mean cross-entropy -sum_k t_k log p_k against soft targets."""
    t = as_matrix(soft_targets)
    _check_targets(t)
    return float(_mean_ce(as_matrix(probs), t))


def _check_targets(t: np.ndarray):
    """The soft-target check of every public CE entry point."""
    if (t < 0).any():
        raise ValueError("target entries must be >= 0")


def _mean_ce(p: np.ndarray, t: np.ndarray):
    """Mean soft-target CE over the rows axis (-2): a scalar, or one per run.

    The targets are not scanned here: cross_entropy_soft, weighted_ce and
    vicinal.regmix_loss (without ``_plan``) check them (_check_targets), and
    a training step's targets are one-hot rows of checked labels or convex
    mixes of them with lambda in [0, 1].
    """
    if p.shape != t.shape:
        raise ShapeError(f"probs {p.shape} vs targets {t.shape}")
    # sum / rows is numpy's mean, bit for bit, without its Python wrapper
    return -(t * np.log(np.maximum(p, EPS_LOG))).sum(axis=-1).sum(axis=-1) / t.shape[-2]


@dataclass
class GradientSet:
    """Per-layer gradients, shapes mirroring the owning Network."""

    d_weights: list
    d_biases: list


# Rows per chunk of the weight gradient's sum over the batch (_weight_grad).
_GRAD_ROWS = 256


def backward(
    net: Network, cache: ForwardCache, soft_targets, probs=None, *,
    _plan: _StepPlan | None = None,
) -> GradientSet:
    """Exact gradient of the batch-mean softmax cross-entropy w.r.t. all parameters.

    ``soft_targets`` are rows laid out like the forward inputs; ``probs`` is
    softmax(logits) when the caller already has it.  A stacked network gets
    each block's gradient of its own batch-mean loss; after a forward with a
    run map, one GradientSet per stretch.  A two-term pass's ``_plan`` takes
    the deltas and the gradients (its ``outs``); without it every array is
    fresh.
    """
    if cache.net is not net:
        raise ValueError("cache does not belong to this network")
    lead, stretches = cache.run_map
    t = _per_run(as_matrix(soft_targets), lead)
    logits = cache.act[-1]
    if t.shape != logits.shape:
        raise ShapeError(f"targets {t.shape} vs logits {logits.shape}")
    if probs is None:
        probs = softmax(logits)
    n_layers = len(net.layers)
    arrays = _fresh(n_layers) if _plan is None else _plan.layers[t.shape[-2]]
    delta = np.subtract(probs, t, out=arrays.delta[-1])
    delta /= logits.shape[-2]  # dL/dlogits for mean CE
    outs = _plan.outs if _plan is not None else [
        GradientSet([None] * n_layers, [None] * n_layers) for _ in stretches]
    for l in range(n_layers - 1, -1, -1):
        inp = cache.act[l - 1] if l > 0 else _per_run(cache.x, lead)
        for (part, _), grads in zip(stretches, outs):
            grads.d_weights[l] = _weight_grad(inp[part], delta[part], grads.d_weights[l])
            grads.d_biases[l] = np.add.reduce(delta[part], axis=-2, out=grads.d_biases[l])
        if l > 0:
            spec, z = net.layers[l - 1], cache.pre[l - 1]
            back = np.empty(z.shape) if arrays.delta[l - 1] is None else arrays.delta[l - 1]
            for part, runs in stretches:
                np.matmul(delta[part], net.weights[l][runs].swapaxes(-1, -2), out=back[part])
            delta = np.multiply(back, _activate_grad(
                spec.activation, z, cache.act[l - 1], arrays.dact[l - 1]
            ), out=back)
    return outs if stretches is not _WHOLE else outs[0]


def _weight_grad(inp: np.ndarray, delta: np.ndarray, out) -> np.ndarray:
    """inp^T @ delta over the rows axis (-2), into ``out`` if given.

    The sum runs over chunks of _GRAD_ROWS rows in a fixed order: the first
    is written, each later one added in place.  A longer inner dimension
    lets OpenBLAS split the sum across threads, and its bits would then
    depend on the thread count; a batch of _GRAD_ROWS rows or fewer is one
    GEMM, the first chunk's call alone.
    """
    if inp.shape[-2] <= _GRAD_ROWS:
        return np.matmul(inp.swapaxes(-1, -2), delta, out=out)

    def chunk(lo):
        return inp[..., lo:lo + _GRAD_ROWS, :].swapaxes(-1, -2), delta[..., lo:lo + _GRAD_ROWS, :]

    out = np.matmul(*chunk(0), out=out)
    for lo in range(_GRAD_ROWS, inp.shape[-2], _GRAD_ROWS):
        out += np.matmul(*chunk(lo))
    return out


def weighted_ce(net: Network, x, targets, weight=1) -> tuple[float, GradientSet]:
    """``weight`` times the batch-mean cross-entropy, and its gradient: a
    _two_term_ce mixed term over every run.  For a stacked network the weight
    may be one value per run, and the loss comes back as one per run."""
    runs = net.weights[0].shape[0] if net.weights[0].ndim == 3 else 1
    targets = as_matrix(targets)
    _check_targets(targets)
    return _two_term_ce(net, x, targets, runs, runs, weight)


def _two_term_ce(net: Network, x, t, c: int, m: int, eta=1, *, _plan: _StepPlan | None = None):
    """Clean CE plus eta times mixed CE, and its gradient, per run, in one pass.

    x and t are V = (R - c) + m blocks of rows: the clean rows of the runs
    [c, R), then the mixed rows of the runs [0, m), c <= m.  One forward,
    softmax, CE and backward take all V through the run map of a _StepPlan.
    eta (one value, or one per mixed run; 1 is never multiplied in) scales
    the mixed losses and gradients, and the runs [c, m) add their two slices.
    A training step passes its ``_plan``; any other call runs on a plan of
    its own for the runs of ``net`` (a plain network is one, and gets a
    scalar loss and its own shapes back) and the batch size of x.
    """
    plain = net.weights[0].ndim == 2
    if _plan is None:
        x = as_matrix(x)
        nets = [net] if plain else net.unstack()
        _plan = _StepPlan(nets, c, m, eta, [len(x) // (len(nets) - c + m)])
    logits, _, cache = forward(_plan.net, x, _plan=_plan)
    probs = softmax(logits)
    ce = _mean_ce(probs, _per_run(as_matrix(t), logits.shape[:1]))
    backward(_plan.net, cache, t, probs, _plan=_plan)
    sums, scales, runs = _plan.sums, _plan.scales, len(_plan.net.weights[0])
    loss = np.empty(runs)
    loss[:m] = ce[runs - c:]
    if scales is not None:  # one weight per run scales that run's slice
        loss[:m] *= scales[0]
        for g, w in zip(sums, scales[1]):
            g[:m] *= w
    for total, values in [(loss, ce[:runs - c]), *(zip(sums, _plan.clean) if c < m else ())]:
        total[c:m] += values[:m - c]  # the runs [c, m) add their two slices
        total[m:] = values[m - c:]
    n_layers = len(net.layers)
    if plain:
        sums = [g[0] for g in sums]
    return loss[0] if plain else loss, GradientSet(sums[:n_layers], sums[n_layers:])


@dataclass
class OptimState:
    """SGD with Nesterov momentum, L2 weight decay, and an LR schedule."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: str = "constant"  # constant | cosine
    _vel: list = field(default_factory=list, repr=False)  # weights', then biases': one block
    _scratch: list = field(default_factory=list, repr=False)  # sgd_step's two chunk buffers

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def lr_at(self, epoch_frac: float) -> float:
        if self.schedule == "cosine":
            return 0.5 * self.learning_rate * (1.0 + math.cos(math.pi * epoch_frac))
        return self.learning_rate


# Values per pass of sgd_step's in-place update: 128 KiB, so the chunks of
# the five arrays it streams (param, grad, velocity, two scratch) stay in L2.
_SGD_CHUNK = 16384


def sgd_step(net: Network, grads: GradientSet, opt: OptimState, epoch_frac: float, *,
             _plan: _StepPlan | None = None):
    """In-place Nesterov update; weight decay enters as an L2 gradient term.

    Per parameter, bit for bit: g = grad + wd * param; vel = mu * vel + g;
    param -= lr * (g + mu * vel), or lr * g without momentum.  It runs in
    chunks of _SGD_CHUNK values through two scratch arrays kept in ``opt``,
    so a step allocates nothing.  A training step's ``_plan`` holds the
    params, the gradient sums and the velocities as three flat blocks, which
    update in one pass; otherwise each array updates on its own.
    """
    if not 0.0 <= epoch_frac <= 1.0:
        raise ValueError("epoch_frac must be in [0, 1]")
    if _plan is None:
        params, grad_list = [*net.weights, *net.biases], [*grads.d_weights, *grads.d_biases]
        for param, grad in zip(params, grad_list):
            if grad.shape != param.shape:
                raise ShapeError(f"gradient {grad.shape} vs parameter {param.shape}")
        if not opt._vel:
            opt._vel = _tiles([p.shape for p in params], np.zeros)
        triples = zip(params, grad_list, opt._vel)
    else:
        triples = [_plan.sgd]
    if not opt._scratch:
        opt._scratch = [np.empty(_SGD_CHUNK), np.empty(_SGD_CHUNK)]
    lr = opt.lr_at(epoch_frac)
    for param, grad, vel in triples:
        flat = np.ascontiguousarray(param)
        _sgd_chunks(flat.reshape(-1), np.ascontiguousarray(grad).reshape(-1),
                    vel.reshape(-1), lr, opt)
        if flat is not param:  # a strided parameter: write the update back
            param[...] = flat


def _sgd_chunks(param, grad, vel, lr: float, opt: OptimState):
    """sgd_step's update of one flat parameter, chunk by chunk, in place."""
    mu = opt.momentum
    step_buf, tmp_buf = opt._scratch
    for lo in range(0, param.size, _SGD_CHUNK):
        hi = lo + _SGD_CHUNK
        p, v = param[lo:hi], vel[lo:hi]
        step = np.multiply(p, opt.weight_decay, out=step_buf[:p.size])
        step += grad[lo:hi]  # g = grad + wd * param
        v *= mu
        v += step
        if mu > 0.0:
            step += np.multiply(v, mu, out=tmp_buf[:p.size])  # g + mu * vel
        step *= lr
        p -= step


def save_checkpoint(net: Network, path):
    """Write a bit-exact checkpoint: one JSON header line + raw float64 blocks."""
    header = {
        "layers": [
            {"in": s.in_dim, "out": s.out_dim, "act": s.activation}
            for s in net.layers
        ]
    }
    with atomic_open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("ascii"))
        f.write(b"\n")
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> Network:
    """Reconstruct a Network saved by save_checkpoint; ValueError if malformed."""
    with open(path, "rb") as f:
        magic = f.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        try:
            header = json.loads(f.readline().decode("ascii"))
            specs = [
                LayerSpec(d["in"], d["out"], d["act"]) for d in header["layers"]
            ]
            if any(type(w) is not int for sp in specs for w in (sp.in_dim, sp.out_dim)):
                raise ValueError("layer widths must be integers")
        except (ValueError, KeyError, TypeError) as err:
            raise ValueError(f"bad checkpoint header: {err!r}") from None
        net = Network(specs, rng=None)

        def block(*shape):
            size = 8 * int(np.prod(shape))
            raw = f.read(size)
            if len(raw) != size:
                raise ValueError("checkpoint is truncated")
            return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)

        for i, spec in enumerate(specs):
            net.weights[i] = block(spec.in_dim, spec.out_dim)
            net.biases[i] = block(spec.out_dim)
        if f.read(1):
            raise ValueError("trailing bytes in checkpoint")
    return net
