"""Multilayer-perceptron classifier with exact backprop and Nesterov SGD.

Networks are plain stacks of dense layers; the final layer always emits raw
logits (identity activation).  Losses use the soft-target cross-entropy form,
which is linear in the target and therefore covers one-hot, mixed, and
smoothed labels with a single code path.
"""

import json
import math
from dataclasses import dataclass, field

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

    def copy(self) -> "Network":
        return self._with([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def _with(self, weights, biases) -> "Network":
        other = Network.__new__(Network)
        other.layers = list(self.layers)
        other.weights = weights
        other.biases = biases
        return other

    @staticmethod
    def stack(nets) -> "Network":
        """One stacked network holding ``nets`` (one architecture) in order."""
        first = nets[0]
        if any(net.layers != first.layers for net in nets):
            raise ValueError("stacked networks must share an architecture")
        return first._with(
            [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
            [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
        )

    def unstack(self) -> list:
        """The runs of a stacked network as plain networks (copies)."""
        return [
            self._with([w[r].copy() for w in self.weights], [b[r].copy() for b in self.biases])
            for r in range(self.weights[0].shape[0])
        ]


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


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


class ForwardCache:
    """Per-layer pre-activations and activations from one forward pass."""

    def __init__(self, net, x, pre, act):
        self.net = net
        self.x = x  # the input rows as passed, (rows, in_dim)
        self.pre = pre  # pre[l] = act[l-1] @ W[l] + b[l]
        self.act = act  # act[l] = activation(pre[l]); act[-1] = logits


def _per_run(net: Network, rows: np.ndarray) -> np.ndarray:
    """View a (runs * n, c) row block as (runs, n, c) for a stacked network.

    Run r owns rows r*n .. (r+1)*n - 1.  A plain network keeps (n, c).
    """
    runs = net.weights[0].shape[:-2]
    if runs and rows.shape[0] % runs[0]:
        raise ShapeError(f"{rows.shape[0]} rows do not split into {runs[0]} runs")
    return rows.reshape(*runs, -1, rows.shape[1])


def forward(net: Network, x_batch) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on a batch.

    Returns (logits, features, cache) where features are the penultimate
    activations (the inputs themselves for a single-layer net).  A stacked
    network takes one block of rows per run, stacked run-major, and returns
    logits and features as (runs, rows per run, width).
    """
    x = as_matrix(x_batch)
    if x.shape[1] != net.in_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, network expects {net.in_dim}"
        )
    h = _per_run(net, x)
    pre, act = _forward_from_first_pre(net, h @ net.weights[0] + net.biases[0][..., None, :])
    logits = act[-1]
    features = act[-2] if len(act) > 1 else h
    return logits, features, ForwardCache(net, x, pre, act)


def _forward_from_first_pre(net: Network, z0: np.ndarray) -> tuple[list, list]:
    """Apply the network from layer 0's pre-activation on: (pre, act) per layer."""
    pre, act = [z0], [_activate(net.layers[0].activation, z0)]
    for spec, w, b in zip(net.layers[1:], net.weights[1:], net.biases[1:]):
        z = act[-1] @ w + b[..., None, :]
        pre.append(z)
        act.append(_activate(spec.activation, z))
    return pre, act


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability.

    Rows are the last axis, so a stacked (runs, rows, k) array works per run.
    """
    s = np.ascontiguousarray(logits, dtype=np.float64)
    if s.ndim not in (2, 3):
        raise ShapeError(f"expected (rows, k) or (runs, rows, k) logits, got ndim={s.ndim}")
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_soft(probs, soft_targets) -> float:
    """Batch-mean cross-entropy -sum_k t_k log p_k against soft targets."""
    return float(_mean_ce(as_matrix(probs), as_matrix(soft_targets)))


def _mean_ce(p: np.ndarray, t: np.ndarray):
    """Mean soft-target CE over the rows axis (-2): a scalar, or one per run."""
    if p.shape != t.shape:
        raise ShapeError(f"probs {p.shape} vs targets {t.shape}")
    if (t < 0).any():
        raise ValueError("target entries must be >= 0")
    # sum / rows is numpy's mean, bit for bit, without its Python wrapper
    return -(t * np.log(np.maximum(p, EPS_LOG))).sum(axis=-1).sum(axis=-1) / t.shape[-2]


@dataclass
class GradientSet:
    """Per-layer gradients, shapes mirroring the owning Network."""

    d_weights: list
    d_biases: list


def backward(net: Network, cache: ForwardCache, soft_targets, probs=None) -> GradientSet:
    """Exact gradient of the batch-mean softmax cross-entropy w.r.t. all parameters.

    ``soft_targets`` are rows laid out like the forward inputs; ``probs`` is
    softmax(logits) when the caller already has it.  A stacked network gets
    each run's gradient of its own batch-mean loss.
    """
    if cache.net is not net:
        raise ValueError("cache does not belong to this network")
    t = _per_run(net, as_matrix(soft_targets))
    logits = cache.act[-1]
    if t.shape != logits.shape:
        raise ShapeError(f"targets {t.shape} vs logits {logits.shape}")
    if probs is None:
        probs = softmax(logits)
    delta = (probs - t) / logits.shape[-2]  # dL/dlogits for mean CE
    d_weights = [None] * len(net.layers)
    d_biases = [None] * len(net.layers)
    for l in range(len(net.layers) - 1, -1, -1):
        inp = cache.act[l - 1] if l > 0 else _per_run(net, cache.x)
        d_weights[l] = inp.swapaxes(-1, -2) @ delta
        d_biases[l] = delta.sum(axis=-2)
        if l > 0:
            spec = net.layers[l - 1]
            delta = (delta @ net.weights[l].swapaxes(-1, -2)) * _activate_grad(
                spec.activation, cache.pre[l - 1], cache.act[l - 1]
            )
    return GradientSet(d_weights, d_biases)


def weighted_ce(net: Network, terms) -> tuple[float, GradientSet]:
    """Weighted sum of batch-mean cross-entropies and its gradient.

    ``terms`` is a list of (inputs, soft_targets, weight); each term gets one
    forward/backward pass, and the terms are summed in list order.  A weight
    of 1 is never multiplied in, so a one-term call returns forward + backward
    bit for bit.  For a stacked network a weight may be one value per run,
    and the loss comes back as one value per run.
    """
    if not terms:
        raise ValueError("weighted_ce needs at least one term")
    total_loss, total = None, None
    for x, targets, weight in terms:
        logits, _, cache = forward(net, x)
        probs = softmax(logits)
        loss = _mean_ce(probs, _per_run(net, as_matrix(targets)))
        grads = backward(net, cache, targets, probs)
        arrays = grads.d_weights + grads.d_biases
        w = np.asarray(weight, dtype=np.float64)
        if (w != 1).any():
            # one weight per run scales that run's slice of every gradient
            loss = w * loss
            arrays = [w.reshape(w.shape + (1,) * (g.ndim - w.ndim)) * g for g in arrays]
        if total is None:
            total_loss, total = loss, arrays
        else:
            total_loss += loss
            for acc, g in zip(total, arrays):
                acc += g
    n = len(net.layers)
    return total_loss, GradientSet(total[:n], total[n:])


@dataclass
class OptimState:
    """SGD with Nesterov momentum, L2 weight decay, and an LR schedule."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: str = "constant"  # constant | cosine
    _vel_w: list = field(default_factory=list, repr=False)
    _vel_b: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def lr_at(self, epoch_frac: float) -> float:
        if self.schedule == "cosine":
            return 0.5 * self.learning_rate * (1.0 + math.cos(math.pi * epoch_frac))
        return self.learning_rate


def sgd_step(net: Network, grads: GradientSet, opt: OptimState, epoch_frac: float):
    """In-place Nesterov update; weight decay enters as an L2 gradient term."""
    if not 0.0 <= epoch_frac <= 1.0:
        raise ValueError("epoch_frac must be in [0, 1]")
    if not opt._vel_w:
        opt._vel_w = [np.zeros_like(w) for w in net.weights]
        opt._vel_b = [np.zeros_like(b) for b in net.biases]
    lr = opt.lr_at(epoch_frac)
    mu = opt.momentum
    for i in range(len(net.layers)):
        for param, grad, vel in (
            (net.weights[i], grads.d_weights[i], opt._vel_w[i]),
            (net.biases[i], grads.d_biases[i], opt._vel_b[i]),
        ):
            g = grad + opt.weight_decay * param
            vel *= mu
            vel += g
            step = g + mu * vel if mu > 0.0 else g
            param -= lr * step


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
