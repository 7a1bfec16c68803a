"""Training loops for ERM and the Mixup/CutMix strategy family, plus seed
ensembles and accuracy-driven grid search.

Every run derives all of its randomness from TrainConfig.seed through
labelled RngState streams: one init stream, and per epoch one shuffle
stream, one mix stream (mixing strategies) and one coin stream (two-op
strategies).  A mixing run draws its epoch's pairings, lambdas, CutMix boxes
and coins up front (vicinal._draw_plan).  So two runs with the same config
produce byte-identical ExperimentRecords, and strategies that degenerate to
ERM (eta=0, forced lambda=1) replay the exact same batches.  Runs that
differ only in strategy, seed, alpha, eta, lambda_mode or force_lambda train
in lockstep on one stacked network, each on its own streams and rows, with
the same bits as alone.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn
from .datagen import Dataset, split
from .tensor import RngState
from .vicinal import LAMBDA_MODES, BetaParams, _draw_plan, _mix_step, regmix_loss

# strategy -> (mixing ops, regularized).  With two ops a per-batch coin picks
# one, mixup when coin < 0.5.  A regularized strategy keeps the clean CE term
# and adds the mixed one weighted by eta (vicinal.regmix_loss).
_RECIPES = {
    "erm": ((), False),
    "mixup": (("mixup",), False),
    "regmixup": (("mixup",), True),
    "cutmix": (("cutmix",), False),
    "regcutmix": (("cutmix",), True),
    "mixup_plus_cutmix": (("mixup", "cutmix"), False),
    "reg_mixup_plus_regcutmix": (("mixup", "cutmix"), True),
}
STRATEGIES = tuple(_RECIPES)


def _step_role(config) -> int:
    """Where a run sits in its lockstep group: 0 mixed term only, 1 both
    terms (regularized), 2 clean term only (erm)."""
    ops, regularized = _RECIPES[config.strategy]
    return 2 if not ops else int(regularized)


# RngState stream labels; keeping them distinct makes shuffling independent
# of how many draws the mixing ops consume.  All but _S_INIT take the epoch.
_S_INIT, _S_SHUFFLE, _S_MIX, _S_COIN = 0, 1, 2, 3

# Hyperparameter grids used for cross-validation presets.
MIXUP_ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 5.0, 10.0, 20.0)
REGMIXUP_ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 5.0, 10.0, 15.0, 20.0, 30.0)
REGMIXUP_ETA_GRID = (0.1, 1.0, 2.0)


@dataclass(frozen=True)
class TrainConfig:
    strategy: str
    hidden_dims: tuple = (64, 64)
    activation: str = "relu"
    alpha: float | None = None
    eta: float | None = None
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: str = "cosine"
    seed: int = 0
    lambda_mode: str = "per_batch"
    force_lambda: float | None = None  # test hook: pins the mixing factor

    def __post_init__(self):
        if self.strategy not in _RECIPES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        ops, regularized = _RECIPES[self.strategy]
        for name in ("alpha", "eta", "force_lambda"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.force_lambda is not None and not 0 <= self.force_lambda <= 1:
            raise ValueError(f"force_lambda must lie in [0, 1], not {self.force_lambda}")
        if ops and (self.alpha is None or self.alpha <= 0):
            raise ValueError(f"strategy {self.strategy} requires alpha > 0")
        if regularized and self.eta is None:
            raise ValueError(f"strategy {self.strategy} requires eta >= 0")
        if self.eta is not None and self.eta < 0:  # training scans no eta
            raise ValueError(f"eta must be >= 0, not {self.eta} (strategy {self.strategy})")
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        # nn's own layer and optimiser checks, made before any training; the
        # leading width 1 checks the activation even with no hidden layer.
        for width in (1, *self.hidden_dims):
            nn.LayerSpec(1, width, self.activation)
        self._optim_state()

    def _optim_state(self) -> nn.OptimState:
        """A fresh SGD state of this config's optimiser settings."""
        return nn.OptimState(self.learning_rate, self.momentum, self.weight_decay, self.schedule)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["hidden_dims"] = ",".join(str(h) for h in self.hidden_dims)
        return out


@dataclass
class ExperimentRecord:
    """Persisted result of one training run (versioned text document)."""

    config: dict
    epoch_losses: list
    metrics: dict
    seed: int
    wall_clock_s: float = 0.0  # v1 keeps the line; training writes 0.0
    checkpoint: str = "-"

    def to_text(self) -> str:
        lines = ["vrlkit-record v1", "[config]"]
        for key in sorted(self.config):
            lines.append(f"{key} = {_fmt(self.config[key])}")
        lines.append("[epoch_losses]")
        for i, loss in enumerate(self.epoch_losses):
            lines.append(f"{i} = {_fmt(loss)}")
        lines.append("[metrics]")
        for key in sorted(self.metrics):
            lines.append(f"{key} = {_fmt(self.metrics[key])}")
        lines.append("[meta]")
        lines.append(f"seed = {self.seed}")
        lines.append(f"wall_clock_s = {_fmt(self.wall_clock_s)}")
        lines.append(f"checkpoint = {self.checkpoint}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentRecord":
        header, *lines = text.strip().split("\n")
        if header != "vrlkit-record v1":
            raise ValueError(f"unknown record version: {header!r}")
        sections = {"config": {}, "epoch_losses": {}, "metrics": {}, "meta": {}}
        target = None
        for line in lines:
            if line.startswith("["):
                target = sections.get(line.strip("[]"))
                continue
            if target is None:
                raise ValueError(f"record line outside a known section: {line!r}")
            key, _, value = line.partition(" = ")
            target[key] = value
        config, losses, metrics, meta = sections.values()
        missing = [key for key in ("seed", "wall_clock_s") if key not in meta]
        if missing:
            raise ValueError(f"record has no [meta] {', '.join(missing)}")
        if losses.keys() != set(map(str, range(len(losses)))):
            raise ValueError("[epoch_losses] keys are not 0, 1, 2, ... without a gap")
        return cls(
            config={k: _parse(v) for k, v in config.items()},
            epoch_losses=[float(losses[str(i)]) for i in range(len(losses))],
            metrics={k: float(v) for k, v in metrics.items()},
            seed=int(meta["seed"]),
            wall_clock_s=float(meta["wall_clock_s"]),
            checkpoint=meta.get("checkpoint", "-"),
        )

    def train_config(self) -> TrainConfig:
        c = {f.name: self.config[f.name] for f in fields(TrainConfig)}
        c["hidden_dims"] = tuple(int(h) for h in str(c["hidden_dims"]).split(",") if h)
        return TrainConfig(**c)


def _fmt(value) -> str:
    return "none" if value is None else str(value)


def _parse(value: str):
    if value == "none":
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def build_network(config: TrainConfig, in_dim: int, n_classes: int, rng: RngState) -> nn.Network:
    dims = [in_dim, *config.hidden_dims]
    specs = [
        nn.LayerSpec(a, b, config.activation) for a, b in zip(dims, dims[1:])
    ]
    specs.append(nn.LayerSpec(dims[-1], n_classes, "identity"))
    return nn.Network(specs, rng=rng)


def _batch_bounds(n: int, batch_size: int):
    bounds = list(range(0, n, batch_size)) + [n]
    # Mixing needs >= 2 samples; fold a trailing singleton into its neighbour.
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds.pop(-2)
    return list(zip(bounds[:-1], bounds[1:]))


class DivergedError(ArithmeticError):
    """A run's batch loss or final weights are not finite."""


# TrainConfig fields that may differ between runs training in lockstep; every
# other field fixes the batch bounds, learning rates and network shapes.
_PER_RUN_FIELDS = ("strategy", "seed", "alpha", "eta", "lambda_mode", "force_lambda")


def lockstep_groups(configs) -> list:
    """Index lists of the configs that train together, in first-seen order.

    Configs share a group when they differ at most in _PER_RUN_FIELDS.
    """
    groups = {}
    for i, config in enumerate(configs):
        key = tuple(
            getattr(config, f.name) for f in fields(config) if f.name not in _PER_RUN_FIELDS
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def train(configs: TrainConfig | list, train_ds: Dataset, val_ds: Dataset | None):
    """Train one network per config under its strategy.

    Given one TrainConfig, returns (network, ExperimentRecord): the config,
    per-epoch mean training losses and final validation metrics.  Given a
    list, returns one such pair per config, in input order.

    The runs of each lockstep group train together: their weights sit on one
    stacked network, so each step is one forward, one backward and one SGD
    update for the whole group, both loss terms included, and one mixing
    call per op.  Each run still draws its init, shuffle, mixing and coin
    streams from its own seed and mixes its own rows, and its result is bit
    for bit what it would be alone.

    Raises DivergedError, naming the first bad run, when a batch loss or a
    trained weight is not finite.
    """
    if isinstance(configs, TrainConfig):
        return _train_lockstep([configs], train_ds, val_ds)[0]
    results = [None] * len(configs)
    for group in lockstep_groups(configs):
        group.sort(key=lambda i: _step_role(configs[i]))
        trained = _train_lockstep([configs[i] for i in group], train_ds, val_ds)
        for i, result in zip(group, trained):
            results[i] = result
    return results


def _train_lockstep(configs, train_ds, val_ds) -> list:
    """(net, record) per config of one lockstep group, given in _step_role order.

    Each step is one regmix_loss call: a mixed term over the runs of roles 0
    and 1 and a clean term over those of roles 1 and 2; the runs of role 1
    sum both.  Every array a step writes is laid out once, in one
    nn._StepPlan: the rows (each run's gathered rows, then the mixed rows,
    which vicinal._mix_step writes from one mixing plan per epoch), the
    per-layer arrays, the gradients and the SGD blocks.

    A step runs only its arithmetic.  What it reads was checked once: the
    configs (each eta and force_lambda by TrainConfig), the data here, and
    each epoch's mixing plan as _draw_plan makes it; so regmix_loss,
    mixup_batch, cutmix_batch, nn._mean_ce and sgd_step skip their checks on
    a step (see each).  A step's losses are scanned element by element only
    when their sum is not finite.
    """
    first = configs[0]
    if train_ds.n < 2:
        raise ValueError("training needs at least 2 samples")
    for config in configs:
        if "cutmix" in _RECIPES[config.strategy][0] and train_ds.image_shape is None:
            raise ValueError(f"strategy {config.strategy} needs image-shaped data")
    if val_ds is not None and val_ds.d != train_ds.d:
        raise ValueError("train/val feature dimensions differ")
    roles = [_step_role(config) for config in configs]
    runs = len(configs)
    n_mixed_only, n_mixed = roles.count(0), runs - roles.count(2)
    # per mixed run: eta for the regularized ones, 1 for the mixed-only ones
    etas = np.array([c.eta if role else 1.0 for c, role in zip(configs[:n_mixed], roles)])
    roots = [RngState(config.seed) for config in configs]
    n = train_ds.n
    bounds = _batch_bounds(n, first.batch_size)
    total_steps = first.epochs * len(bounds)
    sizes = [hi - lo for lo, hi in bounds]
    step_plan = nn._StepPlan([
        build_network(config, train_ds.d, train_ds.k, root.split(_S_INIT))
        for config, root in zip(configs, roots)
    ], n_mixed_only, n_mixed, etas, sizes)
    net = step_plan.net
    opt = first._optim_state()
    y_onehot = train_ds.onehot()
    mixing = [(_RECIPES[c.strategy][0], BetaParams(c.alpha), c.lambda_mode, c.force_lambda)
              for c in configs[:n_mixed]]
    orders = np.empty((runs, n), np.int64)  # each run's shuffle of the epoch
    epoch_losses = []
    step = 0
    # Diverging runs stop at the isfinite checks below, not in numpy warnings.
    with np.errstate(all="ignore"):
        for epoch in range(first.epochs):
            for order, root in zip(orders, roots):
                order[:] = root.split(_S_SHUFFLE, epoch).permutation(n)
            mix_plan = None
            if n_mixed:  # one mix stream per mixing run, and a coin stream with two ops
                draws = [(*mix, root.split(_S_MIX, epoch),
                          root.split(_S_COIN, epoch) if len(mix[0]) > 1 else None)
                         for mix, root in zip(mixing, roots)]
                mix_plan = _draw_plan(draws, sizes, train_ds.image_shape)
            loss_sum = np.zeros(runs)
            for b, (lo, hi) in enumerate(bounds):
                xb, yb, x_runs, y_runs, x_step, y_step = step_plan.rows[hi - lo]
                idx = orders[:, lo:hi]
                # "wrap" mode takes no private copy; the indices are in range
                train_ds.x.take(idx, axis=0, mode="wrap", out=x_runs)
                y_onehot.take(idx, axis=0, mode="wrap", out=y_runs)
                if mix_plan is not None:  # each mixing run mixes its own block of rows
                    _mix_step(mix_plan, b, lo, hi, xb, yb)
                loss, grads = regmix_loss(net, x_step, y_step, None, etas, _plan=step_plan)
                if not math.isfinite(loss.sum()):
                    bad = ~np.isfinite(loss)
                    if bad.any():
                        raise _diverged(configs, bad, f"loss at epoch {epoch}, step {step}")
                nn.sgd_step(net, grads, opt, step / total_steps, _plan=step_plan)
                loss_sum += loss * (hi - lo)
                step += 1
            epoch_losses.append(loss_sum / n)
    nets = net.unstack()
    finite = [all(np.isfinite(a).all() for a in (*run.weights, *run.biases)) for run in nets]
    if not all(finite):
        raise _diverged(configs, np.logical_not(finite),
                        f"weights after epoch {first.epochs - 1}, step {step - 1}")
    metrics = [{} for _ in configs]
    if val_ds is not None:
        for run, run_metrics in zip(nets, metrics):
            logits, _, _ = nn.forward(run, val_ds.x)
            run_metrics["val_accuracy"] = accuracy_from_logits(logits, val_ds.labels)
            run_metrics["val_loss"] = nn.cross_entropy_soft(nn.softmax(logits), val_ds.onehot())
    return [
        (run, ExperimentRecord(
            config=config.to_dict(),
            epoch_losses=losses.tolist(),
            metrics=run_metrics,
            seed=config.seed,
        ))
        for config, run, run_metrics, losses in zip(configs, nets, metrics, np.transpose(epoch_losses))
    ]


def _diverged(configs, bad, what: str) -> DivergedError:
    config = configs[int(np.flatnonzero(bad)[0])]
    return DivergedError(
        f"training diverged: {config.strategy} seed {config.seed}: non-finite {what}"
    )


def accuracy_from_logits(logits, labels) -> float:
    preds = np.asarray(logits).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())


def accuracy(net: nn.Network, ds: Dataset) -> float:
    logits, _, _ = nn.forward(net, ds.x)
    return accuracy_from_logits(logits, ds.labels)


def cross_validate(grid: list, train_ds: Dataset) -> TrainConfig:
    """Pick the grid config with the best validation accuracy.

    Each config is trained on a stratified 90% split and scored on the held
    out 10%; ties break toward the earliest grid entry.  The split is drawn
    from the seed of the first grid entry, so every config sees the same one.
    """
    if not grid:
        raise ValueError("empty grid")
    tr, val = split(train_ds, 0.9, stratified=True, rng=RngState(grid[0].seed).split(9))
    scores = [accuracy(net, val) for net, _ in train(grid, tr, None)]
    return grid[int(np.argmax(scores))]


@dataclass
class EnsembleModel:
    """Independently seeded members sharing one architecture."""

    members: list = field(default_factory=list)

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if any(m.layers != self.members[0].layers for m in self.members):
            raise ValueError("members must share an architecture")


def train_ensemble(
    config: TrainConfig, n_members: int, train_ds: Dataset, val_ds: Dataset | None
) -> EnsembleModel:
    """Train n members with seeds seed, seed+1, ... and identical configs."""
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    configs = [replace(config, seed=config.seed + i) for i in range(n_members)]
    return EnsembleModel([net for net, _ in train(configs, train_ds, val_ds)])


def ensemble_predict(
    ens: EnsembleModel, x, mode: str = "mean_logit"
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate member predictions.

    mean_prob averages member softmax outputs; mean_logit averages logits and
    applies softmax once (the form temperature scaling expects).  Returns
    (probs, mean_logits).
    """
    if mode not in ("mean_prob", "mean_logit"):
        raise ValueError(f"unknown mode {mode!r}")
    logit_list = [nn.forward(m, x)[0] for m in ens.members]
    mean_logits = np.mean(logit_list, axis=0)
    if mode == "mean_prob":
        probs = np.mean([nn.softmax(l) for l in logit_list], axis=0)
    else:
        probs = nn.softmax(mean_logits)
    return probs, mean_logits
