import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vrlkit.datagen import Dataset, apply_normalizer, fit_normalizer, make_gaussian_blobs, make_two_moons, split
from vrlkit.evalkit import entropy_profile
from vrlkit import nn, trainer
from vrlkit.nn import (
    GradientSet,
    OptimState,
    backward,
    cross_entropy_soft,
    forward,
    sgd_step,
    softmax,
)
from vrlkit.tensor import RngState
from vrlkit.trainer import (
    MIXUP_ALPHA_GRID,
    REGMIXUP_ALPHA_GRID,
    REGMIXUP_ETA_GRID,
    EnsembleModel,
    ExperimentRecord,
    TrainConfig,
    accuracy,
    cross_validate,
    ensemble_predict,
    train,
    train_ensemble,
)
from vrlkit.vicinal import BetaParams, cutmix_batch, mixup_batch, regmix_loss, sample_lambdas


def normalized_moons(n=300, noise=0.15, seed=0):
    base = make_two_moons(n, noise, RngState(seed).split(1))
    tr_raw, val_raw = split(base, 0.8, stratified=True, rng=RngState(seed).split(2))
    stats = fit_normalizer(tr_raw)
    return apply_normalizer(tr_raw, stats), apply_normalizer(val_raw, stats)


def tiny_image_dataset(n=12, seed=3):
    # 2x2 single-channel images so the cutmix strategies are exercised
    rng = RngState(seed)
    x = rng.normal((n, 4))
    labels = np.asarray(rng.integers(0, 2, size=n))
    return Dataset(x, labels, k=2, name="tiny_img", image_shape=(2, 2, 1))


def nets_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


FAST = dict(hidden_dims=(16,), epochs=5, batch_size=32, learning_rate=0.05)


class TestConfigValidation:
    def test_mixing_needs_alpha(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="mixup")

    def test_reg_needs_eta(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="regmixup", alpha=1.0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="dropout")

    @pytest.mark.parametrize("strategy", ["erm", "mixup", "cutmix", "mixup_plus_cutmix",
                                          "regmixup", "regcutmix", "reg_mixup_plus_regcutmix"])
    def test_negative_eta_rejected_whatever_the_strategy(self, strategy):
        # training scans no eta, so an unused one is checked as well
        alpha = None if strategy == "erm" else 1.0
        with pytest.raises(ValueError, match=r"eta must be >= 0, not -1\.0"):
            TrainConfig(strategy=strategy, alpha=alpha, eta=-1.0)

    def test_unknown_lambda_mode(self):
        with pytest.raises(ValueError, match="lambda_mode"):
            TrainConfig(strategy="mixup", alpha=1.0, lambda_mode="per_sample")

    @pytest.mark.parametrize("value", [-0.5, 1.5])
    def test_force_lambda_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"force_lambda must lie in \[0, 1\]"):
            TrainConfig(strategy="mixup", alpha=1.0, force_lambda=value)


def _regmix_with_eta(eta):
    """regmix_loss on one run per value of eta, three rows each."""
    runs = np.size(eta)
    x = np.tile([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (runs, 1))
    y = np.tile(np.eye(2)[[0, 1, 1]], (runs, 1))
    net = trainer.build_network(TrainConfig(strategy="erm", hidden_dims=(3,)), 2, 2, RngState(0))
    net = nn.Network.stack([net] * runs) if runs > 1 else net
    return regmix_loss(net, x, y, mixup_batch(x, y, BetaParams(1.0), lam=0.5, rng=RngState(1)), eta)


# Each hyperparameter check, given one value; a non-finite one must raise at
# construction, before a run trains into a non-finite loss.
HYPERPARAMETER_CHECKS = {
    "train-eta": lambda v: TrainConfig(strategy="regmixup", alpha=1.0, eta=v),
    "train-alpha": lambda v: TrainConfig(strategy="mixup", alpha=v),
    "train-erm-alpha": lambda v: TrainConfig(strategy="erm", alpha=v),
    "train-force-lambda": lambda v: TrainConfig(strategy="mixup", alpha=1.0, force_lambda=v),
    "train-lr": lambda v: TrainConfig(strategy="erm", learning_rate=v),
    "train-momentum": lambda v: TrainConfig(strategy="erm", momentum=v),
    "train-wd": lambda v: TrainConfig(strategy="erm", weight_decay=v),
    "optim-lr": lambda v: OptimState(learning_rate=v),
    "optim-wd": lambda v: OptimState(learning_rate=0.1, weight_decay=v),
    "beta-alpha": BetaParams,
    "regmix-eta": _regmix_with_eta,
    "regmix-eta-per-run": lambda v: _regmix_with_eta(np.array([0.5, v])),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("check", HYPERPARAMETER_CHECKS)
def test_non_finite_hyperparameter_rejected(check, value):
    with pytest.raises(ValueError):
        HYPERPARAMETER_CHECKS[check](value)


class TestDegeneracies:
    def test_regmixup_eta_zero_equals_erm_bitwise(self):
        tr, val = normalized_moons()
        erm_net, erm_rec = train(TrainConfig(strategy="erm", seed=7, **FAST), tr, val)
        reg_net, reg_rec = train(
            TrainConfig(strategy="regmixup", alpha=10.0, eta=0.0, seed=7, **FAST), tr, val
        )
        assert nets_equal(erm_net, reg_net)
        assert erm_rec.epoch_losses == reg_rec.epoch_losses
        assert erm_rec.metrics == reg_rec.metrics

    def test_mixup_forced_lambda_one_equals_erm_bitwise(self):
        tr, val = normalized_moons()
        erm_net, erm_rec = train(TrainConfig(strategy="erm", seed=7, **FAST), tr, val)
        mix_net, mix_rec = train(
            TrainConfig(strategy="mixup", alpha=10.0, force_lambda=1.0, seed=7, **FAST),
            tr, val,
        )
        assert nets_equal(erm_net, mix_net)
        assert erm_rec.epoch_losses == mix_rec.epoch_losses


class TestTrainBehaviour:
    def test_two_blob_erm_reaches_99(self):
        base = make_gaussian_blobs(400, 2, 10.0, RngState(1).split(1), noise_sd=1.0)
        tr_raw, val_raw = split(base, 0.8, stratified=True, rng=RngState(1).split(2))
        stats = fit_normalizer(tr_raw)
        tr, val = apply_normalizer(tr_raw, stats), apply_normalizer(val_raw, stats)
        cfg = TrainConfig(
            strategy="erm", hidden_dims=(16,), epochs=50, batch_size=64,
            learning_rate=0.1, seed=0,
        )
        net, record = train(cfg, tr, val)
        assert record.metrics["val_accuracy"] >= 0.99

    @pytest.mark.parametrize(
        "strategy",
        ["erm", "mixup", "regmixup", "cutmix", "regcutmix",
         "mixup_plus_cutmix", "reg_mixup_plus_regcutmix"],
    )
    def test_descent_on_tiny_batch(self, strategy):
        ds = tiny_image_dataset()
        cfg = TrainConfig(
            strategy=strategy,
            hidden_dims=(8,),
            alpha=None if strategy == "erm" else 1.0,
            eta=1.0 if "reg" in strategy else None,
            epochs=10,
            batch_size=ds.n,  # full-batch steps
            learning_rate=0.05,
            momentum=0.0,
            schedule="constant",
            seed=4,
        )
        _, record = train(cfg, ds, None)
        assert record.epoch_losses[-1] < record.epoch_losses[0]

    def test_per_pair_lambda_mode_trains(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(
            strategy="regmixup", alpha=10.0, eta=1.0, lambda_mode="per_pair",
            seed=9, **FAST,
        )
        net, record = train(cfg, tr, val)
        assert np.isfinite(record.epoch_losses).all()
        assert record.metrics["val_accuracy"] > 0.5

    def test_cutmix_requires_image_data(self):
        tr, _ = normalized_moons()
        with pytest.raises(ValueError):
            train(TrainConfig(strategy="cutmix", alpha=1.0, **FAST), tr, None)

    def test_regmixup_barrier_direction_on_moons(self):
        # accuracy stays close to ERM while mid-path predictive entropy at
        # lambda ~ 0.5 at least doubles
        base = make_two_moons(500, 0.1, RngState(1000).split(1))
        tr_raw, val_raw = split(base, 0.8, stratified=True, rng=RngState(50).split(2))
        stats = fit_normalizer(tr_raw)
        tr, val = apply_normalizer(tr_raw, stats), apply_normalizer(val_raw, stats)
        mids, accs = {}, {}
        for strat in ("erm", "regmixup"):
            cfg = TrainConfig(
                strategy=strat, hidden_dims=(64, 64),
                alpha=10.0 if strat == "regmixup" else None,
                eta=1.0 if strat == "regmixup" else None,
                epochs=60, batch_size=64, learning_rate=0.1, seed=0,
            )
            net, _ = train(cfg, tr, val)
            prof = entropy_profile(net, tr, n_pairs=400, rng=RngState(0).split(300))
            window = (prof.lambda_grid >= 0.4) & (prof.lambda_grid <= 0.6)
            mids[strat] = prof.entropies[:, window].mean()
            accs[strat] = accuracy(net, val)
        assert abs(accs["regmixup"] - accs["erm"]) <= 0.02
        assert mids["regmixup"] >= 2.0 * mids["erm"]


def three_branch_step(config, net, xb, yb, mixed):
    """The per-strategy step before the weighted-term list, kept as an oracle:
    ERM, one mixed pass, or two passes merged as g_c + eta * g_m."""
    strategy = config.strategy
    if strategy == "erm":
        logits, _, cache = forward(net, xb)
        loss = cross_entropy_soft(softmax(logits), yb)
        return loss, backward(net, cache, yb)
    if strategy in ("regmixup", "regcutmix", "reg_mixup_plus_regcutmix"):
        eta = config.eta
        logits_c, _, cache_c = forward(net, xb)
        loss_c = cross_entropy_soft(softmax(logits_c), yb)
        grads_c = backward(net, cache_c, yb)
        logits_m, _, cache_m = forward(net, mixed.x_mixed)
        loss_m = cross_entropy_soft(softmax(logits_m), mixed.y_mixed)
        grads_m = backward(net, cache_m, mixed.y_mixed)
        return loss_c + eta * loss_m, GradientSet(
            [a + eta * b for a, b in zip(grads_c.d_weights, grads_m.d_weights)],
            [a + eta * b for a, b in zip(grads_c.d_biases, grads_m.d_biases)],
        )
    logits, _, cache = forward(net, mixed.x_mixed)
    loss = cross_entropy_soft(softmax(logits), mixed.y_mixed)
    return loss, backward(net, cache, mixed.y_mixed)


def reference_mixer(config, root, epoch, bounds, image_shape):
    """One run's mixing for one epoch, drawn in the trainer's stream layout
    and written out step by step: a function (b, xb, yb) -> the mixed batch
    of step b from the single-batch mixers, or None for ERM."""
    ops = trainer._RECIPES[config.strategy][0]
    if not ops:
        return lambda b, xb, yb: None
    steps, n = len(bounds), bounds[-1][1]
    params, lam = BetaParams(config.alpha), config.force_lambda
    coins = root.split(trainer._S_COIN, epoch).uniform(steps) if len(ops) > 1 else None
    mix = root.split(trainer._S_MIX, epoch)
    keys = mix.integers(0, 1 << 40, size=n)
    per_row = config.lambda_mode == "per_pair" and "mixup" in ops
    lam_step = np.full(steps, lam) if lam is not None else None
    lam_row = np.full(n, lam) if lam is not None else None
    if lam is None and ("cutmix" in ops or not per_row):
        lam_step = sample_lambdas(params, steps, mix)
    if lam is None and per_row:
        lam_row = sample_lambdas(params, n, mix)
    if "cutmix" in ops:
        h, w, _ = image_shape
        sides = [(round(h * math.sqrt(1.0 - l)), round(w * math.sqrt(1.0 - l))) for l in lam_step]
        tops = mix.integers(0, [h - ph + 1 for ph, _ in sides])
        lefts = mix.integers(0, [w - pw + 1 for _, pw in sides])

    def mixed_batch(b, xb, yb):
        lo, hi = bounds[b]
        perm = np.argsort(keys[lo:hi], kind="stable")  # the step's slots in key order
        pairing = np.empty(hi - lo, dtype=np.int64)
        pairing[perm] = np.roll(perm, -1)
        cut = coins[b] >= 0.5 if coins is not None else ops == ("cutmix",)
        if not cut:
            lam_b = lam_row[lo:hi] if per_row else lam_step[b]
            return mixup_batch(xb, yb, params, lam=lam_b, _pairing=pairing)
        (ph, pw), y0, x0 = sides[b], int(tops[b]), int(lefts[b])
        box = np.array([[y0, min(y0 + ph, h), x0, min(x0 + pw, w)]])
        return cutmix_batch(xb, yb, params, None, image_shape, _pairing=pairing, _boxes=box)

    return mixed_batch


def reference_train(config, train_ds, val_ds):
    """One run alone as a plain 2-D loop over three_branch_step: the oracle
    for the lockstep trainer.  Returns (net, epoch losses, val metrics)."""
    root = RngState(config.seed)
    net = trainer.build_network(config, train_ds.d, train_ds.k, root.split(trainer._S_INIT))
    opt = OptimState(
        learning_rate=config.learning_rate, momentum=config.momentum,
        weight_decay=config.weight_decay, schedule=config.schedule,
    )
    y = train_ds.onehot()
    bounds = trainer._batch_bounds(train_ds.n, config.batch_size)
    total_steps = config.epochs * len(bounds)
    losses, step = [], 0
    for epoch in range(config.epochs):
        order = root.split(trainer._S_SHUFFLE, epoch).permutation(train_ds.n)
        mixer = reference_mixer(config, root, epoch, bounds, train_ds.image_shape)
        loss_sum = 0.0
        for b, (lo, hi) in enumerate(bounds):
            idx = order[lo:hi]
            xb, yb = train_ds.x[idx], y[idx]
            loss, grads = three_branch_step(config, net, xb, yb, mixer(b, xb, yb))
            sgd_step(net, grads, opt, step / total_steps)
            loss_sum += loss * idx.size
            step += 1
        losses.append(loss_sum / train_ds.n)
    metrics = {}
    if val_ds is not None:
        logits, _, _ = forward(net, val_ds.x)
        metrics["val_accuracy"] = trainer.accuracy_from_logits(logits, val_ds.labels)
        metrics["val_loss"] = cross_entropy_soft(softmax(logits), val_ds.onehot())
    return net, losses, metrics


def step_test_config(strategy, **overrides):
    return TrainConfig(**{
        "strategy": strategy,
        "hidden_dims": (6, 5),
        "alpha": None if strategy == "erm" else 0.7,
        "eta": 0.6 if "reg" in strategy else None,
        "epochs": 3,
        "batch_size": 4,
        "learning_rate": 0.05,
        "seed": 12,
        **overrides,
    })


class TestWeightedTermStep:
    @pytest.mark.parametrize("strategy", trainer.STRATEGIES)
    def test_equals_three_branch_step_bitwise(self, strategy):
        ds = tiny_image_dataset(n=14)
        val = tiny_image_dataset(n=10, seed=8)
        cfg = step_test_config(strategy)
        net, record = train(cfg, ds, val)
        want_net, want_losses, want_metrics = reference_train(cfg, ds, val)
        assert nets_equal(net, want_net)
        assert record.epoch_losses == want_losses
        assert record.metrics == want_metrics


def assert_equal_runs_alone(configs, ds, val):
    results = train(configs, ds, val)
    assert len(results) == len(configs)
    for config, (net, record) in zip(configs, results):
        want_net, want_losses, want_metrics = reference_train(config, ds, val)
        assert record.config == config.to_dict() and record.seed == config.seed
        assert nets_equal(net, want_net)
        assert record.epoch_losses == want_losses
        assert record.metrics == want_metrics


class TestLockstep:
    @pytest.mark.parametrize("strategy", trainer.STRATEGIES)
    def test_group_of_three_equals_runs_alone_bitwise(self, strategy):
        ds = tiny_image_dataset(n=14)
        val = tiny_image_dataset(n=10, seed=8)
        mixing = strategy != "erm"
        reg = "reg" in strategy
        configs = [
            step_test_config(strategy),
            step_test_config(strategy, seed=3, alpha=2.0 if mixing else None,
                             eta=1.0 if reg else None),
            step_test_config(strategy, seed=5, alpha=0.3 if mixing else None,
                             eta=2.5 if reg else None, lambda_mode="per_pair"),
        ]
        assert trainer.lockstep_groups(configs) == [[0, 1, 2]]
        assert_equal_runs_alone(configs, ds, val)

    def test_all_seven_strategies_in_one_group_equal_runs_alone_bitwise(self):
        # given out of step order (mixed only | both terms | clean only), with
        # their own seeds, alphas and etas and two per_pair runs
        configs = [
            step_test_config("regcutmix", seed=3, alpha=2.0, eta=1.5),
            step_test_config("erm", seed=5),
            step_test_config("mixup", seed=7, alpha=0.3, lambda_mode="per_pair"),
            step_test_config("reg_mixup_plus_regcutmix", seed=9, eta=0.0),
            step_test_config("cutmix"),
            step_test_config("regmixup", seed=2, alpha=5.0, lambda_mode="per_pair"),
            step_test_config("mixup_plus_cutmix", seed=4, alpha=1.2),
        ]
        assert sorted(c.strategy for c in configs) == sorted(trainer.STRATEGIES)
        assert trainer.lockstep_groups(configs) == [list(range(7))]
        assert_equal_runs_alone(configs, tiny_image_dataset(n=14), tiny_image_dataset(n=10, seed=8))

    @pytest.mark.parametrize("strategies", [
        ("mixup", "erm"),  # no run sums two terms
        ("regmixup", "regcutmix", "reg_mixup_plus_regcutmix"),  # every run does
        ("erm", "regcutmix", "erm"),  # the clean term is the wider
        ("cutmix", "regmixup"),  # the mixed term is the wider
    ])
    def test_groups_of_different_strategies_equal_runs_alone_bitwise(self, strategies):
        configs = [step_test_config(s, seed=seed) for seed, s in enumerate(strategies)]
        assert trainer.lockstep_groups(configs) == [list(range(len(configs)))]
        assert_equal_runs_alone(configs, tiny_image_dataset(n=14), tiny_image_dataset(n=10, seed=8))

    def test_mixed_list_splits_into_groups_in_input_order(self):
        # strategy, seed, alpha and eta may differ in a group; epochs, width
        # and learning rate may not
        tr, val = normalized_moons()
        configs = [
            TrainConfig(strategy="erm", seed=1, **FAST),
            TrainConfig(strategy="erm", seed=2, **{**FAST, "epochs": 3}),
            TrainConfig(strategy="mixup", alpha=0.4, seed=3, **FAST),
            TrainConfig(strategy="erm", seed=4, **{**FAST, "hidden_dims": (8, 4)}),
            TrainConfig(strategy="regmixup", alpha=2.0, eta=0.5, seed=5,
                        **{**FAST, "learning_rate": 0.01}),
            TrainConfig(strategy="regmixup", alpha=1.0, eta=1.0, seed=6, **FAST),
        ]
        assert trainer.lockstep_groups(configs) == [[0, 2, 5], [1], [3], [4]]
        results = train(configs, tr, val)
        for config, (net, record) in zip(configs, results):
            solo_net, solo_record = train(config, tr, val)
            assert record.config == config.to_dict()
            assert nets_equal(net, solo_net)
            assert record.epoch_losses == solo_record.epoch_losses
            assert record.metrics == solo_record.metrics

    def test_results_share_no_memory_with_the_step_plan(self, monkeypatch):
        plans = recorded_plans(monkeypatch)
        val = tiny_image_dataset(n=10, seed=8)
        configs = [step_test_config(s) for s in ("erm", "regcutmix", "mixup")]
        results = train(configs, tiny_image_dataset(n=14), val)
        assert len(plans) == 1
        arrays = list(arrays_in(vars(plans[0])))
        assert len(arrays) >= 10  # inputs, activations, deltas, gradient sums
        for net, record in results:
            logits, features, cache = forward(net, val.x)
            for a in (*net.weights, *net.biases, logits, features, *cache.pre, *cache.act):
                assert not any(np.shares_memory(a, b) for b in arrays)
            values = [*record.epoch_losses, *record.metrics.values(), record.wall_clock_s]
            assert all(type(v) is float for v in values)

    def test_no_state_crosses_train_calls(self, tmp_path):
        # batch sizes 4, 4, 4 and 2; a group of other shapes trains in between
        code = """
import sys
from vrlkit import nn
sys.path.insert(0, {tests!r})
from test_trainer import step_test_config, tiny_image_dataset
from vrlkit.trainer import train
configs = [step_test_config(s) for s in ("erm", "regmixup", "mixup")]
for r, (net, _) in enumerate(train(configs, tiny_image_dataset(n=14), None)):
    nn.save_checkpoint(net, {out!r} + str(r))
"""
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-c", code.format(tests=str(Path(__file__).parent),
                                                          out=str(fresh))],
                       check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        configs = [step_test_config(s) for s in ("erm", "regmixup", "mixup")]
        other = [step_test_config(s, hidden_dims=(3,), batch_size=5)
                 for s in ("cutmix", "regmixup")]
        for attempt in range(2):
            if attempt:
                train(other, tiny_image_dataset(n=11, seed=4), None)
            for r, (net, _) in enumerate(train(configs, tiny_image_dataset(n=14), None)):
                nn.save_checkpoint(net, tmp_path / f"here{r}")
                assert (tmp_path / f"here{r}").read_bytes() == Path(f"{fresh}{r}").read_bytes()

    def test_streams_per_run_and_epoch(self, monkeypatch):
        # per run: its root and init streams, and per epoch a shuffle stream,
        # a mix stream when it mixes and a coin stream when it has two ops
        ds = tiny_image_dataset(n=14)
        configs = [step_test_config(s, seed=seed) for seed, s in enumerate(
            ("erm", "mixup", "reg_mixup_plus_regcutmix", "cutmix", "mixup_plus_cutmix"))]
        made, init = [], RngState.__init__

        def recorded(self, seed, _path=()):
            init(self, seed, _path)
            made.append((self.seed, self.path))

        monkeypatch.setattr(RngState, "__init__", recorded)
        train(configs, ds, None)
        want = []
        for config in configs:
            ops = trainer._RECIPES[config.strategy][0]
            want += [(config.seed, ()), (config.seed, (trainer._S_INIT,))]
            for epoch in range(config.epochs):
                want.append((config.seed, (trainer._S_SHUFFLE, epoch)))
                want += [(config.seed, (trainer._S_MIX, epoch))] * (len(ops) > 0)
                want += [(config.seed, (trainer._S_COIN, epoch))] * (len(ops) > 1)
        assert sorted(made) == sorted(want)

    def test_list_of_one_equals_single_config(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="regmixup", alpha=5.0, eta=1.0, seed=3, **FAST)
        (net, record), = train([cfg], tr, val)
        solo_net, solo_record = train(cfg, tr, val)
        assert nets_equal(net, solo_net)
        assert record.to_text() == solo_record.to_text()

    def test_empty_list(self):
        tr, val = normalized_moons()
        assert train([], tr, val) == []


def recorded_plans(monkeypatch) -> list:
    """The nn._StepPlan of each lockstep group that trains, as it is built."""
    plans = []

    class Recorded(nn._StepPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(nn, "_StepPlan", Recorded)
    return plans


def arrays_in(value):
    """Every numpy array reachable from value through containers and objects."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_in(item)
    elif hasattr(value, "__dict__"):
        yield from arrays_in(vars(value))


class TestOnePassStep:
    def test_one_forward_backward_and_sgd_step_on_the_plan_rows(self, monkeypatch):
        # one step of a mixed-only, a regularized and an ERM run: c = 1, m = 2, R = 3
        configs = [step_test_config(s, epochs=1, batch_size=14)
                   for s in ("erm", "regmixup", "mixup")]
        plans, calls = recorded_plans(monkeypatch), []
        for name in ("forward", "backward", "sgd_step"):
            def spy(*args, _name=name, _call=getattr(nn, name), **kwargs):
                calls.append((_name, args, kwargs))
                return _call(*args, **kwargs)
            monkeypatch.setattr(nn, name, spy)
        results = train(configs, tiny_image_dataset(n=14), None)
        assert [name for name, _, _ in calls] == ["forward", "backward", "sgd_step"]
        assert len(plans) == 1 and all(kwargs["_plan"] is plans[0] for _, _, kwargs in calls)
        # blocks 0, 1 take the clean rows of runs 1, 2 and blocks 2, 3 the
        # mixed rows of runs 0, 1, whose gradients backward writes into the
        # sums; the clean ones, overlapping them in run 1, have arrays of their own
        plan = plans[0]
        assert plan.run_map == ((4,), ((slice(0, 2), slice(1, 3)), (slice(2, 4), slice(0, 2))))
        clean, mixed = ([*out.d_weights, *out.d_biases] for out in plan.outs)
        assert all(a is b for a, b in zip(clean, plan.clean, strict=True))
        assert all(np.shares_memory(a, g) and a.shape[0] == 2 for a, g in zip(mixed, plan.sums))
        assert not any(np.shares_memory(a, g) for a, g in zip(clean, plan.sums))
        _, (_, rows), _ = calls[0]
        assert rows.shape == ((3 - 1 + 2) * 14, 4)  # clean rows of runs 1, 2; mixed of 0, 1
        assert np.shares_memory(rows, plans[0].rows[14][0])
        for config, (net, _) in zip(configs, results):
            assert nets_equal(net, reference_train(config, tiny_image_dataset(n=14), None)[0])


class TestDivergence:
    def _train_quietly(self, configs, ds):
        # numpy's overflow warnings must stay off stderr: any warning fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return train(configs, ds, None)

    def test_non_finite_loss_names_run_epoch_and_step(self):
        tr, _ = normalized_moons()
        cfg = TrainConfig(strategy="erm", seed=4, **{**FAST, "learning_rate": 1e6})
        with pytest.raises(trainer.DivergedError) as err:
            self._train_quietly(cfg, tr)
        found = re.fullmatch(
            r"training diverged: erm seed 4: non-finite loss at epoch (\d+), step (\d+)",
            str(err.value),
        )
        steps_per_epoch = len(trainer._batch_bounds(tr.n, cfg.batch_size))
        assert found and int(found[2]) // steps_per_epoch == int(found[1])

    def test_first_bad_run_of_a_group_is_named(self):
        tr, _ = normalized_moons()
        configs = [
            TrainConfig(strategy="regmixup", alpha=1.0, eta=eta, seed=seed, **FAST)
            for seed, eta in ((7, 1.0), (8, 1e300), (9, 1e300))
        ]
        with pytest.raises(trainer.DivergedError, match="regmixup seed 8: non-finite loss"):
            self._train_quietly(configs, tr)

    @pytest.mark.parametrize("strategy", ["mixup", "reg_mixup_plus_regcutmix"])
    def test_tiny_alpha_run_trains_beside_its_group(self, strategy):
        # alpha 1e-5 draws every lambda at 0 or 1 to rounding
        ds = tiny_image_dataset(n=14)
        configs = [step_test_config(strategy), step_test_config(strategy, seed=2, alpha=1e-5)]
        (net, record), (tiny, _) = self._train_quietly(configs, ds)
        assert all(np.isfinite(a).all() for a in (*tiny.weights, *tiny.biases))
        solo_net, solo_record = self._train_quietly(configs[0], ds)
        assert nets_equal(net, solo_net)
        assert record.epoch_losses == solo_record.epoch_losses

    def test_non_finite_final_weights(self):
        # one full-batch step: its loss is finite, the update overflows
        tr, _ = normalized_moons()
        cfg = TrainConfig(
            strategy="erm", hidden_dims=(4,), epochs=1, batch_size=tr.n,
            learning_rate=1e300, momentum=0.0, weight_decay=1e300, schedule="constant",
            seed=2,
        )
        with pytest.raises(trainer.DivergedError, match="erm seed 2: non-finite weights after epoch 0, step 0"):
            self._train_quietly(cfg, tr)


class TestRecord:
    def test_byte_identical_for_equal_config(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="regmixup", alpha=5.0, eta=1.0, seed=3, **FAST)
        _, rec_a = train(cfg, tr, val)
        _, rec_b = train(cfg, tr, val)
        assert rec_a.to_text() == rec_b.to_text()
        assert rec_a.to_text().encode() == rec_b.to_text().encode()

    def test_round_trip(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="mixup", alpha=0.4, seed=5, **FAST)
        _, rec = train(cfg, tr, val)
        back = ExperimentRecord.from_text(rec.to_text())
        assert back.to_text() == rec.to_text()
        assert back.train_config() == cfg

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRecord.from_text("vrlkit-record v9\n[config]\n")


class TestCrossValidate:
    def test_singleton_grid(self):
        tr, _ = normalized_moons()
        cfg = TrainConfig(strategy="erm", seed=1, **FAST)
        assert cross_validate([cfg], tr) == cfg

    def test_untrained_config_never_wins(self):
        tr, _ = normalized_moons(n=400)
        # an effectively untrained run (vanishing lr) vs a real one
        dead = TrainConfig(
            strategy="erm", hidden_dims=(16,), epochs=1, batch_size=32,
            learning_rate=1e-12, seed=1,
        )
        live = TrainConfig(
            strategy="erm", hidden_dims=(16,), epochs=30, batch_size=32,
            learning_rate=0.1, seed=1,
        )
        assert cross_validate([dead, live], tr) == live

    def test_empty_grid(self):
        tr, _ = normalized_moons()
        with pytest.raises(ValueError):
            cross_validate([], tr)

    def test_default_grids_match_protocol(self):
        assert MIXUP_ALPHA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 5.0, 10.0, 20.0)
        assert REGMIXUP_ALPHA_GRID == (
            0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 5.0, 10.0, 15.0, 20.0, 30.0
        )
        assert REGMIXUP_ETA_GRID == (0.1, 1.0, 2.0)


class TestEnsemble:
    def test_singleton_matches_single_network(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="erm", seed=11, **FAST)
        solo, _ = train(cfg, tr, val)
        ens = train_ensemble(cfg, 1, tr, val)
        assert nets_equal(solo, ens.members[0])
        probs, logits = ensemble_predict(ens, val.x, "mean_prob")
        want, _, _ = forward(solo, val.x)
        assert np.allclose(logits, want, atol=0, rtol=0)

    def test_duplicate_members_collapse(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="erm", seed=2, **FAST)
        net, _ = train(cfg, tr, val)
        ens = EnsembleModel(nn.Network.stack([net, net]).unstack())
        p_prob, _ = ensemble_predict(ens, val.x, "mean_prob")
        p_logit, _ = ensemble_predict(ens, val.x, "mean_logit")
        from vrlkit.nn import softmax

        single = softmax(forward(net, val.x)[0])
        assert np.allclose(p_prob, single, atol=1e-15)
        assert np.allclose(p_logit, single, atol=1e-15)

    def test_incongruent_architectures_rejected(self):
        from vrlkit.nn import LayerSpec, Network

        a = Network([LayerSpec(2, 3, "identity")])
        b = Network([LayerSpec(2, 4, "identity")])
        with pytest.raises(ValueError):
            EnsembleModel([a, b])

    def test_mean_prob_rows_sum_to_one(self):
        tr, val = normalized_moons()
        cfg = TrainConfig(strategy="erm", seed=6, **FAST)
        ens = train_ensemble(cfg, 3, tr, val)
        probs, _ = ensemble_predict(ens, val.x, "mean_prob")
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mean_logit_symmetry(self):
        from vrlkit.nn import LayerSpec, Network

        a = Network([LayerSpec(2, 2, "identity")])
        a.weights[0] = np.array([[1.0, 0.0], [0.0, 0.0]])
        a.biases[0] = np.array([1.0, 0.0])
        b = Network([LayerSpec(2, 2, "identity")])
        b.weights[0] = np.array([[0.0, 1.0], [0.0, 0.0]])
        b.biases[0] = np.array([0.0, 1.0])
        x = np.array([[1.0, 1.0]])
        la, _, _ = forward(a, x)
        lb, _, _ = forward(b, x)
        assert np.allclose(la, [[2.0, 0.0]]) and np.allclose(lb, [[0.0, 2.0]])
        probs, _ = ensemble_predict(EnsembleModel([a, b]), x, "mean_logit")
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_ensemble_val_accuracy_not_below_members(self):
        base = make_two_moons(400, 0.2, RngState(21).split(1))
        tr_raw, val_raw = split(base, 0.8, stratified=True, rng=RngState(21).split(2))
        stats = fit_normalizer(tr_raw)
        tr, val = apply_normalizer(tr_raw, stats), apply_normalizer(val_raw, stats)
        for trial in range(5):
            cfg = TrainConfig(
                strategy="erm", hidden_dims=(16,), epochs=15, batch_size=32,
                learning_rate=0.1, seed=100 + trial,
            )
            ens = train_ensemble(cfg, 5, tr, val)
            member_acc = np.mean([accuracy(m, val) for m in ens.members])
            probs, _ = ensemble_predict(ens, val.x, "mean_logit")
            ens_acc = (probs.argmax(axis=1) == val.labels).mean()
            assert ens_acc >= member_acc - 0.01
