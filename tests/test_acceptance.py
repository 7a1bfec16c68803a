"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
from scipy import stats as scipy_stats

from vrlkit.cli import EXIT_OK, main as cli_main
from vrlkit.datagen import (
    CorruptionSpec,
    apply_normalizer,
    corrupt,
    fit_normalizer,
    make_blob,
    make_gaussian_blobs,
    make_two_moons,
    split,
)
from vrlkit.evalkit import (
    BinningSpec,
    adaece,
    apply_temperature,
    auroc,
    barrier_statistic,
    ece,
    entropy_profile,
    fisher_criterion,
    fit_temperature,
)
from vrlkit.nn import backward, cross_entropy_soft, forward, softmax
from vrlkit.tensor import RngState
from vrlkit.trainer import TrainConfig, accuracy, train
from vrlkit.uncertainty import (
    LaplacePosterior,
    UncertaintyScores,
    ds_score,
    energy_score,
    entropy_of,
    fit_laplace_last_layer,
    mc_predictive,
    meanfield_predictive,
)
from vrlkit.vicinal import BetaParams, mixup_batch, regmix_loss, sample_lambdas

from test_evalkit import adaece_oracle, auroc_brute_force, ece_oracle_equal_width
from test_nn import finite_diff_grads, random_net


def report(num, ok, label):
    print(f"\n[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = RngState(101)
    ok = True
    for trial in range(20):
        depth = trial % 4  # 0..3 hidden layers
        widths = [int(rng.integers(2, 17)) for _ in range(depth)]
        in_dim = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        activation = "relu" if trial % 2 == 0 else "tanh"
        net = random_net([in_dim, *widths, k], activation, rng.split(trial))
        batch_rng = rng.split(1000 + trial)
        x = batch_rng.normal((6, in_dim))
        y = np.eye(k)[np.asarray(batch_rng.integers(0, k, size=6))]
        # ERM objective
        _, _, cache = forward(net, x)
        grads = backward(net, cache, y)

        def erm_loss():
            logits, _, _ = forward(net, x)
            return cross_entropy_soft(softmax(logits), y)

        numeric = finite_diff_grads(erm_loss, net)
        for a, b in zip([*grads.d_weights, *grads.d_biases], numeric):
            ok &= bool(np.all(np.abs(a - b) <= 1e-4 * (np.abs(b) + 1e-6)))
        # two-term mixed objective
        mixed = mixup_batch(x, y, BetaParams(10.0), rng=batch_rng.split(1))
        eta = [0.5, 1.0, 2.0][trial % 3]
        _, rgrads = regmix_loss(net, x, y, mixed, eta)

        def reg_loss():
            return regmix_loss(net, x, y, mixed, eta)[0]

        numeric = finite_diff_grads(reg_loss, net)
        for a, b in zip([*rgrads.d_weights, *rgrads.d_biases], numeric):
            ok &= bool(np.all(np.abs(a - b) <= 1e-4 * (np.abs(b) + 1e-6)))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(1, ok, f"backprop matches central finite differences ({elapsed:.1f}s)")


def test_criterion_02_loss_identities():
    rng = RngState(202)
    ok = True
    # (a) CE is linear in the target
    p = softmax(rng.normal((8, 5)))
    yi = np.eye(5)[np.asarray(rng.integers(0, 5, size=8))]
    yj = np.eye(5)[np.asarray(rng.integers(0, 5, size=8))]
    for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
        mixed = cross_entropy_soft(p, lam * yi + (1 - lam) * yj)
        parts = lam * cross_entropy_soft(p, yi) + (1 - lam) * cross_entropy_soft(p, yj)
        ok &= abs(mixed - parts) <= 1e-12
    # (b) dividing the two-term loss by (1+eta) equals the gamma-weighted mixture
    net = random_net([3, 8, 4], "relu", rng.split(1))
    x = rng.normal((10, 3))
    y = np.eye(4)[np.asarray(rng.integers(0, 4, size=10))]
    mixed_batch = mixup_batch(x, y, BetaParams(10.0), rng=rng.split(2))
    for eta in (0.1, 1.0, 2.0):
        loss, _ = regmix_loss(net, x, y, mixed_batch, eta)
        gamma = 1.0 / (1.0 + eta)
        lc = cross_entropy_soft(softmax(forward(net, x)[0]), y)
        lm = cross_entropy_soft(
            softmax(forward(net, mixed_batch.x_mixed)[0]), mixed_batch.y_mixed
        )
        ok &= abs(loss / (1.0 + eta) - (gamma * lc + (1 - gamma) * lm)) <= 1e-12
    # (c) eta=0 training is bit-for-bit ERM under a shared seed
    base = make_two_moons(240, 0.15, RngState(7).split(1))
    tr_raw, val_raw = split(base, 0.8, stratified=True, rng=RngState(7).split(2))
    stats = fit_normalizer(tr_raw)
    tr, val = apply_normalizer(tr_raw, stats), apply_normalizer(val_raw, stats)
    fast = dict(hidden_dims=(16,), epochs=4, batch_size=32, learning_rate=0.1, seed=3)
    erm_net, erm_rec = train(TrainConfig(strategy="erm", **fast), tr, val)
    reg_net, reg_rec = train(
        TrainConfig(strategy="regmixup", alpha=10.0, eta=0.0, **fast), tr, val
    )
    ok &= all(np.array_equal(a, b) for a, b in zip(erm_net.weights, reg_net.weights))
    ok &= all(np.array_equal(a, b) for a, b in zip(erm_net.biases, reg_net.biases))
    ok &= erm_rec.epoch_losses == reg_rec.epoch_losses
    report(2, ok, "target linearity, mixture-weight identity, eta=0 bitwise ERM")


def test_criterion_03_beta_sampler_fidelity():
    n = 10**6
    bins = 50
    ok = True
    details = []
    for alpha in (0.2, 1.0, 10.0, 20.0):
        draws = sample_lambdas(BetaParams(alpha), n, RngState(int(alpha * 100) + 3))
        var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        mu4 = 3.0 / (16.0 * (2.0 * alpha + 1.0) * (2.0 * alpha + 3.0))
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt((mu4 - var * var) / n)
        ok &= abs(draws.mean() - 0.5) < 3 * se_mean
        ok &= abs(draws.var() - var) < 3 * se_var
        edges = scipy_stats.beta.ppf(np.linspace(0, 1, bins + 1), alpha, alpha)
        edges[0], edges[-1] = 0.0, 1.0
        observed, _ = np.histogram(draws, bins=edges)
        statistic = ((observed - n / bins) ** 2 / (n / bins)).sum()
        p = scipy_stats.chi2.sf(statistic, bins - 1)
        ok &= p > 0.001
        details.append(f"a={alpha:g} p={p:.3f}")
    report(3, ok, "Beta(a,a) moments within 3 SE and GOF " + ", ".join(details))


def test_criterion_04_metric_oracle_equivalence():
    rng = np.random.default_rng(404)
    ok = True
    for trial in range(25):
        n_in = int(rng.integers(1, 201))
        n_out = int(rng.integers(1, 201))
        vi = rng.normal(size=n_in)
        vo = rng.normal(size=n_out) + 0.2
        if trial % 4 == 0:
            vi, vo = np.round(vi, 1), np.round(vo, 1)
        got = auroc(
            UncertaintyScores("entropy", vi), UncertaintyScores("entropy", vo)
        )
        ok &= got == auroc_brute_force(vi, vo)
    for _ in range(50):
        probs = softmax(rng.normal(size=(20, 4)) * 2)
        labels = rng.integers(0, 4, size=20)
        ok &= abs(
            ece(probs, labels, BinningSpec("equal_width", 15))
            - ece_oracle_equal_width(probs, labels, 15)
        ) <= 1e-12
        ok &= abs(
            adaece(probs, labels, BinningSpec("equal_mass", 5))
            - adaece_oracle(probs, labels, 5)
        ) <= 1e-12
    report(4, ok, "AUROC exact vs pair counting; ECE/AdaECE vs enumeration oracle")


def test_criterion_05_ds_energy_equivalence():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 8))
        logits_in = rng.normal(size=(int(rng.integers(5, 60)), k)) * 3
        logits_out = rng.normal(size=(int(rng.integers(5, 60)), k)) * 3 - 1
        a_ds = auroc(ds_score(logits_in), ds_score(logits_out))
        a_en = auroc(energy_score(logits_in), energy_score(logits_out))
        ok &= abs(a_ds - a_en) <= 1e-12
    report(5, ok, "AUROC(DS) equals AUROC(Energy) on random logit fixtures")


def _laplace_fixture():
    base = make_gaussian_blobs(300, 2, 6.0, RngState(40).split(1), noise_sd=1.0)
    tr_raw, _ = split(base, 0.8, stratified=True, rng=RngState(41).split(2))
    stats = fit_normalizer(tr_raw)
    tr = apply_normalizer(tr_raw, stats)
    cfg = TrainConfig(
        strategy="erm", hidden_dims=(8,), epochs=40, batch_size=32,
        learning_rate=0.1, seed=0,
    )
    net, _ = train(cfg, tr, None)
    return net, tr


def test_criterion_06_laplace_limits():
    ok = True
    # exact zero covariance -> MC predictive is exactly softmax(s)
    rng = np.random.default_rng(606)
    post0 = LaplacePosterior(
        map_weights=rng.normal(size=(3, 4)), V=np.eye(4), U=np.eye(3),
        sigma0=1.0, include_bias=False,
    )
    feats0 = np.zeros((3, 4))
    probs = mc_predictive(post0, feats0, m=7, rng=RngState(1).split(0))
    ok &= np.array_equal(probs, softmax(feats0 @ post0.map_weights.T))
    # mean-field with lambda=0 is exactly softmax(s)
    net, tr = _laplace_fixture()
    post = fit_laplace_last_layer(net, tr, sigma0=1.0, exact=True)
    logits, feats, _ = forward(net, tr.x)
    ok &= np.array_equal(meanfield_predictive(post, feats, 0.0), softmax(logits))
    # KFAC vs exact-GGN predictive-entropy ordering
    c0 = tr.x[tr.labels == 0].mean(axis=0)
    c1 = tr.x[tr.labels == 1].mean(axis=0)
    lams = np.linspace(0.0, 1.0, 40)[:, None]
    _, pfeats, _ = forward(net, (1 - lams) * c0 + lams * c1)
    p_kfac = mc_predictive(post, pfeats, m=800, rng=RngState(2).split(0))
    p_exact = mc_predictive(post, pfeats, m=800, rng=RngState(3).split(0), exact=True)
    rho = scipy_stats.spearmanr(entropy_of(p_kfac), entropy_of(p_exact)).statistic
    ok &= rho >= 0.9
    report(6, ok, f"MC/mean-field degenerate limits exact; KFAC-exact Spearman {rho:.3f}")


def test_criterion_07_entropy_barrier():
    # The barrier is high in the middle of an opposite-class path and low at
    # its ends: (a) mid-path entropy >= 2x ERM's, (b) endpoint entropy below
    # Mixup's at the same alpha (the regularized objective without its clean
    # term), (c) accuracy on the held-out split within 0.02 of ERM's. The
    # ratio barrier_statistic is printed but not gated: its endpoint factor
    # measures the softened in-distribution confidence the regularizer is
    # meant to bring (README.md, "Criterion 7").
    t0 = time.perf_counter()
    arms = {
        "erm": {"strategy": "erm"},
        "regmixup": {"strategy": "regmixup", "alpha": 10.0, "eta": 1.0},
        "mixup": {"strategy": "mixup", "alpha": 10.0},
    }
    mid, ends, ratio, acc = ({arm: [] for arm in arms} for _ in range(4))
    for seed in range(5):
        base = make_two_moons(500, 0.1, RngState(1000).split(1))
        tr_raw, te_raw = split(base, 0.8, stratified=True, rng=RngState(50).split(2))
        norm = fit_normalizer(tr_raw)
        tr, te = apply_normalizer(tr_raw, norm), apply_normalizer(te_raw, norm)
        for arm, kwargs in arms.items():
            cfg = TrainConfig(
                hidden_dims=(64, 64),
                epochs=60,
                batch_size=64,
                learning_rate=0.1,
                seed=seed,
                **kwargs,
            )
            net, _ = train(cfg, tr, None)
            profile = entropy_profile(net, tr, n_pairs=1000, rng=RngState(seed).split(300))
            lam = profile.lambda_grid
            mid[arm].append(profile.entropies[:, (lam >= 0.4) & (lam <= 0.6)].mean())
            ends[arm].append(profile.entropies[:, (lam <= 0.05) | (lam >= 0.95)].mean())
            ratio[arm].append(barrier_statistic(profile))
            acc[arm].append(accuracy(net, te))
    height_wins = sum(r > e for r, e in zip(mid["regmixup"], mid["erm"]))
    height = np.mean(mid["regmixup"]) / np.mean(mid["erm"])
    ends_wins = sum(r < m for r, m in zip(ends["regmixup"], ends["mixup"]))
    acc_gap = np.mean(acc["regmixup"]) - np.mean(acc["erm"])
    elapsed = time.perf_counter() - t0
    ok = height_wins >= 4 and height >= 2.0
    ok &= ends_wins >= 4
    ok &= abs(acc_gap) <= 0.02
    ok &= elapsed < 300.0
    ratios = " ".join(f"{arm}={np.mean(v):.2f}" for arm, v in ratio.items())
    report(
        7, ok,
        f"mid-path entropy wins {height_wins}/5, seed-mean {height:.2f}x ERM; "
        f"endpoint entropy below mixup {ends_wins}/5 "
        f"({np.mean(ends['regmixup']):.3f} vs {np.mean(ends['mixup']):.3f}); "
        f"acc gap {acc_gap:+.3f}; barrier statistic {ratios} ({elapsed:.0f}s)",
    )


def test_criterion_08_ood_direction():
    aurocs = {"erm": [], "mixup": [], "regmixup": []}
    accs = {"erm": [], "mixup": [], "regmixup": []}
    for seed in range(5):
        base = make_gaussian_blobs(900, 3, 8.0, RngState(777).split(1), noise_sd=1.0)
        tr_raw, te_raw = split(base, 0.75, stratified=True, rng=RngState(8).split(2))
        stats = fit_normalizer(tr_raw)
        tr, te = apply_normalizer(tr_raw, stats), apply_normalizer(te_raw, stats)
        ood = apply_normalizer(
            make_blob(300, (5.66, 5.66), 1.0, RngState(778).split(3)), stats
        )
        for strategy in ("erm", "mixup", "regmixup"):
            cfg = TrainConfig(
                strategy=strategy,
                hidden_dims=(32, 32),
                activation="tanh",
                alpha=None if strategy == "erm" else (1.0 if strategy == "mixup" else 10.0),
                eta=1.0 if strategy == "regmixup" else None,
                epochs=40,
                batch_size=64,
                learning_rate=0.1,
                seed=seed,
            )
            net, _ = train(cfg, tr, None)
            logits_in, _, _ = forward(net, te.x)
            logits_out, _, _ = forward(net, ood.x)
            aurocs[strategy].append(auroc(ds_score(logits_in), ds_score(logits_out)))
            accs[strategy].append(accuracy(net, te))
    mean = {s: float(np.mean(v)) for s, v in aurocs.items()}
    acc_mean = {s: float(np.mean(v)) for s, v in accs.items()}
    ok = mean["regmixup"] >= mean["mixup"]
    ok &= acc_mean["regmixup"] >= acc_mean["erm"] - 0.01
    report(
        8, ok,
        f"AUROC means erm={mean['erm']:.3f} mixup={mean['mixup']:.3f} "
        f"regmixup={mean['regmixup']:.3f}; acc regmixup={acc_mean['regmixup']:.3f} "
        f"vs erm={acc_mean['erm']:.3f}",
    )


def test_criterion_09_temperature_contract():
    ok = True
    spec = BinningSpec("equal_width", 15)
    for seed in range(10):
        base = make_gaussian_blobs(600, 3, 4.0, RngState(900 + seed).split(1), noise_sd=1.4)
        pool, te_raw = split(base, 0.75, stratified=True, rng=RngState(901).split(2))
        tr_raw, val_raw = split(pool, 0.85, stratified=True, rng=RngState(902).split(3))
        stats = fit_normalizer(tr_raw)
        tr = apply_normalizer(tr_raw, stats)
        val = apply_normalizer(val_raw, stats)
        te = apply_normalizer(te_raw, stats)
        cfg = TrainConfig(
            strategy="erm", hidden_dims=(16,), epochs=25, batch_size=32,
            learning_rate=0.1, seed=seed,
        )
        net, _ = train(cfg, tr, None)
        logits_val, _, _ = forward(net, val.x)
        logits_te, _, _ = forward(net, te.x)
        temp = fit_temperature(logits_val, val.labels, spec)
        before = ece(softmax(logits_val), val.labels, spec)
        after = ece(apply_temperature(logits_val, temp), val.labels, spec)
        ok &= after <= before + 1e-15
        acc_before = (softmax(logits_te).argmax(axis=1) == te.labels).mean()
        acc_after = (
            apply_temperature(logits_te, temp).argmax(axis=1) == te.labels
        ).mean()
        ok &= acc_before == acc_after
    report(9, ok, "fitted T never raises val ECE and never changes test accuracy")


def test_criterion_10_fisher_criterion():
    rng = np.random.default_rng(110)
    features = np.vstack(
        [rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + [4.0, 1.0]]
    )
    labels = np.array([0] * 30 + [1] * 30)
    base_val = fisher_criterion(features, labels, epsilon=0.0)
    ok = True
    for _ in range(20):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(2, 2))
        ok &= abs(fisher_criterion(features @ m.T, labels, epsilon=0.0) - base_val) <= (
            1e-6 * abs(base_val)
        )
    monotone_seeds = 0
    for seed in range(5):
        base = make_gaussian_blobs(3000, 3, 8.0, RngState(777).split(1), noise_sd=1.0)
        tr_raw, te_raw = split(base, 0.75, stratified=True, rng=RngState(8).split(2))
        stats = fit_normalizer(tr_raw)
        tr = apply_normalizer(tr_raw, stats)
        cfg = TrainConfig(
            strategy="erm", hidden_dims=(32, 32), epochs=30, batch_size=64,
            learning_rate=0.1, seed=seed,
        )
        net, _ = train(cfg, tr, None)
        values = []
        for level in range(1, 6):
            raw = corrupt(te_raw, CorruptionSpec("gaussian_noise", level),
                          RngState(9).split(level))
            ds = apply_normalizer(raw, stats)
            _, feats, _ = forward(net, ds.x)
            values.append(fisher_criterion(feats, ds.labels, epsilon=1e-9))
        monotone_seeds += all(a >= b for a, b in zip(values, values[1:]))
    ok &= monotone_seeds >= 4
    report(
        10, ok,
        f"linear-map invariance; noise-intensity monotone in {monotone_seeds}/5 seeds",
    )


def test_criterion_11_cli_determinism(tmp_path):
    manifest = tmp_path / "exp.cfg"
    manifest.write_text(
        "data.kind = blobs\ndata.n = 240\ndata.k = 3\ndata.separation = 8.0\n"
        "data.noise_sd = 1.0\ndata.seed = 5\ndata.test_frac = 0.25\n"
        "data.val_frac = 0.1\nood.kind = blob\nood.center = 10,10\nood.n = 60\n"
        "corruptions = gaussian_noise:1-2\nstrategies = erm,regmixup\nseeds = 0,1\n"
        "train.hidden = 8\ntrain.epochs = 4\ntrain.batch_size = 32\ntrain.lr = 0.1\n"
        "train.activation = tanh\nregmixup.alpha = 10\nregmixup.eta = 1\n"
        "heatmap.pairs = 40\n"
    )
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        args = ["--config", str(manifest), "--out", str(out)]
        for command in ("train", "eval", "ood", "calibrate", "heatmap", "fisher"):
            assert cli_main([command, *args]) == EXIT_OK
        assert cli_main(["compare", *args]) == EXIT_OK
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        listing = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                listing[str(p.relative_to(run_dir))] = p.read_bytes()
        for p in out.glob("compare_*.csv"):
            listing[p.name] = p.read_bytes()
        digests.append(listing)
    ok = digests[0].keys() == digests[1].keys() and all(
        digests[0][k] == digests[1][k] for k in digests[0]
    )
    report(11, ok, "every command reproduces byte-identical artifacts on rerun")
