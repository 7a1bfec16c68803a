"""The three benchmark workloads: their inputs, their stages and their output
checks.

Each workload builds its inputs from the workload seed alone, so the same
seed always gives the same inputs. A workload object offers:

- ``probe_args()``: arguments for ``probe.py``, which measures set-up time in
  a fresh interpreter;
- ``train_samples``: training rows x epochs x runs for one iteration, taken
  from the configs the benchmark passes in;
- ``stages(out_dir)``: the timed stages of one iteration, as
  ``(group, label, callable)``; ``group`` is ``train``, ``calibrate`` or
  ``score``;
- ``check(out_dir)``: the output checks of one finished iteration, as
  ``(name, ok, detail)``;
- ``digest(out_dir)``: a hash of every artifact, compared across iterations.
"""

import contextlib
import csv
import hashlib
import io
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from vrlkit import cli, evalkit, nn, trainer, uncertainty
from vrlkit.datagen import (
    CIFAR_RECORD_BYTES,
    apply_normalizer,
    fit_normalizer,
    make_gaussian_blobs,
    make_uniform_box,
    split,
)
from vrlkit.tensor import RngState
from vrlkit.trainer import TrainConfig

METRIC_HEADER = ["strategy", "seed", "dataset", "metric", "measure", "value"]
COMPARE_HEADER = ["manifest", "strategy", "dataset", "metric", "measure", "mean", "stddev"]
OOD_MEASURES = ("ds", "energy", "entropy", "mahalanobis", "mps_uncertainty")
CALIBRATE_METRICS = ("adaece_post_t", "adaece_pre_t", "ece_post_t", "ece_pre_t", "temperature")
UNIT_INTERVAL = {"accuracy", "auroc", "adaece_post_t", "adaece_pre_t", "ece_post_t", "ece_pre_t"}


def _file_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list, list]:
    """(header, rows) of a CRLF CSV written by vrlkit.cli.write_csv."""
    text = path.read_bytes().decode("ascii")
    if not text.endswith("\r\n"):
        raise ValueError(f"{path.name}: not CRLF-terminated")
    header, *rows = list(csv.reader(io.StringIO(text, newline="")))
    return header, rows


class CliWorkload:
    """The full `vrl` pipeline on one manifest, one `vrl` command per stage."""

    COMMANDS = (
        ("train", "train"),
        ("score", "eval"),
        ("score", "ood"),
        ("calibrate", "calibrate"),
        ("score", "heatmap"),
        ("score", "fisher"),
        ("score", "compare"),
    )

    def __init__(self, manifest_path: Path, accuracy_floor: float, seeds: int | None = None):
        self.manifest_path = manifest_path
        self.accuracy_floor = accuracy_floor
        self.seeds_flag = [] if seeds is None else ["--seeds", str(seeds)]
        manifest = cli.load_manifest(manifest_path, out_override="unused", seeds_override=seeds)
        self.strategies = sorted(manifest.strategies)
        self.seeds = sorted(manifest.seeds)
        self.n_corrupted = len(cli.parse_corruptions(manifest.config.get("corruptions", "")))
        self.content_hash = manifest.content_hash()
        self.runs = len(self.strategies) * len(self.seeds)
        epochs = [cli.train_config_for(manifest, s, 0).epochs for s in self.strategies]
        # The split sizes follow from the manifest alone; the set-up probes
        # build the same datasets again, timed.
        train_rows = cli.build_pipeline(manifest).train.n
        self.train_samples = train_rows * sum(epochs) * len(self.seeds)

    def probe_args(self) -> list:
        return ["cli", str(self.manifest_path)]

    def stages(self, out_dir: Path) -> list:
        return [(group, cmd, self._command(cmd, out_dir)) for group, cmd in self.COMMANDS]

    def _command(self, cmd: str, out_dir: Path):
        argv = [cmd, "--config", str(self.manifest_path), "--out", str(out_dir), *self.seeds_flag]

        def run():
            # `vrl` prints the artifact path on stdout; keep it off ours.
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != cli.EXIT_OK:
                raise RuntimeError(f"vrl {cmd} exited with {rc}")

        return run

    def digest(self, out_dir: Path) -> str:
        return _file_digest(out_dir)

    def check(self, out_dir: Path) -> list:
        run_dir = out_dir / self.content_hash
        per_dataset = 1 + self.n_corrupted
        csv_rows = {
            "eval.csv": self.runs * per_dataset,
            "ood.csv": self.runs * len(OOD_MEASURES),
            "calibrate.csv": self.runs * len(CALIBRATE_METRICS),
            "barrier.csv": self.runs,
            "fisher.csv": self.runs * per_dataset,
        }
        groups = len(self.strategies) * (2 * per_dataset + len(OOD_MEASURES) + len(CALIBRATE_METRICS) + 1)
        return _run_checks([
            ("manifest", lambda: _require((run_dir / "manifest.txt").is_file(), "missing")),
            ("records", lambda: self._check_records(run_dir)),
            ("checkpoints", lambda: self._check_checkpoints(run_dir)),
            *((name, lambda name=name, rows=rows: self._check_metric_csv(run_dir / name, rows))
              for name, rows in csv_rows.items()),
            ("svgs", lambda: self._check_svgs(run_dir)),
            ("compare.csv", lambda: self._check_compare(out_dir, groups)),
            ("accuracy_floor", lambda: self._check_accuracy(run_dir)),
        ])

    def _check_records(self, run_dir: Path):
        for s in self.strategies:
            for seed in self.seeds:
                path = run_dir / "records" / f"{s}_seed{seed}.record"
                record = trainer.ExperimentRecord.from_text(path.read_text())
                config = record.train_config()
                _require(len(record.epoch_losses) == config.epochs, f"{path.name}: epoch count")
                _require(all(math.isfinite(v) for v in record.epoch_losses), f"{path.name}: loss")
                _require(0.0 <= record.metrics["val_accuracy"] <= 1.0, f"{path.name}: accuracy")
                _require(record.wall_clock_s == 0.0, f"{path.name}: wall clock not zeroed")

    def _check_checkpoints(self, run_dir: Path):
        for s in self.strategies:
            for seed in self.seeds:
                net = nn.load_checkpoint(run_dir / "checkpoints" / f"{s}_seed{seed}.ckpt")
                _require(all(np.isfinite(w).all() for w in net.weights), f"{s}_seed{seed}: weights")

    def _check_metric_csv(self, path: Path, n_rows: int):
        header, rows = _read_csv(path)
        _require(header == METRIC_HEADER, f"{path.name}: header {header}")
        _require(len(rows) == n_rows, f"{path.name}: {len(rows)} rows, expected {n_rows}")
        for strategy, seed, dataset, metric, measure, value in rows:
            _check_value(metric, float(value), path.name)

    def _check_svgs(self, run_dir: Path):
        for kind in ("reliability", "heatmap"):
            for s in self.strategies:
                for seed in self.seeds:
                    text = (run_dir / f"{kind}_{s}_seed{seed}.svg").read_text(encoding="ascii")
                    _require(text.startswith("<svg") and text.endswith("</svg>\n"), f"{kind} svg")

    def _check_compare(self, out_dir: Path, n_rows: int):
        paths = list(out_dir.glob("compare_*.csv"))
        _require(len(paths) == 1, f"{len(paths)} compare CSVs")
        header, rows = _read_csv(paths[0])
        _require(header == COMPARE_HEADER, f"compare header {header}")
        _require(len(rows) == n_rows, f"compare: {len(rows)} rows, expected {n_rows}")
        for row in rows:
            _require(math.isfinite(float(row[5])) and math.isfinite(float(row[6])), "compare value")

    def _check_accuracy(self, run_dir: Path) -> str:
        _, rows = _read_csv(run_dir / "eval.csv")
        by_strategy = {}
        for strategy, _, dataset, metric, _, value in rows:
            if dataset == "test" and metric == "accuracy":
                by_strategy.setdefault(strategy, []).append(float(value))
        means = {s: float(np.mean(v)) for s, v in sorted(by_strategy.items())}
        _require(set(means) == set(self.strategies), "strategies missing from eval.csv")
        for s, mean in means.items():
            _require(mean > self.accuracy_floor, f"{s}: mean test accuracy {mean:.3f}")
        return " ".join(f"{s}={m:.3f}" for s, m in means.items())


def _run_checks(checks: list) -> list:
    """Run (name, fn) checks; a check fails when fn raises. Returns
    (name, ok, detail) with fn's return value or the error as detail."""
    results = []
    for name, fn in checks:
        try:
            results.append((name, True, fn() or ""))
        except Exception as err:  # a failed check is reported, not raised
            results.append((name, False, f"{type(err).__name__}: {err}"))
    return results


def _require(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def _check_value(metric: str, value: float, where: str):
    _require(math.isfinite(value), f"{where}: {metric} = {value}")
    if metric in UNIT_INTERVAL:
        _require(0.0 <= value <= 1.0, f"{where}: {metric} = {value} outside [0, 1]")
    elif metric == "temperature":
        _require(0.1 <= value <= 10.0, f"{where}: T = {value} outside [0.1, 10]")
    else:  # fisher, barrier
        _require(value >= 0.0, f"{where}: {metric} = {value} < 0")


# --- demo-blobs --------------------------------------------------------------

# The shipped demo trains 15 runs (3 strategies x 5 seeds) and takes 15-30 s
# per pass, ~80% of it fitting temperatures. `--seeds 1` keeps every command
# and strategy at a fifth of the time, so a run holds 3-4 passes and the
# benchmark's 70 runs fit its time budget.
DEMO_SEEDS = 1


def demo_blobs(root: Path, tmp: Path, seed: int) -> CliWorkload:
    """configs/demo.cfg as shipped, with data.seed set to the workload seed,
    run as `vrl <command> --seeds 1`."""
    text = (root / "configs" / "demo.cfg").read_text()
    text, n = re.subn(r"(?m)^data\.seed\s*=\s*\d+", f"data.seed = {seed}", text)
    if n != 1:
        raise ValueError("configs/demo.cfg has no single data.seed line")
    path = tmp / "demo-blobs.cfg"
    path.write_text(text)
    return CliWorkload(path, accuracy_floor=0.9, seeds=DEMO_SEEDS)


# --- cifar-shaped --------------------------------------------------------------

# Sized so that one pass takes ~11 s: 1 seed instead of 2, 1,200 records and
# 8 epochs. Calibration is ~45% of it (one temperature fit per run), the
# entropy profile and 3072-wide pipeline rebuilds ~30%, training ~25%.
CIFAR_RECORDS = 1200
CIFAR_PROTOTYPE_AMPLITUDE = 12.0  # pixel levels; sets how far apart the classes are
CIFAR_PIXEL_NOISE = 80.0          # pixel levels; keeps test accuracy well below 1

CIFAR_MANIFEST = """\
data.kind = cifar
data.path = {path}
data.seed = {seed}
data.test_frac = 0.25
data.val_frac = 0.1
ood.kind = uniform_box
ood.low = {low}
ood.high = {high}
ood.n = 300
corruptions = gaussian_noise:1-5
strategies = cutmix,regcutmix,reg_mixup_plus_regcutmix
seeds = 0
train.hidden = 64
train.activation = relu
train.epochs = 8
train.batch_size = 64
train.lr = 0.05
train.momentum = 0.9
train.weight_decay = 0.0005
train.schedule = cosine
train.alpha = 1.0
train.eta = 1
heatmap.pairs = 1000
heatmap.source = train
"""


def cifar_records(seed: int, n: int = CIFAR_RECORDS) -> bytes:
    """CIFAR-10-format records: per-class prototype images plus pixel noise.

    Prototypes are random 8x8x3 images upsampled to 32x32, so neighbouring
    pixels correlate the way CutMix patches expect.
    """
    g = np.random.Generator(np.random.PCG64(seed))
    protos = g.uniform(-1.0, 1.0, size=(10, 3, 8, 8)).repeat(4, axis=2).repeat(4, axis=3)
    labels = np.arange(n) % 10
    g.shuffle(labels)
    pixels = (
        128.0
        + CIFAR_PROTOTYPE_AMPLITUDE * protos.reshape(10, -1)[labels]
        + CIFAR_PIXEL_NOISE * g.standard_normal((n, CIFAR_RECORD_BYTES - 1))
    )
    records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = np.clip(np.rint(pixels), 0, 255)
    return records.tobytes()


def cifar_shaped(root: Path, tmp: Path, seed: int) -> CliWorkload:
    data = tmp / "cifar.bin"
    data.write_bytes(cifar_records(seed))
    d = CIFAR_RECORD_BYTES - 1
    path = tmp / "cifar-shaped.cfg"
    path.write_text(CIFAR_MANIFEST.format(
        path=data, seed=seed, low=",".join(["0.0"] * d), high=",".join(["1.0"] * d)
    ))
    return CliWorkload(path, accuracy_floor=0.3)


# --- library-uq ------------------------------------------------------------------

LIB_BLOBS = dict(n=2400, k=4, separation=3.0)
LIB_HIDDEN = (64, 64)
LIB_CV_ALPHAS = trainer.MIXUP_ALPHA_GRID[::3]  # 0.1, 0.4, 5.0
LIB_CV_EPOCHS = 8
LIB_MEMBERS = 5
LIB_MEMBER_EPOCHS = 15
LIB_SIGMA0 = 1.0
LIB_MC_SAMPLES = 1000


def library_data(seed: int) -> dict:
    """4-class blobs split, normalized, plus a uniform-box OOD set."""
    rng = RngState(seed)
    base = make_gaussian_blobs(LIB_BLOBS["n"], LIB_BLOBS["k"], LIB_BLOBS["separation"],
                               rng.split(1))
    pool, test = split(base, 0.75, stratified=True, rng=rng.split(2))
    tr, val = split(pool, 0.9, stratified=True, rng=rng.split(3))
    stats = fit_normalizer(tr)
    ood = make_uniform_box(300, [-15.0, -15.0], [15.0, 15.0], rng.split(4))
    return {
        "train": apply_normalizer(tr, stats),
        "val": apply_normalizer(val, stats),
        "test": apply_normalizer(test, stats),
        "ood": apply_normalizer(ood, stats),
    }


class LibraryWorkload:
    """A library session with no CLI and no file I/O, ending in the Laplace path."""

    def __init__(self, seed: int):
        self.seed = seed
        self.data = library_data(seed)
        base = TrainConfig("mixup", hidden_dims=LIB_HIDDEN, alpha=1.0, epochs=LIB_CV_EPOCHS,
                           batch_size=64, seed=seed)
        self.cv_grid = [replace(base, alpha=a) for a in LIB_CV_ALPHAS]
        self.member_config = TrainConfig("regmixup", hidden_dims=LIB_HIDDEN, alpha=10.0, eta=1.0,
                                         epochs=LIB_MEMBER_EPOCHS, batch_size=64, seed=seed)
        tr = self.data["train"]
        cv_rows = split(tr, 0.9, stratified=True, rng=RngState(seed).split(9))[0].n
        self.train_samples = (len(self.cv_grid) * cv_rows * LIB_CV_EPOCHS
                              + LIB_MEMBERS * tr.n * LIB_MEMBER_EPOCHS)
        self.results, self.ensemble = {}, None

    def probe_args(self) -> list:
        return ["library", str(self.seed)]

    def stages(self, out_dir: Path) -> list:
        self.results, self.ensemble = {}, None
        return [
            ("train", "cross_validate", self._cross_validate),
            ("train", "train_ensemble", self._train_ensemble),
            ("score", "ensemble_predict", self._predict),
            ("calibrate", "calibrate", self._calibrate),
            ("score", "laplace", self._laplace),
            ("score", "ood", self._ood),
            ("score", "entropy_profile", self._entropy_profile),
        ]

    def _cross_validate(self):
        self.results["cv_alpha"] = trainer.cross_validate(self.cv_grid, self.data["train"]).alpha

    def _train_ensemble(self):
        self.ensemble = trainer.train_ensemble(self.member_config, LIB_MEMBERS,
                                               self.data["train"], None)

    def _predict(self):
        r, d, ens = self.results, self.data, self.ensemble
        r["test_probs_mean_prob"], _ = trainer.ensemble_predict(ens, d["test"].x, "mean_prob")
        r["test_probs"], r["test_logits"] = trainer.ensemble_predict(ens, d["test"].x, "mean_logit")
        _, r["val_logits"] = trainer.ensemble_predict(ens, d["val"].x, "mean_logit")
        r["ood_probs"], r["ood_logits"] = trainer.ensemble_predict(ens, d["ood"].x, "mean_logit")

    def _calibrate(self):
        r, labels = self.results, self.data["test"].labels
        ew, em = evalkit.BinningSpec("equal_width", 15), evalkit.BinningSpec("equal_mass", 15)
        temp = evalkit.fit_temperature(r["val_logits"], self.data["val"].labels, ew)
        post = evalkit.apply_temperature(r["test_logits"], temp)
        r["temperature"] = temp.T
        r["ece_pre_t"] = evalkit.ece(r["test_probs"], labels, ew)
        r["ece_post_t"] = evalkit.ece(post, labels, ew)
        r["adaece_pre_t"] = evalkit.adaece(r["test_probs"], labels, em)
        r["adaece_post_t"] = evalkit.adaece(post, labels, em)

    def _laplace(self):
        r, d = self.results, self.data
        net = self.ensemble.members[0]
        _, feats, _ = nn.forward(net, d["test"].x)
        for exact in (False, True):
            tag = "exact" if exact else "factored"
            post = uncertainty.fit_laplace_last_layer(net, d["train"], LIB_SIGMA0, exact=exact)
            r[f"mc_{tag}"] = uncertainty.mc_predictive(
                post, feats, m=LIB_MC_SAMPLES, rng=RngState(self.seed).split(5, int(exact)),
                exact=exact,
            )
            r[f"meanfield_{tag}"] = uncertainty.meanfield_predictive(
                post, feats, math.pi / 8.0, exact=exact
            )

    def _ood(self):
        r, d = self.results, self.data
        net = self.ensemble.members[0]
        _, f_train, _ = nn.forward(net, d["train"].x)
        _, f_test, _ = nn.forward(net, d["test"].x)
        _, f_ood, _ = nn.forward(net, d["ood"].x)
        gauss = uncertainty.fit_class_gaussians(f_train, d["train"].labels)
        pairs = [
            (uncertainty.mahalanobis_score(gauss, f_test), uncertainty.mahalanobis_score(gauss, f_ood)),
            (uncertainty.ds_score(r["test_logits"]), uncertainty.ds_score(r["ood_logits"])),
            (uncertainty.energy_score(r["test_logits"]), uncertainty.energy_score(r["ood_logits"])),
            (uncertainty.entropy_score(r["test_probs"]), uncertainty.entropy_score(r["ood_probs"])),
            (uncertainty.mps_score(r["test_probs"]), uncertainty.mps_score(r["ood_probs"])),
        ]
        for s_in, s_out in pairs:
            r[f"auroc_{s_in.measure}"] = evalkit.auroc(s_in, s_out)

    def _entropy_profile(self):
        profile = evalkit.entropy_profile(self.ensemble.members[0], self.data["train"],
                                          n_pairs=1000, rng=RngState(self.seed).split(6))
        self.results["barrier"] = evalkit.barrier_statistic(profile)

    def digest(self, out_dir: Path) -> str:
        h = hashlib.sha256()
        for key in sorted(self.results):
            h.update(key.encode())
            h.update(np.asarray(self.results[key]).tobytes())
        return h.hexdigest()

    def check(self, out_dir: Path) -> list:
        r, labels = self.results, self.data["test"].labels

        def probabilities():
            for key in ("test_probs", "test_probs_mean_prob", "ood_probs", "mc_factored",
                        "mc_exact", "meanfield_factored", "meanfield_exact"):
                p = r[key]
                _require(np.isfinite(p).all() and (p >= 0).all(), f"{key}: not a distribution")
                _require(np.allclose(p.sum(axis=1), 1.0, atol=1e-9), f"{key}: rows do not sum to 1")

        def accuracy():
            accs = {k: float((r[k].argmax(axis=1) == labels).mean())
                    for k in ("test_probs", "test_probs_mean_prob", "mc_exact", "meanfield_exact")}
            for k, acc in accs.items():
                _require(acc > 0.8, f"{k}: test accuracy {acc:.3f}")
            return " ".join(f"{k}={v:.3f}" for k, v in accs.items())

        def metrics():
            _require(r["cv_alpha"] in LIB_CV_ALPHAS, f"cross_validate picked {r['cv_alpha']}")
            for key in CALIBRATE_METRICS:
                _check_value(key, r[key], "calibrate")
            for measure in OOD_MEASURES:
                _check_value("auroc", r[f"auroc_{measure}"], measure)
            _check_value("barrier", r["barrier"], "entropy_profile")

        return _run_checks([
            ("probabilities", probabilities), ("accuracy_floor", accuracy), ("metrics", metrics),
        ])


WORKLOADS = {
    "demo-blobs": demo_blobs,
    "cifar-shaped": cifar_shaped,
    "library-uq": lambda root, tmp, seed: LibraryWorkload(seed),
}
