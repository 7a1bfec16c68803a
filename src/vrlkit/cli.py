"""Experiment front door: flat-file manifests, the train -> score -> evaluate
pipeline, and CSV/SVG artifact emission.

Manifests are `key = value` files with `#` comments and dotted section
prefixes (train.alpha, data.kind, mixup.alpha, ...).  Every command writes
its artifacts under <out>/<hash>/ where <hash> keys the canonical manifest
text, so reruns with unchanged inputs land on byte-identical files and never
mutate their inputs.
"""

import argparse
import concurrent.futures
import csv
import hashlib
import io
import math
import mmap
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nn
from .datagen import (
    CorruptionSpec,
    Dataset,
    _corrupt,
    _normalize_in_place,
    _split_indices,
    fit_normalizer,
    load_cifar_binary,
    load_csv,
    make_blob,
    make_gaussian_blobs,
    make_two_moons,
    make_uniform_box,
    pooled_feature_sd,
)
from .evalkit import (
    BinningSpec,
    adaece,
    apply_temperature,
    auroc,
    barrier_statistic,
    ece,
    entropy_profile,
    fisher_criterion,
    fit_temperature,
    heatmap_svg,
    reliability_svg,
)
from .tensor import RngState, atomic_open
from .trainer import (
    _RECIPES,
    STRATEGIES,
    DivergedError,
    ExperimentRecord,
    TrainConfig,
    accuracy_from_logits,
    train,
)
from .uncertainty import (
    ds_score,
    energy_score,
    entropy_score,
    fit_class_gaussians,
    mahalanobis_score,
    mps_score,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_SCHEMA = 3
EXIT_INCOMPATIBLE = 4
EXIT_NUMERIC = 5


class ManifestError(Exception):
    """Config file missing keys or holding out-of-schema values."""


class MissingInputError(Exception):
    """A required input file or prior artifact does not exist."""


class IncompatibleError(Exception):
    """Checkpoint and dataset shapes do not line up."""


class _SingularError(ArithmeticError):
    """A run's features have class covariances that are all zero or not finite."""


# What `vrl` prints as one `error:` line, and the exit code it returns.
_EXIT_CODES = (
    (MissingInputError, EXIT_MISSING_INPUT),
    (ManifestError, EXIT_SCHEMA),
    (IncompatibleError, EXIT_INCOMPATIBLE),
    (DivergedError, EXIT_NUMERIC),
    (_SingularError, EXIT_NUMERIC),
    (OSError, EXIT_ERROR),
)


def parse_config(text: str, _lines=None) -> dict:
    """Parse `key = value` lines; `#` starts a comment. A key may be set once.

    The dict ``_lines``, if given, gets each key's line number.
    """
    cfg, first_line = {}, {} if _lines is None else _lines
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ManifestError(f"line {lineno}: empty key")
        if key in cfg:
            raise ManifestError(
                f"line {lineno}: key {key!r} is already set on line {first_line[key]}"
            )
        cfg[key] = value.strip()
        first_line[key] = lineno
    return cfg


@dataclass
class RunManifest:
    """One experiment: dataset recipe, strategy grid, seeds, output root."""

    config: dict  # the text of each key the manifest sets but out, as hashed
    values: dict  # each set key's value, as _read reads it
    lines: dict  # the line that sets each key
    out_dir: Path
    seeds: list
    strategies: list

    def __post_init__(self):
        for key, noun in (("seeds", "seed"), ("strategies", "strategy")):
            values = getattr(self, key)
            if not values:
                raise _at(self.lines, key, f"need at least one {noun}")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise _at(self.lines, key, f"{key} lists {value!r} more than once")

    def canonical_text(self) -> str:
        keyed = dict(self.config)
        keyed["seeds"] = ",".join(str(s) for s in self.seeds)
        keyed["strategies"] = ",".join(self.strategies)
        return "".join(f"{k} = {keyed[k]}\n" for k in sorted(keyed))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def run_dir(self) -> Path:
        return self.out_dir / self.content_hash()


def parse_corruptions(value: str) -> list:
    """'gaussian_noise:1-5,rotation2d:3' -> list of CorruptionSpec."""
    specs = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, levels = part.partition(":")
        if not levels:
            raise ManifestError(f"corruption {part!r} needs kind:levels")
        lo, dash, hi = levels.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ManifestError(f"corruption {part!r}: levels must be integers")
        if last < first:
            raise ManifestError(f"corruption {part!r}: level range runs backwards")
        for level in range(first, last + 1):
            try:
                spec = CorruptionSpec(kind, level)
            except ValueError as err:
                raise ManifestError(f"corruption {part!r}: {err}")
            if spec in specs:  # two sets of one name would pool as two seeds in compare
                raise ManifestError(f"corruptions lists {kind}:{level} more than once")
            specs.append(spec)
    return specs


_REQUIRED = object()
_BY_DATA = object()  # an unset key whose default the reader passes, as the data sets it
# What a value that fails its cast should have been, for the exit-3 message.
_EXPECTED = {int: "an integer", float: "a finite number"}
_AT_LEAST_0 = (">= 0", lambda value: value >= 0)
_AT_LEAST_1 = (">= 1", lambda value: value >= 1)
_FRACTION = ("in (0, 1)", lambda value: 0.0 < value < 1.0)


def _one_of(*names):
    return ", ".join(names[:-1]) + " or " + names[-1], names.__contains__


# Each train.<name> key (which <strategy>.<name> overrides): its TrainConfig field and entry.
_TRAIN_FIELDS = {
    "hidden": ("hidden_dims", ([int], (32, 32))),
    "activation": ("activation", (str, "relu")),
    "alpha": ("alpha", (float, None)),
    "eta": ("eta", (float, None)),
    "epochs": ("epochs", (int, 40)),
    "batch_size": ("batch_size", (int, 64)),
    "lr": ("learning_rate", (float, 0.1)),
    "momentum": ("momentum", (float, 0.9)),
    "weight_decay": ("weight_decay", (float, 5e-4)),
    "schedule": ("schedule", (str, "cosine")),
    "lambda_mode": ("lambda_mode", (str, "per_batch")),
}

# Every manifest key: (cast, default) or (cast, default, bound). A cast is str,
# int or float, or [cast] for a comma-separated list of them, read as a tuple,
# or parse_corruptions.
# An unset key takes its default, unless that is _REQUIRED or _BY_DATA. A bound
# is a (rule, test) pair: a set value that fails it exits 3 as <key> must be <rule>.
_KEYS = {
    "out": (str, "runs"),
    "strategies": ([str], _REQUIRED),
    "seeds": ([int], (0, 1, 2, 3, 4)),
    "corruptions": (parse_corruptions, ()),
    "data.kind": (str, _REQUIRED, _one_of("moons", "blobs", "csv", "cifar")),
    "data.path": (str, _REQUIRED),
    "data.seed": (int, 12345),
    "data.n": (int, 1000),
    "data.k": (int, 3, _AT_LEAST_1),
    "data.separation": (float, 8.0),
    "data.noise_sd": (float, _BY_DATA, _AT_LEAST_0),
    "data.max_per_class": (int, None, _AT_LEAST_1),
    "data.test_frac": (float, 0.25, _FRACTION),
    "data.val_frac": (float, 0.1, _FRACTION),
    "ood.kind": (str, "none", _one_of("blob", "uniform_box", "none")),
    "ood.n": (int, 400, _AT_LEAST_1),
    "ood.center": ([float], _BY_DATA),
    "ood.noise_sd": (float, 1.0, _AT_LEAST_0),
    "ood.low": ([float], _BY_DATA),
    "ood.high": ([float], _BY_DATA),
    "heatmap.source": (str, "train", _one_of("train", "test")),
    "heatmap.pairs": (int, 1000, _AT_LEAST_1),
    **{f"{prefix}.{name}": entry for prefix in ("train", *STRATEGIES)
       for name, (_, entry) in _TRAIN_FIELDS.items()},
}


def _get(values, key, default=_REQUIRED):
    """``values[key]``, else the key's default (``default`` for a _BY_DATA key)."""
    fallback = _KEYS[key][1]
    value = values.get(key, default if fallback is _BY_DATA else fallback)
    if value is _REQUIRED:
        raise ManifestError(f"missing required key {key!r}")
    return value


def _at(lines, key, message) -> ManifestError:
    """The exit-3 error ``message``, led by the line that sets ``key`` if one does."""
    return ManifestError(f"line {lines[key]}: {message}" if key in lines else message)


def _read(key, text):
    """The value of ``key = text`` by the key's ``_KEYS`` entry. An unknown key,
    a number that does not parse or is not finite, or a value out of bound
    raises ManifestError naming the key."""
    if key not in _KEYS:
        import difflib  # on this error path only: importing it outlasts a whole load
        near = difflib.get_close_matches(key, _KEYS, n=1, cutoff=0)[0]
        raise ManifestError(f"unknown key {key!r}; did you mean {near!r}?")
    cast, _, *bound = _KEYS[key]
    value = _cast(cast, key, text)
    for rule, test in bound:
        if not test(value):
            raise ManifestError(f"{key} must be {rule}, got {value}")
    return value


def _cast(cast, key, text):
    if isinstance(cast, list):  # the comma-separated items, each read as one value
        items = [item for item in map(str.strip, text.split(",")) if item]
        try:  # one pass for the good list; a bad item is found and named item by item
            values = tuple(map(cast[0], items))
            if cast[0] is not float or all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
        return tuple(_cast(cast[0], key, item) for item in items)
    try:
        value = cast(text)
    except ValueError:
        value = math.nan  # fails the finite check below
    if isinstance(value, float) and not math.isfinite(value):
        raise ManifestError(f"key {key!r}: expected {_EXPECTED[cast]}, got {text!r}")
    return value


def load_manifest(config_path, out_override=None, seeds_override=None) -> RunManifest:
    path = Path(config_path)
    if not path.is_file():
        raise MissingInputError(f"config file not found: {path}")
    lines = {}
    try:
        cfg = parse_config(path.read_text(encoding="utf-8"), lines)
    except UnicodeDecodeError as err:
        raise ManifestError(f"{path}: not UTF-8 text (byte {err.start})") from None
    values = {}
    for key, text in cfg.items():
        try:
            values[key] = _read(key, text)
        except ManifestError as err:
            raise _at(lines, key, err) from None
    out_dir = Path(out_override) if out_override else Path(_get(values, "out"))
    cfg.pop("out", None)  # output location never participates in the hash
    if seeds_override is not None:
        seeds = list(range(int(seeds_override)))
        if not seeds:  # set by --seeds, so no manifest line to name
            raise ManifestError("need at least one seed")
    else:
        seeds = list(_get(values, "seeds"))
    manifest = RunManifest(cfg, values, lines, out_dir, seeds, list(_get(values, "strategies")))
    runs(manifest)
    return manifest


def train_config_for(manifest: RunManifest, strategy: str, seed: int) -> TrainConfig:
    """Resolve train.* defaults with per-strategy overrides (mixup.alpha etc.).

    A value that TrainConfig rejects raises ManifestError naming the key
    that set it and its line, with TrainConfig's reason: the first value, in
    field order, that it rejects among values it accepts. An unknown
    strategy names the line of ``strategies``.
    """
    cfg = manifest.values

    def key(name):
        own = f"{strategy}.{name}"
        return own if own in cfg else f"train.{name}"

    values = {field: _get(cfg, key(name)) for name, (field, _) in _TRAIN_FIELDS.items()}
    try:
        return TrainConfig(strategy=strategy, seed=seed, **values)
    except ValueError as err:
        reason = str(err)
    if strategy in STRATEGIES:
        accepted = TrainConfig(strategy, alpha=1.0, eta=1.0)
        for name, (field, _) in _TRAIN_FIELDS.items():
            try:
                replace(accepted, **{field: values[field]})
            except ValueError as err:
                raise _at(manifest.lines, key(name), f"key {key(name)!r}: {err}")
        raise ManifestError(reason)
    raise _at(manifest.lines, "strategies", reason)


def runs(manifest: RunManifest) -> list:
    """The (name, TrainConfig) of every run, ordered by strategy and then seed.

    ``name`` is ``<strategy>_seed<seed>``: the stem of the run's record,
    checkpoint and SVGs.
    """
    return [
        (f"{strategy}_seed{seed}", train_config_for(manifest, strategy, seed))
        for strategy in sorted(manifest.strategies) for seed in sorted(manifest.seeds)
    ]


def _base_dataset(cfg, seed: int) -> Dataset:
    kind = _get(cfg, "data.kind")
    rng = RngState(seed).split(100)
    if kind in ("csv", "cifar"):
        path = Path(_get(cfg, "data.path"))
        if not path.is_file():
            raise MissingInputError(f"dataset file not found: {path}")
    try:
        if kind == "moons":
            return make_two_moons(_get(cfg, "data.n"), _get(cfg, "data.noise_sd", 0.1), rng)
        if kind == "blobs":
            return make_gaussian_blobs(
                _get(cfg, "data.n"),
                _get(cfg, "data.k"),
                _get(cfg, "data.separation"),
                rng,
                noise_sd=_get(cfg, "data.noise_sd", 1.0),
            )
        if kind == "csv":
            return load_csv(path)
        return load_cifar_binary(path, max_per_class=_get(cfg, "data.max_per_class"))
    except ValueError as err:
        raise ManifestError(f"data.kind = {kind}: {err}")


def _ood_dataset(manifest: RunManifest, d: int):
    """The manifest's OOD recipe (maker, arguments, name), or None when it has none.

    Its list keys are checked against the data dimension ``d``; nothing is drawn.
    A mismatch names the line of the key that sets it.
    """
    cfg = manifest.values

    def point(key, fill):
        value = _get(cfg, key, [fill] * d)
        if len(value) != d:
            raise _at(manifest.lines, key, f"{key} dimension does not match the data")
        return value

    kind = _get(cfg, "ood.kind")
    if kind == "none":
        return None
    n = _get(cfg, "ood.n")
    if kind == "blob":
        return make_blob, (n, point("ood.center", 30.0), _get(cfg, "ood.noise_sd")), "ood_blob"
    return make_uniform_box, (n, point("ood.low", -20.0), point("ood.high", 20.0)), "ood_box"


@dataclass
class Pipeline:
    """Datasets of one experiment, normalized by train-split statistics.

    A set that build_pipeline was not asked for is None (``corrupted``: []),
    as is ``ood`` when the manifest defines none. ``_sizes`` holds the
    (train, val, test) row counts of the split, built or not.
    """

    train: Dataset | None
    val: Dataset | None
    test: Dataset | None
    ood: Dataset | None
    corrupted: list  # [(CorruptionSpec, Dataset)]
    _sizes: tuple = ()


PIPELINE_PARTS = ("train", "val", "test", "corrupted", "ood")


def build_pipeline(manifest: RunManifest, parts=PIPELINE_PARTS) -> Pipeline:
    """The normalized sets named in ``parts``.

    ``parts`` names any of PIPELINE_PARTS: the three splits, "corrupted" (the
    corrupted copies of the test split) and "ood". A set not named is neither
    drawn nor standardized, and is left empty (None, or ``[]`` for
    "corrupted"). The normalizer is fit on the train split whether or not it
    is named. The keys of every part are checked on each call, built or not,
    and each set draws from its own RngState label, so no set depends on
    which others are built.
    """
    unknown = set(parts) - set(PIPELINE_PARTS)
    if unknown:
        raise ValueError(f"unknown pipeline parts {sorted(unknown)}, expected {PIPELINE_PARTS}")
    cfg = manifest.values
    seed = _get(cfg, "data.seed")
    base = _base_dataset(cfg, seed)
    specs = _get(cfg, "corruptions")
    if base.d != 2 and any(spec.kind == "rotation2d" for spec in specs):
        raise _at(manifest.lines, "corruptions",
                  f"corruption rotation2d needs 2-D data, got {base.d} features")
    ood_recipe = _ood_dataset(manifest, base.d)
    test_frac, val_frac = _get(cfg, "data.test_frac"), _get(cfg, "data.val_frac")
    try:  # split's draws: test from the loaded set, then val from the rest
        pool_idx, test_idx = _split_indices(
            base.labels, base.k, 1.0 - test_frac, True, RngState(seed).split(101)
        )
        train_pos, val_pos = _split_indices(
            base.labels[pool_idx], base.k, 1.0 - val_frac, True, RngState(seed).split(102)
        )
    except ValueError as err:
        raise ManifestError(f"cannot split the data: {err}")
    # Each split is taken straight from the loaded set, which is then dropped,
    # so a build holds at most the set and its splits. Every set below is a
    # fresh array that only this call holds, so each is normalized in place;
    # the corrupted copies read the raw test split, so it is normalized last.
    test_raw = None
    if "test" in parts or "corrupted" in parts:
        test_raw = base.take(test_idx, name=f"{base.name}/rest")
    train_raw = base.take(pool_idx[train_pos], name=f"{base.name}/train/train")
    val_raw = None
    if "val" in parts:
        val_raw = base.take(pool_idx[val_pos], name=f"{base.name}/train/rest")
    del base
    stats = fit_normalizer(train_raw)
    ood = None
    if "ood" in parts and ood_recipe is not None:
        make, args, name = ood_recipe
        ood = _normalize_in_place(make(*args, RngState(seed).split(200), name=name), stats)
    corrupted = []
    if "corrupted" in parts and specs:
        scale = pooled_feature_sd(test_raw)
        for i, spec in enumerate(specs):
            raw = _corrupt(test_raw, spec, RngState(seed).split(103, i), scale)
            corrupted.append((spec, _normalize_in_place(raw, stats)))

    def normalized(part, raw):
        return _normalize_in_place(raw, stats) if part in parts else None

    return Pipeline(
        train=normalized("train", train_raw),
        val=normalized("val", val_raw),
        test=normalized("test", test_raw),
        ood=ood,
        corrupted=corrupted,
        _sizes=(train_pos.size, val_pos.size, test_idx.size),
    )


_DATA_DIGEST = "data.sha256"


def _data_digest(manifest: RunManifest):
    """``<sha256 of the bytes>  <data.path>`` of a csv or cifar manifest's data
    file, which ``vrl train`` keeps as <hash>/data.sha256; None for moons and
    blobs data, which the manifest hash already covers.

    The file is hashed through a read-only mapping, not a bytes copy: on the
    3.7 MB cifar-shaped file the copy's page faults cost each command about
    three times the hash.  Call it after a build has read the file, so the
    file is known to exist and not to be empty, which mmap refuses.
    """
    if _get(manifest.values, "data.kind") not in ("csv", "cifar"):
        return None
    path = _get(manifest.values, "data.path")
    with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
        return f"{hashlib.sha256(data).hexdigest()}  {path}\n"


def _check_data(manifest: RunManifest):
    """Raise IncompatibleError unless the data file holds the bytes that
    ``vrl train`` read, as its data.sha256 records them."""
    digest = _data_digest(manifest)
    if digest is None:
        return
    path = manifest.run_dir() / _DATA_DIGEST
    try:
        trained = path.read_bytes()
    except FileNotFoundError:
        raise IncompatibleError(f"no data digest {path}; run `vrl train` again") from None
    if trained != digest.encode():
        raise IncompatibleError(f"dataset file {_get(manifest.values, 'data.path')} is not "
                                f"the one `vrl train` read (see {path}); run `vrl train` again")


def load_records(manifest: RunManifest) -> list:
    """The (name, config, record) of every run of the manifest, in run order."""
    out = []
    for name, config in runs(manifest):
        path = manifest.run_dir() / "records" / f"{name}.record"
        if not path.is_file():
            raise MissingInputError(f"record not found (run `vrl train` first): {path}")
        try:
            record = ExperimentRecord.from_text(path.read_text())
        except ValueError as err:
            raise ManifestError(f"unreadable record {path}: {err}")
        out.append((name, config, record))
    return out


def _load_net(manifest: RunManifest, name: str, data: Dataset) -> nn.Network:
    path = manifest.run_dir() / "checkpoints" / f"{name}.ckpt"
    if not path.is_file():
        raise MissingInputError(f"checkpoint not found: {path}")
    try:
        net = nn.load_checkpoint(path)
    except ValueError as err:
        raise ManifestError(f"unreadable checkpoint {path}: {err}")
    if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
        raise ManifestError(f"checkpoint {path} holds non-finite weights or biases")
    if (net.in_dim, net.n_classes) != (data.d, data.k):
        raise IncompatibleError(f"checkpoint {path} has {net.in_dim} features and "
                                f"{net.n_classes} classes, the data {data.d} and {data.k}")
    return net


def write_csv(path: Path, header: list, rows: list):
    """RFC-4180-style CSV with a mandatory header; rows sorted upstream."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", encoding="ascii", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\r\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    s = str(v)
    if any(c in s for c in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def cmd_train(manifest: RunManifest, jobs: int = 1) -> Path:
    """Train the full strategy x seed grid and persist records + checkpoints.

    Every run trains before anything is written, so a diverged run
    (DivergedError) leaves no record or checkpoint.  With ``jobs`` > 1 the
    runs are dealt round-robin to min(jobs, runs) workers, and each worker
    trains its share in lockstep groups of its own.
    """
    pipe = build_pipeline(manifest, parts=("train", "val"))
    digest = _data_digest(manifest)
    grid = runs(manifest)
    configs = [config for _, config in grid]
    for config in configs:
        if "cutmix" in _RECIPES[config.strategy][0] and pipe.train.image_shape is None:
            raise ManifestError(
                f"strategy {config.strategy} needs image-shaped data (data.kind = cifar), "
                f"not data.kind = {manifest.config['data.kind']}")
    n = min(jobs, len(configs))
    if n <= 1:
        results = train(configs, pipe.train, pipe.val)
    else:
        shares = [configs[i::n] for i in range(n)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=n) as pool:
            trained = list(pool.map(train, shares, [pipe.train] * n, [pipe.val] * n))
        results = [trained[i % n][i // n] for i in range(len(configs))]
    run_dir = manifest.run_dir()
    (run_dir / "records").mkdir(parents=True, exist_ok=True)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    with atomic_open(run_dir / "manifest.txt") as f:
        f.write(manifest.canonical_text())
    if digest is not None:
        with atomic_open(run_dir / _DATA_DIGEST, encoding="utf-8") as f:
            f.write(digest)
    for (name, _), (net, record) in zip(grid, results):
        record.checkpoint = str(Path("checkpoints", f"{name}.ckpt"))
        nn.save_checkpoint(net, run_dir / record.checkpoint)
        with atomic_open(run_dir / "records" / f"{name}.record") as f:
            f.write(record.to_text())
    return run_dir


def _write_per_run_csv(manifest: RunManifest, pipe: Pipeline, sets, csv_name, run_rows) -> Path:
    """Write the (strategy, seed, *row) CSV of every trained run, sorted on its first five columns.

    ``run_rows(name, config, net, out)`` returns a run's (dataset, metric, measure, value) rows;
    ``out[name]`` is the (logits, features) of each of ``sets`` ({name: Dataset}), forwarded once
    per net.  The data digest and every net (against the pipeline's first built split) are checked
    before the first forward, so bad data or a bad checkpoint stops the command before any SVG.
    """
    records = load_records(manifest)
    _check_data(manifest)
    data = next(ds for ds in (pipe.train, pipe.val, pipe.test) if ds is not None)
    nets = [(name, config, _load_net(manifest, name, data)) for name, config, _ in records]
    rows = []
    for name, config, net in nets:
        out = {set_name: nn.forward(net, ds.x)[:2] for set_name, ds in sets.items()}
        rows += [(config.strategy, config.seed, *row) for row in run_rows(name, config, net, out)]
    rows.sort(key=lambda r: r[:5])
    path = manifest.run_dir() / csv_name
    write_csv(path, list(_METRIC_HEADER), rows)
    return path


_METRIC_HEADER = ("strategy", "seed", "dataset", "metric", "measure", "value")


def _read_metric_csv(path: Path):
    """Yield (strategy, dataset, metric, measure, value) rows of a metric CSV.

    Text that is not ASCII, a missing or wrong header, a row with the wrong
    cell count or a value that is not a finite number raises ManifestError
    naming the file.
    """
    try:
        reader = csv.reader(io.StringIO(path.read_text(encoding="ascii")))
    except UnicodeDecodeError:
        raise ManifestError(f"{path}: not an ASCII metric CSV") from None
    if tuple(next(reader, ())) != _METRIC_HEADER:
        raise ManifestError(f"{path}: header is not {','.join(_METRIC_HEADER)}")
    for row in reader:
        if len(row) != len(_METRIC_HEADER):
            raise ManifestError(
                f"{path}: line {reader.line_num} has {len(row)} cells, "
                f"expected {len(_METRIC_HEADER)}"
            )
        strategy, _, dataset, metric, measure, value = row
        try:
            number = float(value)
        except ValueError:
            raise ManifestError(
                f"{path}: line {reader.line_num} value {value!r} is not a number"
            ) from None
        if not math.isfinite(number):
            raise ManifestError(f"{path}: line {reader.line_num} value {value!r} is not finite")
        yield strategy, dataset, metric, measure, number


def _write_per_test_set_csv(
    manifest: RunManifest, pipe: Pipeline, csv_name: str, metric: str, value
) -> Path:
    """One ``metric`` row per run and set: the test split and each corrupted copy.

    ``pipe`` holds the corrupted sets; ``value(logits, features, labels)``
    scores one set under one run's net.
    """
    sets = {"test": pipe.test, **{ds.name: ds for _, ds in pipe.corrupted}}

    def run_rows(name, config, net, out):
        return [(set_name, metric, "-", value(*out[set_name], ds.labels))
                for set_name, ds in sets.items()]

    return _write_per_run_csv(manifest, pipe, sets, csv_name, run_rows)


def cmd_eval(manifest: RunManifest) -> Path:
    """Accuracy on the test split and every corrupted variant."""
    return _write_per_test_set_csv(
        manifest, build_pipeline(manifest, parts=("test", "corrupted")), "eval.csv", "accuracy",
        lambda logits, features, labels: accuracy_from_logits(logits, labels),
    )


def _too_small(pipe: Pipeline, need: str) -> ManifestError:
    """The exit-3 error of a command whose splits are too small for it."""
    train, val, test = pipe._sizes
    return ManifestError(f"{need}; the splits hold {train} train, {val} val, {test} test")


_LOGIT_MEASURES = (ds_score, energy_score)
_PROB_MEASURES = (entropy_score, mps_score)


def cmd_ood(manifest: RunManifest) -> Path:
    """AUROC of in-distribution test vs the OOD set, per uncertainty measure."""
    pipe = build_pipeline(manifest, parts=("train", "test", "ood"))
    if pipe.ood is None:
        raise ManifestError("manifest has no ood.* section")
    # the Mahalanobis score fits one covariance per train class
    classes, counts = np.unique(pipe.train.labels, return_counts=True)
    if counts.min() < 2:
        raise _too_small(pipe, f"ood needs >= 2 train rows of each class, found class "
                               f"{classes[counts.argmin()]} with {counts.min()} row")

    def run_rows(name, config, net, out):
        (logits_in, feat_in), (logits_out, feat_out) = out["test"], out["ood"]
        probs_in, probs_out = nn.softmax(logits_in), nn.softmax(logits_out)
        scored = [(fn(logits_in), fn(logits_out)) for fn in _LOGIT_MEASURES]
        scored += [(fn(probs_in), fn(probs_out)) for fn in _PROB_MEASURES]
        try:
            gauss = fit_class_gaussians(out["train"][1], pipe.train.labels)
        except ValueError:  # each class has >= 2 rows (checked above): only epsilon fails
            raise _SingularError(f"ood: run {name}: the class covariances of its train "
                                 "features are all zero or not finite") from None
        scored.append((mahalanobis_score(gauss, feat_in), mahalanobis_score(gauss, feat_out)))
        return [
            (pipe.ood.name, "auroc", s_in.measure, auroc(s_in, s_out))
            for s_in, s_out in scored
        ]

    sets = {"test": pipe.test, "ood": pipe.ood, "train": pipe.train}
    return _write_per_run_csv(manifest, pipe, sets, "ood.csv", run_rows)


def cmd_calibrate(manifest: RunManifest) -> Path:
    """Fit the temperature on validation logits; report pre/post calibration."""
    pipe = build_pipeline(manifest, parts=("val", "test"))
    ew = BinningSpec("equal_width", 15)
    em = BinningSpec("equal_mass", 15)
    if pipe.test.n < em.n_bins:
        raise _too_small(pipe, f"calibrate needs >= {em.n_bins} test rows "
                               f"for its {em.n_bins}-bin AdaECE")
    run_dir = manifest.run_dir()

    def run_rows(name, config, net, out):
        (logits_val, _), (logits_test, _) = out["val"], out["test"]
        temp = fit_temperature(logits_val, pipe.val.labels, ew)
        pre = nn.softmax(logits_test)
        post = apply_temperature(logits_test, temp)
        reliability_svg(post, pipe.test.labels, ew, run_dir / f"reliability_{name}.svg")
        return [
            ("test", metric, "-", value)
            for metric, value in (
                ("temperature", temp.T),
                ("ece_pre_t", ece(pre, pipe.test.labels, ew)),
                ("ece_post_t", ece(post, pipe.test.labels, ew)),
                ("adaece_pre_t", adaece(pre, pipe.test.labels, em)),
                ("adaece_post_t", adaece(post, pipe.test.labels, em)),
            )
        ]

    sets = {"val": pipe.val, "test": pipe.test}
    return _write_per_run_csv(manifest, pipe, sets, "calibrate.csv", run_rows)


def cmd_heatmap(manifest: RunManifest) -> Path:
    """Entropy-profile heatmap SVG per run, plus a barrier-statistic CSV."""
    source_name = _get(manifest.values, "heatmap.source")
    n_pairs = _get(manifest.values, "heatmap.pairs")
    pipe = build_pipeline(manifest, parts=(source_name,))
    source = getattr(pipe, source_name)
    classes = np.unique(source.labels).size
    if classes < 2:
        raise _too_small(pipe, f"heatmap needs >= 2 classes in the {source_name} split "
                               f"(heatmap.source), found {classes} in its {source.n} rows")
    run_dir = manifest.run_dir()

    def run_rows(name, config, net, out):
        rng = RngState(config.seed).split(300)
        profile = entropy_profile(net, source, n_pairs=n_pairs, rng=rng)
        heatmap_svg(profile, run_dir / f"heatmap_{name}.svg")
        return [(source.name, "barrier", "-", barrier_statistic(profile))]

    return _write_per_run_csv(manifest, pipe, {}, "barrier.csv", run_rows)


def cmd_fisher(manifest: RunManifest) -> Path:
    """Fisher criterion of network features per corruption kind x intensity."""
    pipe = build_pipeline(manifest, parts=("test", "corrupted"))
    # the corrupted sets share the test labels, so one check covers them all
    classes, counts = np.unique(pipe.test.labels, return_counts=True)
    if classes.size < 2 or counts.min() < 2:
        found = (f"{classes.size} class" if classes.size < 2
                 else f"class {classes[counts.argmin()]} with {counts.min()} row")
        raise _too_small(pipe, f"fisher needs >= 2 test classes of >= 2 rows each, found {found}")
    return _write_per_test_set_csv(
        manifest, pipe, "fisher.csv", "fisher",
        lambda logits, features, labels: fisher_criterion(features, labels, epsilon=1e-9),
    )


def cmd_compare(manifests: list) -> Path:
    """Aggregate per-seed CSVs into (strategy, dataset, metric) mean +- sd rows."""
    rows = []
    for manifest in manifests:
        run_dir = manifest.run_dir()
        found = False
        groups = {}
        for name in ("eval.csv", "ood.csv", "calibrate.csv", "fisher.csv", "barrier.csv"):
            path = run_dir / name
            if not path.is_file():
                continue
            found = True
            for *key, value in _read_metric_csv(path):
                groups.setdefault(tuple(key), []).append(value)
        if not found:
            raise MissingInputError(
                f"no metric CSVs under {run_dir}; run eval/ood/calibrate first"
            )
        for (strategy, dataset, metric, measure), values in sorted(groups.items()):
            arr = np.asarray(values)
            rows.append(
                (manifest.content_hash(), strategy, dataset, metric, measure,
                 float(arr.mean()), float(arr.std()))
            )
    combined = hashlib.sha256(
        "".join(m.content_hash() for m in manifests).encode()
    ).hexdigest()[:12]
    path = manifests[0].out_dir / f"compare_{combined}.csv"
    header = ["manifest", "strategy", "dataset", "metric", "measure", "mean", "stddev"]
    write_csv(path, header, rows)
    return path


def _distinct_manifests(config_paths, out, seeds) -> list:
    """The manifest of each config file, in order; one given twice is an error."""
    manifests = {}
    for path in config_paths:
        manifest = load_manifest(path, out, seeds)
        digest = manifest.content_hash()
        if digest in manifests:
            raise ManifestError(f"compare lists manifest {digest} twice: "
                                f"{manifests[digest][0]} and {path}")
        manifests[digest] = path, manifest
    return [manifest for _, manifest in manifests.values()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vrl",
        description="Train and evaluate ERM / Mixup-family classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval", "ood", "calibrate", "heatmap", "fisher", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, nargs="+" if name == "compare" else None)
        p.add_argument("--out", default=None)
        p.add_argument("--seeds", type=int, default=None)
        if name == "train":
            p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    try:
        if args.command == "compare":
            print(cmd_compare(_distinct_manifests(args.config, args.out, args.seeds)))
            return EXIT_OK
        manifest = load_manifest(args.config, args.out, args.seeds)
        handler = {
            "train": lambda: cmd_train(manifest, jobs=args.jobs),
            "eval": lambda: cmd_eval(manifest),
            "ood": lambda: cmd_ood(manifest),
            "calibrate": lambda: cmd_calibrate(manifest),
            "heatmap": lambda: cmd_heatmap(manifest),
            "fisher": lambda: cmd_fisher(manifest),
        }[args.command]
        print(handler())
        return EXIT_OK
    except tuple(exc for exc, _ in _EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for exc, code in _EXIT_CODES if isinstance(err, exc))


if __name__ == "__main__":
    sys.exit(main())
