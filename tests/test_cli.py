import dataclasses
import hashlib
import importlib.util
import os
import re
from pathlib import Path

import numpy as np
import pytest

from vrlkit import cli
from vrlkit.cli import (
    EXIT_INCOMPATIBLE,
    EXIT_MISSING_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SCHEMA,
    ManifestError,
    build_pipeline,
    load_manifest,
    main,
    parse_config,
    parse_corruptions,
)
from vrlkit.datagen import (
    CORRUPTION_KINDS,
    Dataset,
    corrupt,
    fit_normalizer,
    make_gaussian_blobs,
    save_csv,
    split,
)
from vrlkit.tensor import RngState

MANIFEST = """\
# tiny smoke experiment
data.kind = blobs
data.n = 240
data.k = 3
data.separation = 8.0
data.noise_sd = 1.0
data.seed = 5
data.test_frac = 0.25
data.val_frac = 0.1
ood.kind = blob
ood.center = 10,10
ood.n = 60
corruptions = gaussian_noise:1-2
strategies = erm,regmixup
seeds = 0,1
train.hidden = 8
train.epochs = 4
train.batch_size = 32
train.lr = 0.1
train.activation = tanh
regmixup.alpha = 10
regmixup.eta = 1
heatmap.pairs = 40
"""

# The same experiment on 200 two-moons points.
MOONS_MANIFEST = MANIFEST.replace(
    "data.kind = blobs\ndata.n = 240\ndata.k = 3\ndata.separation = 8.0\n"
    "data.noise_sd = 1.0\n",
    "data.kind = moons\ndata.n = 200\ndata.noise_sd = 0.1\n",
)

ROOT = Path(__file__).resolve().parent.parent


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_manifest(name):
    """The text of a manifest that the repository ships or builds."""
    if name == "demo":
        return (ROOT / "configs" / "demo.cfg").read_text()
    if name == "large-batch":
        return _module("artifact_tree", ROOT / "tools" / "artifact_tree.py").large_batch_manifest()
    if name == "readme":
        readme = (ROOT / "README.md").read_text()
        return re.search(r"### Example manifest\n\n```ini\n(.*?)```", readme, re.S).group(1)
    low, high = (",".join([bound] * 3072) for bound in ("0.0", "1.0"))
    workloads = _module("workloads", ROOT / "perfbench" / "workloads.py")
    return workloads.CIFAR_MANIFEST.format(path="images.bin", seed=5, low=low, high=high)


@pytest.fixture()
def manifest_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MANIFEST)
    return path


def write_cifar_manifest(tmp_path, extra=""):
    """A manifest over 40 random CIFAR-format records (labels 0..2)."""
    rng = np.random.default_rng(0)
    records = []
    for _ in range(40):
        label = int(rng.integers(0, 3))
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        records.append(bytes([label]) + pixels.tobytes())
    data_path = tmp_path / "images.bin"
    data_path.write_bytes(b"".join(records))
    lines = [
        "data.kind = cifar\n", f"data.path = {data_path}\n", "data.seed = 2\n",
        "data.test_frac = 0.3\n", "data.val_frac = 0.2\n",
        "strategies = cutmix,reg_mixup_plus_regcutmix\n", "seeds = 0\n",
        "train.hidden = 8\n", "train.epochs = 2\n", "train.batch_size = 16\n",
        "train.lr = 0.05\n", "train.alpha = 1.0\n", "train.eta = 1.0\n",
    ]
    # a key of `extra` replaces the line that sets it, as a manifest sets a key once
    for line in extra.splitlines(keepends=True):
        keys = [old.partition("=")[0].strip() for old in lines]
        key = line.partition("=")[0].strip()
        if key in keys:
            lines[keys.index(key)] = line
        else:
            lines.append(line)
    cfg = tmp_path / "img.cfg"
    cfg.write_text("".join(lines))
    return cfg


class TestParseConfig:
    def test_comments_and_sections(self):
        cfg = parse_config("# hi\ntrain.alpha = 10  # inline\n\nname = a b\n")
        assert cfg == {"train.alpha": "10", "name": "a b"}

    def test_malformed_line(self):
        with pytest.raises(ManifestError):
            parse_config("no equals sign here")

    def test_repeated_key_names_both_lines(self):
        text = "train.epochs = 40\nstrategies = erm\n# comment\ntrain.epochs = 40\n"
        with pytest.raises(ManifestError) as err:
            parse_config(text)
        assert str(err.value) == "line 4: key 'train.epochs' is already set on line 1"

    def test_corruption_ranges(self):
        specs = parse_corruptions("gaussian_noise:1-3,rotation2d:5")
        assert [(s.kind, s.intensity) for s in specs] == [
            ("gaussian_noise", 1),
            ("gaussian_noise", 2),
            ("gaussian_noise", 3),
            ("rotation2d", 5),
        ]

    def test_bad_corruption(self):
        with pytest.raises(ManifestError):
            parse_corruptions("fog:1")

    def test_repeated_corruption_level(self):
        with pytest.raises(ManifestError, match="lists gaussian_noise:2 more than once"):
            parse_corruptions("gaussian_noise:1-2,gaussian_noise:2")


class TestGetList:
    def test_long_float_list_equals_per_item_float(self):
        values = np.random.default_rng(4).normal(scale=1e3, size=3072)
        texts = [repr(float(v)) for v in values[:1024]]
        texts += [f"{v:.3e}" for v in values[1024:2048]] + [str(-i) for i in range(1024)]
        got = cli._read("ood.low", " , ".join(texts) + ",")
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array([float(t) for t in texts]).tobytes()


class TestManifest:
    def test_hash_stable_under_reordering(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("strategies = erm\ndata.kind = moons\nseeds = 0\n")
        b.write_text("data.kind = moons\n# comment\nstrategies = erm\nseeds = 0\n")
        ma = load_manifest(a, tmp_path / "out")
        mb = load_manifest(b, tmp_path / "out")
        assert ma.content_hash() == mb.content_hash()

    def test_seeds_override_expands_range(self, manifest_file, tmp_path):
        m = load_manifest(manifest_file, tmp_path / "out", seeds_override=3)
        assert m.seeds == [0, 1, 2]

    def test_unknown_strategy_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("strategies = erm,dropout\nseeds = 0\ndata.kind = moons\n")
        with pytest.raises(ManifestError):
            load_manifest(p, tmp_path / "out")

    # Neither replay manifest leaves these keys unset, so only this pins them.
    def test_train_seed_and_heatmap_defaults(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("data.kind = moons\nstrategies = erm\n")
        manifest = load_manifest(p, tmp_path / "out")
        config = cli.train_config_for(manifest, "erm", 0)
        assert (config.hidden_dims, config.activation) == ((32, 32), "relu")
        assert (config.epochs, config.batch_size) == (40, 64)
        assert (config.learning_rate, config.momentum, config.weight_decay) == (0.1, 0.9, 5e-4)
        assert (config.schedule, config.lambda_mode) == ("cosine", "per_batch")
        assert config.alpha is None and config.eta is None
        assert manifest.seeds == [0, 1, 2, 3, 4]
        keys = ("heatmap.source", "heatmap.pairs", "data.test_frac", "data.val_frac")
        assert [cli._get(manifest.values, key) for key in keys] == ["train", 1000, 0.25, 0.1]

    def test_a_manifest_setting_every_key_loads(self, tmp_path):
        given = {"strategies": "erm,mixup", "data.kind": "moons", "data.path": "unread.csv",
                 "data.noise_sd": "0.2", "data.max_per_class": "5", "ood.kind": "blob",
                 "ood.center": "1,2", "ood.low": "-1,-1", "ood.high": "1,1"}
        lines = []
        for key, (_, default, *_) in cli._KEYS.items():
            if key.endswith((".alpha", ".eta")):
                default = 1.0
            elif isinstance(default, tuple):
                default = ",".join(map(str, default))
            lines.append(f"{key} = {given.get(key, default)}\n")
        path = tmp_path / "every.cfg"
        path.write_text("".join(lines))
        manifest = load_manifest(path, tmp_path / "o")
        assert set(manifest.config) == set(cli._KEYS) - {"out"}
        assert build_pipeline(manifest, parts=("ood",)).ood.name == "ood_blob"

    def test_each_set_key_cast_once_per_command(self, tmp_path, monkeypatch):
        low, high = (",".join([bound] * 3072) for bound in ("-1.5", "2.5"))
        cfg = write_cifar_manifest(tmp_path, f"ood.kind = uniform_box\nood.n = 9\n"
                                             f"ood.low = {low}\nood.high = {high}\n")
        base = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert run_cli("train", *base) == EXIT_OK
        keys, cast = [], cli._cast
        monkeypatch.setattr(cli, "_cast", lambda *args: keys.append(args[1]) or cast(*args))
        assert run_cli("eval", *base) == EXIT_OK
        assert sorted(keys) == sorted(parse_config(cfg.read_text()))

    # Pinned: the key table changes the hash of no manifest without a stray key.
    @pytest.mark.parametrize(
        "name,content_hash",
        [("demo", "092964ca6bcd"), ("cifar-shaped", "4f9670888cd9"),
         ("large-batch", "545753106f8a"), ("readme", "ace913660ba9")],
    )
    def test_shipped_manifests_keep_their_hash(self, tmp_path, name, content_hash):
        path = tmp_path / f"{name}.cfg"
        path.write_text(_shipped_manifest(name))
        assert load_manifest(path, tmp_path / "o").content_hash() == content_hash

    def test_readme_key_table_equals_keys(self):
        header = "| key | value | default | bound |\n| --- | --- | --- | --- |\n"
        block = (ROOT / "README.md").read_text().split(header, 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in block.splitlines()]
        table = {key.strip("`"): cells for key, *cells in rows}
        train_names = {key.removeprefix("train.") for key in cli._KEYS if key.startswith("train.")}
        assert table.pop("<strategy>.<name>") == ["as `train.<name>`"] * 3
        for strategy in cli.STRATEGIES:
            for name in train_names:
                assert cli._KEYS[f"{strategy}.{name}"] == cli._KEYS[f"train.{name}"]
        assert set(table) == {key for key in cli._KEYS if key.split(".")[0] not in cli.STRATEGIES}
        kind = {str: "text", int: "integer", float: "number",
                cli.parse_corruptions: "corruption list"}
        for key, (value, default, bound) in table.items():
            cast, want, *rule = cli._KEYS[key]
            assert value == (f"{kind[cast[0]]} list" if isinstance(cast, list) else kind[cast])
            if want is cli._BY_DATA:
                assert default.startswith("by data: ")
            elif want is cli._REQUIRED or want in (None, ()):
                assert default == ("required" if want is cli._REQUIRED else "unset")
            else:
                text = ",".join(map(str, want)) if isinstance(want, tuple) else str(want)
                assert default == f"`{text}`"
            assert bound == (rule[0][0] if rule else "")

    @pytest.mark.parametrize(
        "ood,explicit",
        [
            ("", "data.seed = 12345\ndata.n = 1000\ndata.noise_sd = 0.1\n"),
            ("ood.kind = blob\n", "ood.center = 30,30\nood.n = 400\nood.noise_sd = 1\n"),
            ("ood.kind = uniform_box\n", "ood.low = -20,-20\nood.high = 20,20\nood.n = 400\n"),
        ],
    )
    def test_data_and_ood_defaults_equal_explicit_values(self, tmp_path, ood, explicit):
        text = "data.kind = moons\nstrategies = erm\n" + ood
        (tmp_path / "default.cfg").write_text(text)
        (tmp_path / "explicit.cfg").write_text(text + explicit)
        default, given = (
            build_pipeline(load_manifest(tmp_path / f"{name}.cfg", tmp_path / "out"))
            for name in ("default", "explicit")
        )
        for name in ("train", "val", "test", *(["ood"] if ood else [])):
            a, b = getattr(default, name), getattr(given, name)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
        assert (default.ood is None) == (not ood)


def run_cli(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_command_sequence(self, manifest_file, tmp_path):
        out = tmp_path / "runs"
        base = ["--config", str(manifest_file), "--out", str(out)]
        assert run_cli("train", *base) == EXIT_OK
        run_dir = next(out.iterdir())
        records = sorted(p.name for p in (run_dir / "records").iterdir())
        assert records == [
            "erm_seed0.record",
            "erm_seed1.record",
            "regmixup_seed0.record",
            "regmixup_seed1.record",
        ]
        assert run_cli("eval", *base) == EXIT_OK
        eval_lines = (run_dir / "eval.csv").read_text().splitlines()
        assert eval_lines[0] == "strategy,seed,dataset,metric,measure,value"
        # 4 runs x (test + 2 corrupted) datasets
        assert len(eval_lines) == 1 + 4 * 3
        assert run_cli("ood", *base) == EXIT_OK
        ood_lines = (run_dir / "ood.csv").read_text().splitlines()
        assert len(ood_lines) == 1 + 4 * 5  # five uncertainty measures per run
        assert run_cli("calibrate", *base) == EXIT_OK
        assert run_cli("heatmap", *base) == EXIT_OK
        assert (run_dir / "heatmap_erm_seed0.svg").exists()
        assert run_cli("fisher", *base) == EXIT_OK
        assert run_cli("compare", *base) == EXIT_OK
        compare = next(out.glob("compare_*.csv")).read_text().splitlines()
        assert compare[0] == "manifest,strategy,dataset,metric,measure,mean,stddev"
        keys = [tuple(line.split(",")[:5]) for line in compare[1:]]
        assert len(keys) == len(set(keys))  # one row per (strategy, dataset, metric)
        assert any(k[3] == "auroc" for k in keys)
        assert any(k[3] == "accuracy" for k in keys)

    def test_eval_before_train_exits_missing(self, manifest_file, tmp_path):
        code = run_cli("eval", "--config", str(manifest_file), "--out", str(tmp_path / "o"))
        assert code == EXIT_MISSING_INPUT

    def test_jobs_is_a_train_option_only(self, manifest_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--config", str(manifest_file), "--jobs", "2")
        assert exc.value.code == 2  # argparse usage error

    @pytest.mark.parametrize("case", ["absent", "config_dir", "data_path_dir"])
    def test_missing_config_exits_missing(self, tmp_path, capsys, case):
        # a directory is no input file: it is reported missing, not as an OSError
        cfg = tmp_path / "run.cfg"
        expected = f"config file not found: {cfg}"
        if case == "config_dir":
            cfg.mkdir()
        elif case == "data_path_dir":
            pts = tmp_path / "pts"
            pts.mkdir()
            cfg.write_text(MOONS_MANIFEST.replace(
                "data.kind = moons\ndata.n = 200\n", f"data.kind = csv\ndata.path = {pts}\n"
            ))
            expected = f"dataset file not found: {pts}"
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_MISSING_INPUT
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "o").exists()

    def test_schema_violation_exit(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("strategies = erm\nseeds = 0\ndata.kind = hypercube\n")
        assert run_cli("train", "--config", str(p), "--out", str(tmp_path / "o")) == EXIT_SCHEMA

    def test_jobs_below_one_is_a_usage_error(self, manifest_file, tmp_path):
        for jobs in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                run_cli("train", "--config", str(manifest_file), "--out", str(tmp_path / "o"),
                        "--jobs", jobs)
            assert exc.value.code == 2  # argparse usage error
        assert not (tmp_path / "o").exists()

    def test_incompatible_checkpoint_exit(self, manifest_file, tmp_path, capsys):
        out = tmp_path / "runs"
        base = ["--config", str(manifest_file), "--out", str(out)]
        assert run_cli("train", *base) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoints" / "erm_seed0.ckpt"
        # overwrite one checkpoint with a network of the wrong input width, then
        # with one of the right width and the wrong class count
        from vrlkit.nn import LayerSpec, Network, save_checkpoint

        for width, classes in ((7, 3), (2, 5)):
            wrong = Network([LayerSpec(width, classes, "identity")])
            save_checkpoint(wrong, ckpt)
            before = _tree(out)
            for command in COMMANDS[1:]:
                capsys.readouterr()
                assert run_cli(command, *base) == EXIT_INCOMPATIBLE, command
                assert capsys.readouterr().err == (
                    f"error: checkpoint {ckpt} has {width} features and {classes} classes, "
                    "the data 2 and 3\n")
                assert _tree(out) == before, command

    @pytest.mark.parametrize("command, calls", [
        ("eval", 12), ("ood", 12), ("calibrate", 8), ("heatmap", 4), ("fisher", 12)])
    def test_one_forward_per_net_and_set(self, manifest_file, tmp_path, monkeypatch,
                                         command, calls):
        # 4 runs; eval and fisher score the test split and 2 corrupted copies,
        # ood the test, OOD and train sets, calibrate val and test, and heatmap
        # forwards its endpoint rows once per run
        from vrlkit import nn

        base = ["--config", str(manifest_file), "--out", str(tmp_path / "o")]
        assert run_cli("train", *base) == EXIT_OK
        forward, seen = nn.forward, []

        def spy(net, x, **kwargs):
            seen.append((net, hashlib.sha256(np.ascontiguousarray(x)).hexdigest(), x.shape))
            return forward(net, x, **kwargs)

        monkeypatch.setattr(nn, "forward", spy)
        assert run_cli(command, *base) == EXIT_OK
        assert len(seen) == calls
        assert len({(id(net), digest, shape) for net, digest, shape in seen}) == calls


class TestDeterminism:
    @pytest.mark.parametrize("image", [False, True], ids=["blobs", "cifar"])
    def test_rerun_reproduces_identical_bytes(self, manifest_file, tmp_path, image):
        if image:
            # 30 records after max_per_class; half of them keep the test split
            # at the 15 rows that calibrate's 15 equal-mass bins need
            manifest_file = write_cifar_manifest(
                tmp_path,
                "corruptions = gaussian_noise:1-2\ndata.max_per_class = 10\n"
                "ood.kind = uniform_box\ndata.test_frac = 0.5\n",
            )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            base = ["--config", str(manifest_file), "--out", str(out)]
            for command in ("train", "eval", "ood", "calibrate", "heatmap", "fisher"):
                assert run_cli(command, *base) == EXIT_OK
        dir_a = next(out_a.iterdir())
        dir_b = next(out_b.iterdir())
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel

    def test_records_with_a_wall_clock_time_still_score(self, manifest_file, tmp_path):
        # records written before training stopped timing itself hold a wall
        # clock time; they parse, print back as written and score the same
        run_dirs = []
        for out, timed in ((tmp_path / "a", False), (tmp_path / "b", True)):
            base = ["--config", str(manifest_file), "--out", str(out)]
            assert run_cli("train", *base) == EXIT_OK
            run_dir = next(out.iterdir())
            for path in (run_dir / "records").iterdir() if timed else ():
                text = path.read_text().replace("\nwall_clock_s = 0.0\n",
                                                "\nwall_clock_s = 0.17319575500005158\n")
                assert "0.17319575500005158" in text
                assert cli.ExperimentRecord.from_text(text).to_text() == text
                path.write_text(text)
            assert run_cli("eval", *base) == EXIT_OK
            run_dirs.append(run_dir)
        assert (run_dirs[0] / "eval.csv").read_bytes() == (run_dirs[1] / "eval.csv").read_bytes()

    def test_inputs_never_mutated(self, manifest_file, tmp_path):
        before = manifest_file.read_bytes()
        run_cli("train", "--config", str(manifest_file), "--out", str(tmp_path / "o"))
        assert manifest_file.read_bytes() == before

    @pytest.mark.parametrize("settings,jobs,shares", [
        # 4 runs (2 strategies x 2 seeds) and --jobs 2: two shares of 2 runs,
        # each trained as one lockstep group of its own
        ((), 2, [[("erm", 0), ("regmixup", 0)], [("erm", 1), ("regmixup", 1)]]),
        # 4 runs and --jobs 3: shares of 2, 1 and 1 runs, put back in run order
        ((("train.epochs", "2"),), 3, [[("erm", 0), ("regmixup", 1)], [("erm", 1)], [("regmixup", 0)]]),
        # 6 runs (3 strategies x 2 seeds) in shares of 3, each with a clean-only,
        # a mixed-only and a two-term run
        ((("strategies", "erm,mixup,regmixup"), ("mixup.alpha", "1.0")), 2,
         [[("erm", 0), ("mixup", 0), ("regmixup", 0)], [("erm", 1), ("mixup", 1), ("regmixup", 1)]]),
    ], ids=["jobs2", "jobs3_uneven", "jobs2_three_roles"])
    def test_jobs_write_a_single_workers_bytes(self, tmp_path, monkeypatch, settings, jobs, shares):
        text = MANIFEST
        for key, value in settings:
            text = text.replace(*_setting(text, key, value))
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text(text)
        seq = tmp_path / "seq"
        assert run_cli("train", "--config", str(cfg), "--out", str(seq)) == EXIT_OK
        import concurrent.futures

        seen = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, configs, *rest):
                seen.extend(configs)
                return super().map(fn, configs, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        par = tmp_path / "par"
        assert run_cli("train", "--config", str(cfg), "--out", str(par), "--jobs", str(jobs)) == EXIT_OK
        assert [[(c.strategy, c.seed) for c in share] for share in seen] == shares
        dir_s, dir_p = next(seq.iterdir()), next(par.iterdir())
        files = sorted(p.relative_to(dir_s) for p in dir_s.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(dir_p) for p in dir_p.rglob("*") if p.is_file())
        # manifest.txt, and a record and a checkpoint per run
        assert len(files) == 1 + 2 * sum(map(len, shares))
        for rel in files:
            assert (dir_p / rel).read_bytes() == (dir_s / rel).read_bytes(), rel
        for path in (dir_p / "records").iterdir():
            record = cli.ExperimentRecord.from_text(path.read_text())
            assert record.checkpoint == f"checkpoints/{path.stem}.ckpt"
            assert f"{record.config['strategy']}_seed{record.seed}" == path.stem

    def test_large_batch_replays_across_blas_threads(self, tmp_path):
        # a batch of 1,024 rows: the weight gradient's inner dimension is long
        # enough for OpenBLAS to split it across threads.  The thread count is
        # read when numpy loads, so each run is a process of its own.
        import subprocess
        import sys

        manifest = (Path(__file__).resolve().parent.parent / "configs" / "demo.cfg").read_text()
        for key, value in (("data.n", 6000), ("seeds", 0), ("train.epochs", 1),
                           ("train.batch_size", 1024)):
            manifest = manifest.replace(*_setting(manifest, key, value))
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(manifest)
        src = str(Path(cli.__file__).resolve().parent.parent)
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            subprocess.run([sys.executable, "-m", "vrlkit.cli", "train", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            run_dir = next(out.iterdir())
            trees.append({p.relative_to(run_dir): p.read_bytes()
                          for p in sorted(run_dir.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 7  # manifest, 3 records, 3 checkpoints
        assert trees[0] == trees[1]


class TestImagePipeline:
    def test_cifar_cutmix_end_to_end(self, tmp_path):
        cfg = write_cifar_manifest(tmp_path, "corruptions = gaussian_noise:3\n")
        out = tmp_path / "runs"
        base = ["--config", str(cfg), "--out", str(out)]
        assert run_cli("train", *base) == EXIT_OK
        assert run_cli("eval", *base) == EXIT_OK
        run_dir = next(out.iterdir())
        lines = (run_dir / "eval.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # 2 runs x (test + 1 corrupted)

    def test_ood_without_section_is_schema_error(self, manifest_file, tmp_path):
        text = manifest_file.read_text().replace("ood.kind = blob", "ood.kind = none")
        cfg = tmp_path / "noood.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        base = ["--config", str(cfg), "--out", str(out)]
        assert run_cli("train", *base) == EXIT_OK
        assert run_cli("ood", *base) == EXIT_SCHEMA


COMMANDS = ("train", "eval", "ood", "calibrate", "heatmap", "fisher")


def _setting(manifest, key, value):
    """The (old, new) text replacement that sets ``key = value`` in ``manifest``.

    Whole lines are replaced (``mixup.alpha`` leaves ``regmixup.alpha`` alone);
    a key the manifest lacks goes after its heatmap.pairs line.
    """
    new = f"\n{key} = {value}\n"
    old = next((line for line in manifest.splitlines() if line.startswith(key + " ")), None)
    return (f"\n{old}\n", new) if old else ("\nheatmap.pairs = 40\n", f"\nheatmap.pairs = 40{new}")


class TestBadManifestValues:
    """A malformed manifest value exits 3 with a one-line message, no traceback."""

    def _run(self, tmp_path, capsys, replace, commands, manifest=MANIFEST):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(manifest.replace(*replace))
        base = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        *before, last = commands
        for command in before:
            assert run_cli(command, *base) == EXIT_OK
        capsys.readouterr()
        assert run_cli(last, *base) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("blob", "ood.center", "a,b"),
            ("uniform_box", "ood.low", "a,b"),
            ("uniform_box", "ood.high", "a,b"),
            ("blob", "ood.center", "nan,nan"),
            ("uniform_box", "ood.high", "20,inf"),
        ],
        ids=[
            "blob-ood.center", "uniform_box-ood.low", "uniform_box-ood.high",
            "blob-ood.center-nan", "uniform_box-ood.high-inf",
        ],
    )
    def test_non_numeric_float_list(self, tmp_path, capsys, kind, key, value):
        replace = ("ood.kind = blob\nood.center = 10,10", f"ood.kind = {kind}\n{key} = {value}")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert key in err
        assert not (tmp_path / "o").exists()

    # 3,072 items, as a cifar ood.low: the bad one is found behind 1,500 good ones
    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "1e400"])
    def test_bad_item_of_a_long_float_list(self, tmp_path, capsys, bad):
        items = ["-20"] * 3072
        items[1500] = bad
        replace = ("ood.kind = blob\nood.center = 10,10",
                   f"ood.kind = uniform_box\nood.low = {','.join(items)}")
        err = self._run(tmp_path, capsys, replace, ["train"])
        line = MANIFEST.splitlines().index("ood.center = 10,10") + 1
        assert err == f"error: line {line}: key 'ood.low': expected a finite number, got {bad!r}\n"
        assert not (tmp_path / "o").exists()

    # regmixup.alpah beside regmixup.alpha = 10: a misspelt key would train at the other value
    @pytest.mark.parametrize("command", (*COMMANDS, "compare"))
    @pytest.mark.parametrize(
        "key,near",
        [("train.epoch", "train.epochs"), ("trian.epochs", "train.epochs"),
         ("mixup.alpah", "mixup.alpha"), ("regmixup.alpah", "regmixup.alpha"), ("foo", None)],
    )
    def test_unknown_key_names_the_nearest_known_key(self, tmp_path, capsys, command, key, near):
        replace = _setting(MANIFEST, key, "30")
        err = self._run(tmp_path, capsys, replace, [command])
        line = MANIFEST.replace(*replace).splitlines().index(f"{key} = 30") + 1
        assert err.startswith(f"error: line {line}: unknown key {key!r}; did you mean '")
        want = f"error: line {line}: unknown key {key!r}; did you mean {near!r}?\n"
        assert near is None or err == want
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [("train.epochs", "four", "key 'train.epochs': expected an integer, got 'four'"),
         ("heatmap.pairs", "0", "heatmap.pairs must be >= 1, got 0")],
        ids=["cast", "bound"],
    )
    def test_bad_value_names_its_line(self, tmp_path, capsys, key, value, message):
        replace = _setting(MANIFEST, key, value)
        err = self._run(tmp_path, capsys, replace, ["train"])
        line = MANIFEST.replace(*replace).splitlines().index(f"{key} = {value}") + 1
        assert err == f"error: line {line}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", (*COMMANDS, "compare"))
    @pytest.mark.parametrize("value", [",", ""], ids=["comma", "empty"])
    def test_empty_strategy_list(self, tmp_path, capsys, command, value):
        replace = _setting(MANIFEST, "strategies", value)
        err = self._run(tmp_path, capsys, replace, [command])
        line = MANIFEST.replace(*replace).splitlines().index(f"strategies = {value}") + 1
        assert err == f"error: line {line}: need at least one strategy\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_key(self, tmp_path, capsys):
        replace = ("heatmap.pairs = 40", "heatmap.pairs = 40\ntrain.epochs = 2")
        err = self._run(tmp_path, capsys, replace, ["train"])
        first = MANIFEST.splitlines().index("train.epochs = 4") + 1
        last = MANIFEST.splitlines().index("heatmap.pairs = 40") + 2
        assert err == f"error: line {last}: key 'train.epochs' is already set on line {first}\n"
        assert not (tmp_path / "o").exists()

    def test_non_integer_corruption_level(self, tmp_path, capsys):
        replace = ("gaussian_noise:1-2", "gaussian_noise:x")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert "gaussian_noise:x" in err

    def test_inverted_corruption_range(self, tmp_path, capsys):
        replace = ("gaussian_noise:1-2", "gaussian_noise:5-1")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert "gaussian_noise:5-1" in err

    def test_repeated_corruption_level(self, tmp_path, capsys):
        replace = ("gaussian_noise:1-2", "gaussian_noise:1-2,gaussian_noise:2")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert "corruptions lists gaussian_noise:2 more than once" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_ood_n(self, tmp_path, capsys, command, n):
        err = self._run(tmp_path, capsys, ("ood.n = 60", f"ood.n = {n}"), [command])
        assert "ood.n" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rotation_on_image_data(self, tmp_path, capsys, command):
        cfg = write_cifar_manifest(tmp_path, "corruptions = rotation2d:1\n")
        code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rotation2d" in err

    # Checked by load_manifest: `vrl train` stops before any work.
    @pytest.mark.parametrize("pairs", ["0", "-5"])
    def test_nonpositive_heatmap_pairs(self, tmp_path, capsys, pairs):
        replace = ("heatmap.pairs = 40", f"heatmap.pairs = {pairs}")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert "heatmap.pairs" in err
        assert not (tmp_path / "o").exists()

    def test_bad_heatmap_source(self, tmp_path, capsys):
        replace = ("heatmap.pairs = 40", "heatmap.pairs = 40\nheatmap.source = val")
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert "heatmap.source" in err
        assert not (tmp_path / "o").exists()

    # Checked before any work: `vrl train` makes no output directory.
    @pytest.mark.parametrize(
        "key,value",
        [
            ("data.test_frac", "1.5"),
            ("data.val_frac", "0"),
            ("data.n", "2"),
            ("data.noise_sd", "-1"),
            ("train.hidden", "0"),
            ("train.hidden", "8,-3"),
            ("train.activation", "gelu"),
            ("train.lr", "0"),
            ("train.epochs", "0"),
            ("seeds", "a"),
            ("data.noise_sd", "inf"),
            ("train.lr", "inf"),
        ],
    )
    def test_bad_data_train_or_seeds_value(self, tmp_path, capsys, key, value):
        replace = _setting(MOONS_MANIFEST, key, value)
        self._run(tmp_path, capsys, replace, ["train"], manifest=MOONS_MANIFEST)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "replace,key",
        [
            (("data.noise_sd = 1.0", "data.noise_sd = -1"), "data.noise_sd"),
            (("ood.n = 60", "ood.n = 60\nood.noise_sd = -2"), "ood.noise_sd"),
        ],
        ids=["blobs", "ood-blob"],
    )
    def test_negative_noise_sd(self, tmp_path, capsys, replace, key):
        err = self._run(tmp_path, capsys, replace, ["train"])
        assert f"{key} must be >= 0" in err
        assert not (tmp_path / "o").exists()

    def test_manifest_not_utf8_names_its_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(MANIFEST.replace("# tiny smoke", "# tiny café smoke").encode("latin-1"))
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_zero_blobs(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, ("data.k = 3", "data.k = 0"), ["train"])
        assert "data.k must be >= 1, got 0" in err
        assert not (tmp_path / "o").exists()

    def test_fisher_on_a_test_split_too_small_for_its_classes(self, tmp_path, capsys):
        # 240 rows, data.test_frac = 0.001: 3 test rows, one per class
        replace = ("data.test_frac = 0.25", "data.test_frac = 0.001")
        err = self._run(tmp_path, capsys, replace, ["train", "eval", "fisher"])
        # the message reports the train and val splits, which fisher does not build
        assert err == ("error: fisher needs >= 2 test classes of >= 2 rows each, found class 0 "
                       "with 1 row; the splits hold 213 train, 24 val, 3 test\n")
        assert not list(tmp_path.rglob("fisher.csv"))

    def test_ood_on_a_train_class_of_one_row(self, tmp_path, capsys):
        # class 2 has 3 rows, so the train split keeps 1: too few for its covariance
        rng = np.random.default_rng(0)
        data = tmp_path / "points.csv"
        data.write_text("".join(
            f"{x},{y},{label}\n"
            for label, n in ((0, 40), (1, 40), (2, 3)) for x, y in rng.normal(4 * label, 1, (n, 2))
        ))
        replace = ("data.kind = moons\ndata.n = 200\n", f"data.kind = csv\ndata.path = {data}\n")
        commands = ["train", "eval", "calibrate", "heatmap", "ood"]
        err = self._run(tmp_path, capsys, replace, commands, manifest=MOONS_MANIFEST)
        # the message reports the val split, which ood does not build
        assert err == ("error: ood needs >= 2 train rows of each class, found class 2 with "
                       "1 row; the splits hold 55 train, 7 val, 21 test\n")
        assert not list(tmp_path.rglob("ood.csv"))

    @pytest.mark.parametrize("source", ["train", "test"])
    def test_heatmap_on_a_one_class_split(self, tmp_path, capsys, source):
        # data.k = 1: train, eval, ood and calibrate run; heatmap stops up front
        replace = ("data.k = 3\n", "data.k = 1\n")
        manifest = MANIFEST.replace(*_setting(MANIFEST, "heatmap.source", source))
        err = self._run(tmp_path, capsys, replace, ["train", "eval", "heatmap"], manifest)
        # the message reports every split, though heatmap builds only its source
        rows = {"train": 162, "test": 60}[source]
        assert err == (f"error: heatmap needs >= 2 classes in the {source} split "
                       f"(heatmap.source), found 1 in its {rows} rows; "
                       "the splits hold 162 train, 18 val, 60 test\n")
        assert not list(tmp_path.rglob("heatmap_*.svg"))
        assert not list(tmp_path.rglob("barrier.csv"))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("train.epochs", "x"),
            ("train.hidden", "a"),
            ("train.lr", "fast"),
            ("regmixup.alpha", "big"),
            ("regmixup.eta", "y"),
            ("train.lr", "nan"),
            ("train.lr", "inf"),
            ("train.weight_decay", "nan"),
            ("regmixup.eta", "nan"),
            ("mixup.alpha", "nan"),
            ("data.separation", "nan"),
            ("data.noise_sd", "inf"),
        ],
    )
    def test_bad_train_or_strategy_value_names_its_key(self, tmp_path, capsys, key, value):
        # mixup joins the grid last, so the other cases still fail on their own key
        manifest = MANIFEST.replace(
            "strategies = erm,regmixup", "strategies = erm,regmixup,mixup\nmixup.alpha = 1"
        )
        err = self._run(
            tmp_path, capsys, _setting(manifest, key, value), ["train"], manifest=manifest
        )
        assert repr(key) in err and value in err  # quoted: 'mixup.alpha' is not regmixup.alpha
        assert not (tmp_path / "o").exists()

    def test_negative_eta_of_a_strategy_without_a_mixed_term_weight(self, tmp_path, capsys):
        manifest = MANIFEST.replace(
            "strategies = erm,regmixup", "strategies = erm,regmixup,mixup\nmixup.alpha = 1"
        )
        err = self._run(
            tmp_path, capsys, _setting(manifest, "mixup.eta", "-1"), ["train"], manifest=manifest
        )
        assert "eta must be >= 0, not -1.0 (strategy mixup)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("train.batch_size", "1", "need epochs >= 1 and batch_size >= 2"),
            ("train.momentum", "1", "momentum must be in [0, 1)"),
            ("mixup.eta", "-1", "eta must be >= 0, not -1.0 (strategy mixup)"),
            ("regmixup.batch_size", "1", "need epochs >= 1 and batch_size >= 2"),
            ("train.hidden", "8,0", "layer dims must be >= 1"),
        ],
        ids=["train.batch_size", "train.momentum", "mixup.eta", "regmixup.batch_size",
             "train.hidden"],
    )
    def test_value_train_config_rejects_names_its_key(self, tmp_path, capsys, key, value, reason):
        manifest = MANIFEST.replace(
            "strategies = erm,regmixup", "strategies = erm,regmixup,mixup\nmixup.alpha = 1"
        )
        replace = _setting(manifest, key, value)
        err = self._run(tmp_path, capsys, replace, ["train"], manifest=manifest)
        line = manifest.replace(*replace).splitlines().index(f"{key} = {value}") + 1
        assert err == f"error: line {line}: key {key!r}: {reason}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value,repeated",
        [
            ("strategies", "erm,regmixup,erm", "'erm'"),
            ("seeds", "0,0", "0"),
            ("seeds", "3,1,3", "3"),
        ],
    )
    def test_repeated_seed_or_strategy(self, tmp_path, capsys, key, value, repeated):
        err = self._run(tmp_path, capsys, _setting(MANIFEST, key, value), ["train"])
        assert f"{key} lists {repeated}" in err
        assert not (tmp_path / "o").exists()

    # every value that load_manifest or a dataset build rejects for one key
    # names the key's line, on blobs data unless said otherwise; a bound holds
    # for a data kind that does not read the key, too
    REJECTED = [
        ("corruptions", "gaussian_noise:0", "blobs"), ("corruptions", "blur:2", "blobs"),
        ("strategies", "erm,erm", "blobs"), ("strategies", "erm,foo", "blobs"),
        ("strategies", "", "blobs"), ("seeds", "0,0", "blobs"), ("train.batch_size", "1", "blobs"),
        ("data.noise_sd", "-1", "blobs"), ("data.k", "0", "blobs"),
        ("ood.center", "1,2,3", "blobs"), ("ood.low", "1,2,3", "uniform_box"),
        ("ood.high", "1,2,3", "uniform_box"), ("data.max_per_class", "0", "cifar"),
        ("corruptions", "rotation2d:1", "cifar"), ("data.k", "-2", "cifar"),
        ("data.noise_sd", "-1", "cifar"), ("data.k", "0", "csv"),
        ("data.max_per_class", "-1", "csv"),
    ]

    @pytest.mark.parametrize(
        "key,value,data", REJECTED,
        ids=[f"{key}-{value}" + f"-{data}" * (data != "blobs") for key, value, data in REJECTED],
    )
    def test_rejected_value_starts_with_its_line(self, tmp_path, capsys, key, value, data):
        manifest = {
            "blobs": MANIFEST,
            "uniform_box": MANIFEST.replace("ood.kind = blob\nood.center = 10,10",
                                            "ood.kind = uniform_box"),
            "csv": MANIFEST.replace("data.kind = blobs",
                                    f"data.kind = csv\ndata.path = {tmp_path / 'points.csv'}"),
        }.get(data) or write_cifar_manifest(tmp_path).read_text() + "heatmap.pairs = 40\n"
        replace = _setting(manifest, key, value)
        err = self._run(tmp_path, capsys, replace, ["train"], manifest=manifest)
        line = manifest.replace(*replace).splitlines().index(f"{key} = {value}") + 1
        assert err.startswith(f"error: line {line}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case",
        ["singleton_class", "cifar_size", "csv_cell", "csv_label_only", "csv_ragged",
         "csv_no_rows", "csv_negative_label", "max_per_class_0", "max_per_class_-1"],
    )
    def test_unreadable_or_unsplittable_data(self, tmp_path, capsys, case):
        cfg = write_cifar_manifest(tmp_path)
        data = tmp_path / "images.bin"
        if case == "singleton_class":
            labels = [0] * 6 + [1] + [2] * 5
            data.write_bytes(b"".join(bytes([lab]) + bytes(3072) for lab in labels))
            expected = "class 1 has 1 sample"
        elif case == "cifar_size":
            data.write_bytes(data.read_bytes()[:-1])
            expected = "multiple of 3073"
        elif case.startswith("max_per_class"):
            n = case.rsplit("_", 1)[1]
            cfg.write_text(cfg.read_text() + f"data.max_per_class = {n}\n")
            expected = f": data.max_per_class must be >= 1, got {n}"
        else:
            data = tmp_path / "points.csv"
            data.write_text({"csv_cell": "0.5,0.25,0\n0.5,abc,1\n", "csv_label_only": "0\n1\n0\n",
                             "csv_ragged": "0.5,0.25,0\n0.5,1\n0.5,0.25,1\n",
                             "csv_no_rows": "\n \n", "csv_negative_label": "1,2,-1\n1,3,0\n"}[case])
            cfg.write_text(MOONS_MANIFEST.replace(
                "data.kind = moons\ndata.n = 200\n", f"data.kind = csv\ndata.path = {data}\n"
            ))
            expected = {"csv_cell": "abc", "csv_label_only": "line 1: no feature column",
                        "csv_ragged": "line 2: 2 cells, expected 3", "csv_no_rows": "no data rows",
                        "csv_negative_label": "line 1: label -1 is negative"}[case]
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err
        assert not (tmp_path / "o").exists()


def _corrupt_artifact(run_dir, case):
    """Damage one artifact of a trained run; return the damaged file."""
    from vrlkit.nn import _CHECKPOINT_MAGIC

    ckpt = run_dir / "checkpoints" / "erm_seed1.ckpt"
    record = run_dir / "records" / "regmixup_seed0.record"
    if case == "truncated_record":
        text = record.read_text()
        record.write_text(text[: text.index("seed = ")])
        return record
    if case == "garbage_record":
        record.write_text("vrlkit-record v1\nstray line\n[meta]\nseed = 0\n")
        return record
    if case == "epoch_gap_record":
        lines = record.read_text().splitlines(keepends=True)
        record.write_text("".join(line for line in lines if not line.startswith("1 = ")))
        return record
    raw = ckpt.read_bytes()
    if case == "truncated_checkpoint":
        ckpt.write_bytes(raw[:-5])
    elif case == "checkpoint_header":
        ckpt.write_bytes(_CHECKPOINT_MAGIC + b"{not json\n" + raw.split(b"\n", 1)[1])
    elif case == "checkpoint_width":  # a float width that passes LayerSpec's >= 1 check
        ckpt.write_bytes(raw.replace(b'"in": 2,', b'"in": 2.0,', 1))
    else:
        ckpt.write_bytes(b"X" * len(_CHECKPOINT_MAGIC) + raw[len(_CHECKPOINT_MAGIC):])
    return ckpt


@pytest.mark.parametrize(
    "case",
    ["truncated_checkpoint", "checkpoint_header", "checkpoint_width", "checkpoint_magic",
     "truncated_record", "garbage_record", "epoch_gap_record"],
)
def test_corrupt_artifact_exits_schema(manifest_file, tmp_path, capsys, case):
    out = tmp_path / "runs"
    base = ["--config", str(manifest_file), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    damaged = _corrupt_artifact(next(out.iterdir()), case)
    capsys.readouterr()
    assert run_cli("eval", *base) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(damaged) in err



@pytest.mark.parametrize(
    "case,expected",
    [
        ("short_row", "has 5 cells"),
        ("non_numeric", "is not a number"),
        ("empty", "header is not"),
        ("non_ascii", "not an ASCII"),
        ("nan", "'nan' is not finite"),
        ("-inf", "'-inf' is not finite"),
    ],
)
def test_damaged_metric_csv_exits_schema(manifest_file, tmp_path, capsys, case, expected):
    out = tmp_path / "runs"
    base = ["--config", str(manifest_file), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    assert run_cli("eval", *base) == EXIT_OK
    damaged = next(out.iterdir()) / "eval.csv"
    text = damaged.read_text()
    if case == "short_row":
        damaged.write_text(text + "erm,0,test,accuracy,-\r\n")
    elif case == "non_numeric":
        damaged.write_text(text.replace(text.splitlines()[1].rsplit(",", 1)[1], "abc", 1))
    elif case in ("nan", "-inf"):
        damaged.write_text(text.replace(text.splitlines()[1].rsplit(",", 1)[1], case, 1))
    elif case == "empty":
        damaged.write_text("")
    else:
        damaged.write_bytes(text.encode("ascii") + b"erm,0,test,\xff,-,1.0\r\n")
    capsys.readouterr()
    assert run_cli("compare", *base) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(damaged) in err and expected in err
    assert not list(out.glob("compare_*.csv"))


@pytest.mark.parametrize(
    "command,param,value",
    [
        ("eval", "weights", np.nan),
        ("eval", "biases", np.inf),
        ("ood", "weights", np.nan),
        ("calibrate", "weights", np.nan),
        ("heatmap", "biases", -np.inf),
        ("fisher", "weights", np.nan),
    ],
)
def test_non_finite_checkpoint_exits_schema(manifest_file, tmp_path, capsys, command, param, value):
    from vrlkit.nn import load_checkpoint, save_checkpoint

    out = tmp_path / "runs"
    base = ["--config", str(manifest_file), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    ckpt = next(out.iterdir()) / "checkpoints" / "regmixup_seed1.ckpt"
    net = load_checkpoint(ckpt)
    getattr(net, param)[-1][0] = value
    save_checkpoint(net, ckpt)
    capsys.readouterr()
    assert run_cli(command, *base) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(ckpt) in err and "non-finite" in err


@pytest.mark.parametrize("command", ["calibrate", "heatmap"])
def test_damaged_later_checkpoint_writes_no_svg(manifest_file, tmp_path, capsys, command):
    # regmixup_seed1 is the last run loaded: every net loads before any SVG
    from vrlkit.nn import load_checkpoint, save_checkpoint

    out = tmp_path / "runs"
    base = ["--config", str(manifest_file), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    run_dir = next(out.iterdir())
    ckpt = run_dir / "checkpoints" / "regmixup_seed1.ckpt"
    net = load_checkpoint(ckpt)
    net.weights[0][0, 0] = np.nan
    save_checkpoint(net, ckpt)
    capsys.readouterr()
    assert run_cli(command, *base) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt) in err
    assert not list(run_dir.glob("reliability_*.svg"))
    assert not list(run_dir.glob("heatmap_*.svg"))
    assert not list(run_dir.glob("*.csv"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_diverged_training_exits_numeric(tmp_path, capsys, jobs):
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(re.sub(r"(?m)^train\.lr = .*$", "train.lr = 1e6", demo.read_text()))
    out = tmp_path / "o"
    capsys.readouterr()
    code = run_cli("train", "--config", str(cfg), "--out", str(out), "--seeds", "1",
                   "--jobs", jobs)
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged: ") and err.count("\n") == 1
    assert "seed 0: non-finite" in err
    assert not list(tmp_path.rglob("*.record")) and not list(tmp_path.rglob("*.ckpt"))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("strategy", ["cutmix", "regcutmix", "mixup_plus_cutmix",
                                      "reg_mixup_plus_regcutmix"])
def test_cutmix_on_non_image_data_exits_schema(manifest_file, tmp_path, capsys, strategy, jobs):
    text = MANIFEST.replace(*_setting(MANIFEST, "strategies", strategy))
    manifest_file.write_text(text + "train.alpha = 1\ntrain.eta = 1\n")
    out = tmp_path / "o"
    capsys.readouterr()
    code = run_cli("train", "--config", str(manifest_file), "--out", str(out), "--jobs", jobs)
    assert code == EXIT_SCHEMA
    assert capsys.readouterr().err == (f"error: strategy {strategy} needs image-shaped data "
                                       "(data.kind = cifar), not data.kind = blobs\n")
    assert not out.exists()  # no <hash>/ directory


def test_ood_on_features_that_do_not_vary_exits_numeric(manifest_file, tmp_path, capsys):
    # an all-zero net gives every train row the same features: every class
    # covariance is zero, and so is the Mahalanobis fit's epsilon
    from vrlkit.nn import load_checkpoint, save_checkpoint

    out = tmp_path / "runs"
    base = ["--config", str(manifest_file), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    run_dir = next(out.iterdir())
    ckpt = run_dir / "checkpoints" / "regmixup_seed1.ckpt"
    net = load_checkpoint(ckpt)
    for a in (*net.weights, *net.biases):
        a[...] = 0.0
    save_checkpoint(net, ckpt)
    capsys.readouterr()
    assert run_cli("ood", *base) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("error: ood: run regmixup_seed1: the class covariances "
                                       "of its train features are all zero or not finite\n")
    assert not (run_dir / "ood.csv").exists()


def test_tiny_alpha_trains(manifest_file, tmp_path):
    # Beta(0.001, 0.001) draws lambdas at 0 or 1 to rounding, and never NaN
    manifest_file.write_text(MANIFEST.replace(*_setting(MANIFEST, "regmixup.alpha", "0.001")))
    out = tmp_path / "o"
    assert run_cli("train", "--config", str(manifest_file), "--out", str(out)) == EXIT_OK
    assert len(list(out.rglob("regmixup_seed*.ckpt"))) == 2


def test_compare_rejects_one_manifest_given_twice(manifest_file, tmp_path, capsys):
    # comments and out do not enter the content hash
    twin = tmp_path / "twin.cfg"
    twin.write_text("# the same runs\nout = elsewhere\n" + MANIFEST)
    out = tmp_path / "o"
    assert run_cli("train", "--config", str(manifest_file), "--out", str(out)) == EXIT_OK
    assert run_cli("eval", "--config", str(manifest_file), "--out", str(out)) == EXIT_OK
    for second in (manifest_file, twin):
        capsys.readouterr()
        assert run_cli("compare", "--config", str(manifest_file), str(second),
                       "--out", str(out)) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{manifest_file} and {second}" in err
    assert not list(out.glob("compare_*.csv"))


def _tree(root):
    """Every file under ``root`` and its bytes."""
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestDataDigest:
    """`vrl train` ties a csv or cifar run directory to its data file's bytes."""

    @staticmethod
    def _write(tmp_path, rotate=0):
        """MANIFEST's blobs as a csv file, labels rotated by ``rotate``; the manifest path."""
        ds = make_gaussian_blobs(240, 3, 8.0, RngState(5))
        data = tmp_path / "blobs.csv"
        save_csv(dataclasses.replace(ds, labels=(ds.labels + rotate) % 3), data)
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(MANIFEST.replace("data.kind = blobs\n", f"data.kind = csv\ndata.path = {data}\n")
                       .replace("seeds = 0,1", "seeds = 0"))
        return cfg, data

    def _train(self, tmp_path):
        cfg, data = self._write(tmp_path)
        base = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert run_cli("train", *base) == EXIT_OK
        return base, data, load_manifest(cfg, tmp_path / "o").run_dir()

    @pytest.mark.parametrize("command", COMMANDS[1:])
    def test_changed_data_exits_incompatible(self, tmp_path, capsys, command):
        base, data, run_dir = self._train(tmp_path)
        self._write(tmp_path, rotate=1)
        before = _tree(tmp_path / "o")
        capsys.readouterr()
        assert run_cli(command, *base) == EXIT_INCOMPATIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(data) in err and cli._DATA_DIGEST in err
        assert _tree(tmp_path / "o") == before

    def test_unchanged_data_keeps_every_byte(self, tmp_path):
        base, data, run_dir = self._train(tmp_path)
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert (run_dir / cli._DATA_DIGEST).read_text() == f"{digest}  {data}\n"
        for command in COMMANDS[1:]:
            assert run_cli(command, *base) == EXIT_OK
        first = _tree(tmp_path / "o")
        for command in COMMANDS:
            assert run_cli(command, *base) == EXIT_OK
        assert _tree(tmp_path / "o") == first

    def test_missing_digest_exits_incompatible(self, tmp_path, capsys):
        base, data, run_dir = self._train(tmp_path)
        (run_dir / cli._DATA_DIGEST).unlink()
        capsys.readouterr()
        assert run_cli("eval", *base) == EXIT_INCOMPATIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: no data digest ") and err.count("\n") == 1
        assert not (run_dir / "eval.csv").exists()

    def test_blobs_data_writes_no_digest(self, manifest_file, tmp_path):
        assert run_cli("train", "--config", str(manifest_file), "--out", str(tmp_path / "o")) == 0
        assert not list((tmp_path / "o").rglob(cli._DATA_DIGEST))


def test_calibrate_rejects_small_test_split(tmp_path, capsys):
    # 40 records, data.test_frac = 0.3: 12 test rows, below AdaECE's 15 bins
    cfg = write_cifar_manifest(tmp_path)
    out = tmp_path / "runs"
    base = ["--config", str(cfg), "--out", str(out)]
    assert run_cli("train", *base) == EXIT_OK
    capsys.readouterr()
    assert run_cli("calibrate", *base) == EXIT_SCHEMA
    err = capsys.readouterr().err
    # the message reports the train split, which calibrate does not standardise
    assert err == ("error: calibrate needs >= 15 test rows for its 15-bin AdaECE; "
                   "the splits hold 22 train, 6 val, 12 test\n")
    assert not list(out.rglob("*.svg"))
    assert not list(out.rglob("calibrate.csv"))


def _spy(monkeypatch, name, calls):
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)


# Sets of pipeline parts: none, each command's (train; eval and fisher; ood;
# calibrate; heatmap on either source), a lone optional set, and every part.
PARTS = [(), ("train",), ("test",), ("corrupted",), ("ood",), ("train", "val"),
         ("val", "test"), ("test", "corrupted"), ("train", "test", "ood"), cli.PIPELINE_PARTS]


def parts_id(parts):
    return "+".join(parts) or "none"


class TestPipelineParts:
    """Each command builds and standardises only the sets it reads."""

    @pytest.mark.parametrize(
        "command,source,generated,standardized",
        [
            ("train", "train", [], ["/train/train", "/train/rest"]),
            ("calibrate", "train", [], ["/train/rest", "/rest"]),
            ("heatmap", "train", [], ["/train/train"]),
            ("heatmap", "test", [], ["/rest"]),
            ("eval", "train", ["_corrupt", "_corrupt"],
             ["/rest+gaussian_noise1", "/rest+gaussian_noise2", "/rest"]),
            ("fisher", "train", ["_corrupt", "_corrupt"],
             ["/rest+gaussian_noise1", "/rest+gaussian_noise2", "/rest"]),
            ("ood", "train", ["make_blob"], ["ood_blob", "/train/train", "/rest"]),
        ],
        ids=["train", "calibrate", "heatmap-train", "heatmap-test", "eval", "fisher", "ood"],
    )
    def test_commands_generate_only_what_they_read(
        self, tmp_path, monkeypatch, command, source, generated, standardized
    ):
        manifest_file = tmp_path / "exp.cfg"
        manifest_file.write_text(MANIFEST + f"heatmap.source = {source}\n")
        out = tmp_path / "o"
        if command != "train":
            assert run_cli("train", "--config", str(manifest_file), "--out", str(out)) == EXIT_OK
        calls, taken, sets = [], [], []
        for name in ("_corrupt", "make_blob", "make_uniform_box"):
            _spy(monkeypatch, name, calls)
        normalize, take = cli._normalize_in_place, Dataset.take

        def spy_normalize(ds, stats):
            sets.append(ds.name.removeprefix("gaussian_blobs"))
            return normalize(ds, stats)

        def spy_take(ds, idx, name=None):
            taken.append(name.removeprefix("gaussian_blobs"))
            return take(ds, idx, name)

        monkeypatch.setattr(cli, "_normalize_in_place", spy_normalize)
        monkeypatch.setattr(Dataset, "take", spy_take)
        assert run_cli(command, "--config", str(manifest_file), "--out", str(out)) == EXIT_OK
        assert calls == generated  # MANIFEST: gaussian_noise:1-2 and an ood blob
        # train /train/train, val /train/rest, test /rest and their corrupted copies
        assert sets == standardized
        # each split taken is standardised, but the train split, which the normalizer reads
        splits = {"/train/train", "/train/rest", "/rest"}
        assert sorted(taken) == sorted({"/train/train"} | splits.intersection(standardized))

    @pytest.mark.parametrize("image", [False, True], ids=["blobs", "cifar"])
    @pytest.mark.parametrize("parts", PARTS, ids=parts_id)
    def test_parts_equal_full_build_bitwise(self, manifest_file, tmp_path, image, parts):
        if image:
            path = write_cifar_manifest(
                tmp_path, "corruptions = gaussian_noise:2,feature_shift:1-2\n"
                "ood.kind = uniform_box\nood.n = 30\n"
            )
        else:
            path = manifest_file
        manifest = load_manifest(path, tmp_path / "o")
        full = build_pipeline(manifest)
        part = build_pipeline(manifest, parts=parts)
        for name in ("train", "val", "test"):
            a, b = getattr(full, name), getattr(part, name)
            if name in parts:
                assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
            else:
                assert b is None
        assert part._sizes == full._sizes == (full.train.n, full.val.n, full.test.n)
        if "ood" in parts:
            assert part.ood.name == full.ood.name
            assert np.array_equal(part.ood.x, full.ood.x)
        else:
            assert part.ood is None
        if "corrupted" in parts:
            assert [s for s, _ in part.corrupted] == [s for s, _ in full.corrupted]
            for (_, a), (_, b) in zip(part.corrupted, full.corrupted):
                assert a.name == b.name and np.array_equal(a.x, b.x)
            assert len(part.corrupted) == len(parse_corruptions(manifest.config["corruptions"]))
        else:
            assert part.corrupted == []

    def test_unknown_part_rejected(self, manifest_file, tmp_path):
        manifest = load_manifest(manifest_file, tmp_path / "o")
        with pytest.raises(ValueError, match="unknown pipeline parts"):
            build_pipeline(manifest, parts="ood")


def reference_pipeline(manifest, parts) -> cli.Pipeline:
    """build_pipeline by the public, copying functions: the oracle of its in-place build.

    Two splits, the (x - mean) / sd formula on a copy of each set named in
    ``parts``, and ``corrupt`` with its own pooled SD for each spec.
    """
    cfg = manifest.values
    seed = cli._get(cfg, "data.seed")
    base = cli._base_dataset(cfg, seed)
    test_frac, val_frac = cli._get(cfg, "data.test_frac"), cli._get(cfg, "data.val_frac")
    pool, test = split(base, 1.0 - test_frac, True, RngState(seed).split(101))
    train, val = split(pool, 1.0 - val_frac, True, RngState(seed).split(102))
    mean, sd = fit_normalizer(train)

    def normalized(ds):
        return dataclasses.replace(ds, x=(ds.x - mean) / sd)

    def split_set(name, ds):
        return normalized(ds) if name in parts else None

    ood = None
    if "ood" in parts:
        make, args, name = cli._ood_dataset(manifest, base.d)
        ood = normalized(make(*args, RngState(seed).split(200), name=name))
    corrupted = []
    if "corrupted" in parts:
        for i, spec in enumerate(parse_corruptions(manifest.config["corruptions"])):
            corrupted.append((spec, normalized(corrupt(test, spec, RngState(seed).split(103, i)))))
    return cli.Pipeline(split_set("train", train), split_set("val", val),
                        split_set("test", test), ood, corrupted)


def assert_same_sets(a, b):
    assert (a.name, a.k, a.image_shape, a.x.shape) == (b.name, b.k, b.image_shape, b.x.shape)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


class TestBuildPipelineOracle:
    """build_pipeline writes each set once, in place, and every set equals the
    reference build bit for bit: every data kind, corruption kind and OOD kind."""

    @staticmethod
    def manifest(tmp_path, kind, ood_kind):
        corruptions = "gaussian_noise:1-2,feature_shift:3,feature_scale:2"
        ood = f"ood.kind = {ood_kind}\nood.n = 25\n"
        if kind == "cifar":
            return write_cifar_manifest(tmp_path, f"corruptions = {corruptions}\n{ood}")
        if kind == "csv":  # 3 features: no rotation2d
            rng = np.random.default_rng(8)
            labels = np.arange(90) % 3
            x = rng.normal(size=(90, 3)) + 4.0 * labels[:, None]
            save_csv(Dataset(x, labels, k=3, name="csv"), tmp_path / "data.csv")
            data = f"data.kind = csv\ndata.path = {tmp_path / 'data.csv'}\n"
        else:
            corruptions += ",rotation2d:1-5"
            data = {"blobs": "data.kind = blobs\ndata.n = 150\ndata.k = 3\n",
                    "moons": "data.kind = moons\ndata.n = 120\n"}[kind]
        path = tmp_path / "oracle.cfg"
        path.write_text(f"{data}data.seed = 7\ncorruptions = {corruptions}\n{ood}"
                        "strategies = erm\nseeds = 0\n")
        return path

    @pytest.mark.parametrize("parts", PARTS, ids=parts_id)
    @pytest.mark.parametrize("ood_kind", ["blob", "uniform_box"])
    @pytest.mark.parametrize("kind", ["blobs", "moons", "csv", "cifar"])
    def test_equals_reference_bitwise(self, tmp_path, kind, ood_kind, parts):
        manifest = load_manifest(self.manifest(tmp_path, kind, ood_kind), tmp_path / "o")
        got = build_pipeline(manifest, parts=parts)
        want = reference_pipeline(manifest, parts)
        for name in ("train", "val", "test"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None) == (name not in parts)
            if a is not None:
                assert_same_sets(a, b)
        assert (got.ood is None) == (want.ood is None) == ("ood" not in parts)
        if got.ood is not None:
            assert_same_sets(got.ood, want.ood)
        assert [s for s, _ in got.corrupted] == [s for s, _ in want.corrupted]
        for (_, a), (_, b) in zip(got.corrupted, want.corrupted):
            assert_same_sets(a, b)
        if "corrupted" in parts:  # the fixture has every kind; rotation2d needs 2-D rows
            d = got.corrupted[0][1].d
            allowed = set(CORRUPTION_KINDS) - (set() if d == 2 else {"rotation2d"})
            assert {spec.kind for spec, _ in got.corrupted} == allowed


class TestBuildPipelineMemory:
    """A build holds the loaded set and its splits at most: no pool copy, the
    loaded set is gone before the normalizer fit, and the fit sums its
    variance in row blocks, with no full-size temporary."""

    @pytest.mark.parametrize("n", [300, 1200])
    def test_peak_under_2_25x_the_loaded_set(self, tmp_path, n):
        import tracemalloc

        from vrlkit.datagen import CIFAR_RECORD_BYTES

        rng = np.random.default_rng(n)
        records = rng.integers(0, 256, (n, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = np.arange(n) % 10
        manifest = load_manifest(write_cifar_manifest(tmp_path), tmp_path / "o")
        (tmp_path / "images.bin").write_bytes(records.tobytes())  # over the 40-record fixture
        loaded = n * (CIFAR_RECORD_BYTES - 1) * 8
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            pipe = build_pipeline(manifest, parts=("train", "val", "test"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pipe.train.n + pipe.val.n + pipe.test.n == n
        assert peak < 2.25 * loaded, f"peak {peak / loaded:.2f}x the loaded set"


class TestConsoleScript:
    def test_entry_point_help(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "vrlkit.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout and "compare" in proc.stdout
