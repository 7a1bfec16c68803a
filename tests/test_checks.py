"""The pure parts of tools/checks.py, the runner of the replay checks, and of
tools/artifact_tree.py, the writer of the replay tree."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vrlkit.cli import load_manifest


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, artifact_tree = _tool("checks"), _tool("artifact_tree")

# The large-batch manifest written out in full: the oracle of large_batch_manifest().
LARGE_BATCH_CFG = """\
# configs/demo.cfg on 6,000 points, one seed, 64,64 units, 2 epochs of 2,048-row batches
data.kind = blobs
data.n = 6000
data.k = 3
data.separation = 8.0
data.noise_sd = 1.0
data.seed = 5
data.test_frac = 0.25
data.val_frac = 0.1
ood.kind = blob
ood.center = 10,10
ood.n = 300
corruptions = gaussian_noise:1-5
strategies = erm,mixup,regmixup
seeds = 0
train.hidden = 64,64
train.activation = tanh
train.epochs = 2
train.batch_size = 2048
train.lr = 0.1
train.momentum = 0.9
train.weight_decay = 0.0005
train.schedule = cosine
mixup.alpha = 1.0
regmixup.alpha = 10
regmixup.eta = 1
heatmap.pairs = 1000
heatmap.source = train
"""


def test_large_batch_manifest_hashes_as_written_out(tmp_path):
    hashes = []
    built = artifact_tree.large_batch_manifest()
    for name, text in (("built", built), ("oracle", LARGE_BATCH_CFG)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        hashes.append(load_manifest(path, tmp_path).content_hash())
    assert hashes[0] == hashes[1] == "545753106f8a"


# Every key of a hand-made results dict moves the digest, but the two
# exact-Laplace predictives, which replay only at a fixed BLAS thread count.
RESULTS = {"auroc": 0.75, "mc_exact": np.eye(2), "meanfield_exact": np.ones((2, 2)),
           "mc": np.full((2, 2), 0.5), "temperature": np.float64(1.5)}


@pytest.mark.parametrize("key", sorted(RESULTS))
def test_results_digest_leaves_out_exactly_the_exact_laplace_keys(key):
    assert artifact_tree.FIXED_THREADS_ONLY == {"mc_exact", "meanfield_exact"}
    changed = dict(RESULTS, **{key: np.asarray(RESULTS[key]) + 1.0})
    moved = artifact_tree.results_digest(changed) != artifact_tree.results_digest(RESULTS)
    assert moved == (key not in {"mc_exact", "meanfield_exact"})


@pytest.mark.parametrize(
    "change,expected",
    [
        (lambda a, b: (b / "run" / "x.csv").write_bytes(b"1,3\r\n"), "run/x.csv differs"),
        (lambda a, b: (b / "y.svg").unlink(), "only in {a}: y.svg"),
        (lambda a, b: (b / "run" / "z.ckpt").write_bytes(b""), "only in {b}: run/z.ckpt"),
    ],
    ids=["changed-byte", "missing-file", "extra-file"],
)
def test_tree_difference_names_the_first_difference(tmp_path, change, expected):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "x.csv").write_bytes(b"1,2\r\n")
        (root / "y.svg").write_bytes(b"<svg/>")
    assert checks.tree_difference(a, b) is None
    change(a, b)
    assert checks.tree_difference(a, b) == expected.format(a=a, b=b)


HAVE = "{tree} holds {{'cifar-shaped': 1, 'demo': 1}} artifacts, want "


@pytest.mark.parametrize(
    "want,expected",
    [({"demo": 1, "cifar-shaped": 1}, None),
     ({"demo": 1, "cifar-shaped": 2}, HAVE + "{{'demo': 1, 'cifar-shaped': 2}}"),
     ({"demo": 0, "cifar-shaped": 1}, HAVE + "{{'demo': 0, 'cifar-shaped': 1}}"),
     ({"demo": 2, "cifar-shaped": 0}, HAVE + "{{'demo': 2, 'cifar-shaped': 0}}"),
     ({"demo": 67, "cifar-shaped": 20, "large-batch": 19, "library-uq": 1},
      HAVE + "{{'demo': 67, 'cifar-shaped': 20, 'large-batch': 19, 'library-uq': 1}}"),
     (checks.TREE_ARTIFACTS,
      HAVE + "{{'demo': 67, 'cifar-shaped': 20, 'large-batch': 19, 'jobs': 31, 'library-uq': 1}}")],
    ids=["exact", "missing", "extra", "wrong-part", "four-parts", "five-parts"],
)
def test_artifact_count_skips_inputs(tmp_path, want, expected):
    for name in ("inputs/cifar.bin", "demo/h/eval.csv", "cifar-shaped/h/ood.csv"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(b"")
    difference = checks.artifact_count_difference(tmp_path, want)
    assert difference == (expected and expected.format(tree=tmp_path))


@pytest.mark.parametrize("argv", [["bogus"], [], ["counts", "digest"], ["digest"], ["large-batch"],
                                  ["jobs"]])
def test_unknown_check_exits_2_with_usage(capsys, argv):
    assert checks.main(argv) == 2
    assert capsys.readouterr().err == "Usage: python3 tools/checks.py counts|replay|all\n"


@pytest.mark.parametrize("jobs_ckpt,expected", [
    (b"w", None),
    (b"v", "replay: jobs/h/checkpoints/erm_seed0.ckpt differs from demo/h/checkpoints/erm_seed0.ckpt"),
], ids=["equal", "checkpoint-differs"])
def test_replay_holds_jobs_to_demo(tmp_path, monkeypatch, jobs_ckpt, expected):
    def write_tree(check, args, threads=1):
        # every part at its TREE_ARTIFACTS count; jobs/ is demo/'s first files
        for part, count in checks.TREE_ARTIFACTS.items():
            (Path(args[1]) / part / "h" / "checkpoints").mkdir(parents=True)
            for name in ["checkpoints/erm_seed0.ckpt", *(str(i) for i in range(count - 1))]:
                data = jobs_ckpt if part == "jobs" and name.endswith(".ckpt") else b"w"
                (Path(args[1]) / part / "h" / name).write_bytes(data)
        return "written"

    monkeypatch.setattr(checks, "_run", write_tree)
    if expected is None:
        checks.replay(tmp_path)
    else:
        with pytest.raises(SystemExit) as exit_info:
            checks.replay(tmp_path)
        assert exit_info.value.code == expected


def test_failing_variant_exits_with_one_line_naming_the_check():
    code = "import sys; print('trace', file=sys.stderr); sys.exit('boom')"
    with pytest.raises(SystemExit) as exit_info:
        checks._run("replay", ["-c", code], 2)
    assert exit_info.value.code == "replay: exited with 1 at OPENBLAS_NUM_THREADS=2: boom"


def test_counts_table_pins_a_count_metric_per_column():
    benchmark = json.loads((checks.ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    assert all(units[name] == "count" for name in checks.COUNTED)
    assert {"cli.build_pipeline_calls", "datagen.calls"} <= set(checks.COUNTED)
    assert set(checks.COUNTS) == {w["name"] for w in benchmark["workloads"]}
    assert all(len(row) == len(checks.COUNTED) for row in checks.COUNTS.values())


def test_workflow_runs_tier1_then_exactly_the_defined_checks():
    workflow = (checks.ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"(?m)^\s*- run: python3 tools/checks\.py (\S+)$", workflow) == list(checks.CHECKS)
    tier1, = re.findall(r"(?m)^\s*- name: Tier-1 tests\n\s*run: (.*)$", workflow)
    verify, = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (checks.ROOT / "ROADMAP.md").read_text())
    assert tier1.startswith(verify)
