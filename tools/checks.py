"""The replay checks of CI, each defined once.

Usage: python3 tools/checks.py counts|replay|jobs|all

- counts: one traced perfbench pass per workload at seed 5 gives COUNTS.
- replay: tools/artifact_tree.py writes the same tree twice at 1 BLAS thread
  and once at 2, and each part of it holds its TREE_ARTIFACTS count of
  artifacts: 67 demo, 20 cifar-shaped, 19 large-batch (2,048-row batches)
  and 1 library-uq (the digest of the library benchmark's results). This is
  the one byte-for-byte check across BLAS thread counts.
- jobs: `vrl train --jobs 2` on configs/demo.cfg, outside deterministic mode,
  writes the checkpoints of a deterministic single-worker train.
- all: each check above, in turn.

Each variant is a fresh interpreter with OPENBLAS_NUM_THREADS set before numpy
loads, this checkout's src/ and perfbench/ on PYTHONPATH and VRL_DETERMINISTIC=1
unless said otherwise. Output goes to a temporary directory. A failing check
exits non-zero with one line naming it and the first differing file or count.
"""

import json
import os
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "configs" / "demo.cfg"
PYTHONPATH = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))

# The seed-5 traced counts of each workload, one per COUNTED metric. The last
# two pin the dataset builds: a CLI pass builds six times, and each build makes
# 2 datagen calls (base set and normalizer fit), plus `vrl ood`'s draw.
COUNTED = ("nn.forward_calls", "nn.backward_calls", "nn.sgd_steps",
           "vicinal.regmix_calls", "tensor.rng_streams", "vicinal.mix_calls",
           "cli.build_pipeline_calls", "datagen.calls")
COUNTS = {
    "demo-blobs": (457, 400, 400, 400, 270, 400, 6, 13),
    "cifar-shaped": (161, 104, 104, 104, 126, 220, 6, 13),
    "library-uq": (604, 574, 574, 574, 222, 574, 0, 1),
}

# The artifacts of each part of a replay tree: every file that
# tools/artifact_tree.py writes under the part's directory (cifar-shaped's
# includes data.sha256). A part that lost or gained one, such as a data digest
# written for the wrong manifest, fails replay on both sides.
TREE_ARTIFACTS = {"demo": 67, "cifar-shaped": 20, "large-batch": 19, "library-uq": 1}


def _run(check: str, args: list, threads: int = 1, deterministic: bool = True) -> str:
    """The stdout of ``python *args`` in a fresh interpreter at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               VRL_DETERMINISTIC=str(int(deterministic)), PYTHONPATH=PYTHONPATH)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        sys.exit(f"{check}: exited with {done.returncode} at OPENBLAS_NUM_THREADS={threads}: {last}")
    return done.stdout.strip()


def tree_difference(a: Path, b: Path):
    """The first path, in sorted order, where trees ``a`` and ``b`` differ, or None."""
    trees = [{p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    for name in sorted(trees[0].keys() | trees[1].keys()):
        x, y = (tree.get(name) for tree in trees)
        if x is None or y is None:
            return f"only in {b if x is None else a}: {name}"
        if x != y:
            return f"{name} differs"


def artifact_count_difference(tree: Path, want: dict = TREE_ARTIFACTS):
    """How many artifacts each part of replay tree ``tree`` holds (inputs/
    aside), if not ``want``, else None."""
    have = Counter(p.relative_to(tree).parts[0] for p in tree.rglob("*") if p.is_file())
    del have["inputs"]
    if have != want:
        return f"{tree} holds {dict(sorted(have.items()))} artifacts, want {want}"


def _same(check, a, b):
    if difference := tree_difference(a, b):
        sys.exit(f"{check}: {difference}")


def counts(tmp):
    for workload, want in COUNTS.items():
        out = _run("counts", ["perfbench/run.py", "--workload", workload,
                              "--seed", "5", "--seconds", "1", "--trace", "1"])
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        for name, value in zip(COUNTED, want):
            if metrics[name]["value"] != value:
                sys.exit(f"counts: {workload} {name} is {metrics[name]['value']:g}, want {value}")
        print(f"counts: {workload} matches")


def replay(tmp):
    trees = [tmp / name for name in "abc"]
    for tree, threads in zip(trees, (1, 1, 2)):
        print("replay:", _run("replay", ["tools/artifact_tree.py", str(tree)], threads))
        if difference := artifact_count_difference(tree):
            sys.exit(f"replay: {difference}")
    for tree in trees[1:]:
        _same("replay", trees[0], tree)


def jobs(tmp):
    train = ["-m", "vrlkit.cli", "train", "--config", str(DEMO), "--out"]
    _run("jobs: vrl train", [*train, str(tmp / "one")])
    _run("jobs: vrl train", [*train, str(tmp / "two"), "--jobs", "2"], deterministic=False)
    # records hold wall-clock fields outside deterministic mode; checkpoints do not
    (one,), (two,) = ((tmp / side).iterdir() for side in ("one", "two"))
    _same("jobs", one / "checkpoints", two / "checkpoints")
    print("jobs: checkpoints match")


CHECKS = {"counts": counts, "replay": replay, "jobs": jobs}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in (*CHECKS, "all"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name in CHECKS if argv[0] == "all" else argv:
        with tempfile.TemporaryDirectory(prefix=f"vrl-{name}-") as tmp:
            CHECKS[name](Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
