"""The replay checks of CI, each defined once.

Usage: python3 tools/checks.py counts|replay|all

- counts: one traced perfbench pass per workload at seed 5 gives COUNTS.
- replay: tools/artifact_tree.py writes the same tree twice at 1 BLAS thread
  and once at 2, and each part of it holds its TREE_ARTIFACTS count of
  artifacts: 67 demo, 20 cifar-shaped, 19 large-batch (2,048-row batches),
  31 jobs (`vrl train --jobs 2` on configs/demo.cfg, each file byte-equal to
  demo's) and 1 library-uq (the digest of the library benchmark's results).
  This is the one byte-for-byte check across BLAS thread counts.
- all: each check above, in turn.

Each variant is a fresh interpreter with OPENBLAS_NUM_THREADS set before numpy
loads and this checkout's src/ and perfbench/ on PYTHONPATH.
Output goes to a temporary directory. A failing check exits non-zero with one
line naming it and the first differing file or count.
"""

import json
import os
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
TREE_ARTIFACTS = {"demo": 67, "cifar-shaped": 20, "large-batch": 19, "jobs": 31, "library-uq": 1}


def _run(check: str, args: list, threads: int = 1) -> str:
    """The stdout of ``python *args`` in a fresh interpreter at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=PYTHONPATH)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        sys.exit(f"{check}: exited with {done.returncode} at OPENBLAS_NUM_THREADS={threads}: {last}")
    return done.stdout.strip()


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def tree_difference(a: Path, b: Path):
    """The first path, in sorted order, where trees ``a`` and ``b`` differ, or None."""
    trees = [_files(a), _files(b)]
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


def jobs_difference(tree: Path):
    """The first jobs/ file of replay tree ``tree`` not byte-equal to demo/'s, or None."""
    demo = _files(tree / "demo")
    for name, data in sorted(_files(tree / "jobs").items()):
        if demo.get(name) != data:
            return f"jobs/{name} differs from demo/{name}"


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
        if difference := artifact_count_difference(tree) or jobs_difference(tree):
            sys.exit(f"replay: {difference}")
    for tree in trees[1:]:
        if difference := tree_difference(trees[0], tree):
            sys.exit(f"replay: {difference}")


CHECKS = {"counts": counts, "replay": replay}


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
