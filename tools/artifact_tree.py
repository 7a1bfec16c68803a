"""Write the replay tree: three manifests through all seven `vrl` commands,
a `--jobs 2` train and the library-uq digest.

Usage: PYTHONPATH=src python3 tools/artifact_tree.py OUT

OUT gets:

- inputs/: the cifar-shaped and large-batch manifests, and the records the
  first reads;
- demo/: the `--out` tree of configs/demo.cfg (67 artifacts);
- cifar-shaped/: that of perfbench/workloads.py's seed-5 cifar-shaped
  manifest (20, its data digest included);
- large-batch/: that of large_batch_manifest(), whose 2,048-row batches nn's
  256-row gradient chunks keep OpenBLAS from splitting across threads (19);
- jobs/: `vrl train --jobs 2` on configs/demo.cfg; each file equals demo/'s (31);
- library-uq/results.sha256: results_digest() of the seed-5 library-uq
  benchmark's results (1), also printed. It leaves out the exact-Laplace
  predictives, whose GGN GEMMs and np.linalg.inv vary with the thread count.

The vrlkit that runs is whichever one is on PYTHONPATH, and every path in
the tree is relative to OUT, so two trees written from two checkouts compare
with a plain `diff -r`. OUT must not exist yet.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 5  # of the cifar-shaped records and of the library results
COMMANDS = ("train", "eval", "ood", "calibrate", "heatmap", "fisher", "compare")
LARGE_BATCH = {"data.n": "6000", "seeds": "0", "train.hidden": "64,64",
               "train.epochs": "2", "train.batch_size": "2048"}
FIXED_THREADS_ONLY = {"mc_exact", "meanfield_exact"}


def large_batch_manifest() -> str:
    """The text of configs/demo.cfg with LARGE_BATCH's values in place of its own."""
    lines = (ROOT / "configs" / "demo.cfg").read_text().splitlines(keepends=True)
    keys = [line.partition("=")[0].strip() for line in lines]
    for key, value in LARGE_BATCH.items():
        lines[keys.index(key)] = f"{key} = {value}\n"
    return "".join(lines)


def results_digest(results: dict) -> str:
    """The sha256 of each key outside FIXED_THREADS_ONLY, in order, and its value's bytes."""
    h = hashlib.sha256()
    for key in sorted(results.keys() - FIXED_THREADS_ONLY):
        h.update(key.encode())
        h.update(np.asarray(results[key]).tobytes())
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    sys.path.append(str(ROOT / "perfbench"))
    from vrlkit import cli
    from vrlkit.datagen import CIFAR_RECORD_BYTES
    from workloads import CIFAR_MANIFEST, LibraryWorkload, cifar_records

    # data.path is resolved against the working directory, so run from OUT
    # and name the records relative to it.
    os.chdir(out)
    inputs = Path("inputs")
    inputs.mkdir()
    (inputs / "cifar.bin").write_bytes(cifar_records(SEED))
    d = CIFAR_RECORD_BYTES - 1
    cifar_cfg = inputs / "cifar-shaped.cfg"
    cifar_cfg.write_text(CIFAR_MANIFEST.format(
        path=inputs / "cifar.bin", seed=SEED,
        low=",".join(["0.0"] * d), high=",".join(["1.0"] * d),
    ))
    (inputs / "large-batch.cfg").write_text(large_batch_manifest())
    demo = ROOT / "configs" / "demo.cfg"
    manifests = {"demo": demo, "cifar-shaped": cifar_cfg, "large-batch": inputs / "large-batch.cfg"}
    runs = [(name, cfg, command) for name, cfg in manifests.items() for command in COMMANDS]
    for name, cfg, command, *extra in [*runs, ("jobs", demo, "train", "--jobs", "2")]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(cfg), "--out", name, *extra])
        if rc != cli.EXIT_OK:
            print(f"vrl {command} on {name} exited with {rc}", file=sys.stderr)
            return 1
    workload = LibraryWorkload(SEED)
    for _, _, stage in workload.stages(None):
        stage()
    digest = results_digest(workload.results)
    Path("library-uq").mkdir()
    Path("library-uq", "results.sha256").write_text(f"{digest}\n")
    n = sum(1 for p in Path().rglob("*") if p.is_file() and p.parts[0] != "inputs")
    print(f"{n} artifacts under {out}; library-uq results {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
