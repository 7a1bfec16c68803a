"""Write the replay tree: every artifact of two manifests through all seven
`vrl` commands, under VRL_DETERMINISTIC=1.

Usage: PYTHONPATH=src python3 tools/artifact_tree.py OUT

The manifests are configs/demo.cfg (67 artifacts) and the seed-5
cifar-shaped manifest of perfbench/workloads.py (20 artifacts, its data
digest included). OUT gets:

- inputs/: the cifar-shaped manifest and the records it reads;
- demo/ and cifar-shaped/: the `--out` trees of the two manifests.

The vrlkit that runs is whichever one is on PYTHONPATH, and every path in
the tree is relative to OUT, so two trees written from two checkouts compare
with a plain `diff -r`. OUT must not exist yet.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CIFAR_SEED = 5
COMMANDS = ("train", "eval", "ood", "calibrate", "heatmap", "fisher", "compare")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    os.environ["VRL_DETERMINISTIC"] = "1"
    sys.path.append(str(ROOT / "perfbench"))
    from vrlkit import cli
    from vrlkit.datagen import CIFAR_RECORD_BYTES
    from workloads import CIFAR_MANIFEST, cifar_records

    # data.path is resolved against the working directory, so run from OUT
    # and name the records relative to it.
    os.chdir(out)
    inputs = Path("inputs")
    inputs.mkdir()
    (inputs / "cifar.bin").write_bytes(cifar_records(CIFAR_SEED))
    d = CIFAR_RECORD_BYTES - 1
    cifar_cfg = inputs / "cifar-shaped.cfg"
    cifar_cfg.write_text(CIFAR_MANIFEST.format(
        path=inputs / "cifar.bin", seed=CIFAR_SEED,
        low=",".join(["0.0"] * d), high=",".join(["1.0"] * d),
    ))
    for name, cfg in (("demo", ROOT / "configs" / "demo.cfg"), ("cifar-shaped", cifar_cfg)):
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", str(cfg), "--out", name])
            if rc != cli.EXIT_OK:
                print(f"vrl {command} on {name} exited with {rc}", file=sys.stderr)
                return 1
    n = sum(1 for name in ("demo", "cifar-shaped") for p in Path(name).rglob("*") if p.is_file())
    print(f"{n} artifacts under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
