"""Set-up probe: one fresh interpreter, from start to first stage ready.

    python3 perfbench/probe.py cli <manifest>     import vrlkit, load the manifest, build the datasets
    python3 perfbench/probe.py library <seed>     import vrlkit, build the library-uq datasets

Prints ``ready <CPU seconds so far>`` once the datasets are built. The
benchmark's own inputs (CIFAR bytes, manifests) already exist on disk, so
their generation is not part of set-up.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    kind, arg = argv
    if kind == "cli":
        from vrlkit import cli

        cli.build_pipeline(cli.load_manifest(arg, out_override="unused"))
    elif kind == "library":
        import workloads

        workloads.library_data(int(arg))
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    # CPU time since this process started, interpreter start-up included.
    print(f"ready {time.process_time()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
