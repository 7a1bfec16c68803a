"""One local runner for the replay checks of CI.

Usage: python3 tools/checks.py CHECK

Checks:

- digest: the library-uq workload at seed 5, once at 1 and once at 2 BLAS
  threads, each in a fresh interpreter with OPENBLAS_NUM_THREADS set before
  numpy loads and VRL_DETERMINISTIC=1. Each side hashes every result but
  mc_exact and meanfield_exact (the two exact-Laplace predictives, which
  replay only at a fixed thread count), key by key in sorted order. Prints
  the digest; if the two sides differ, exits 1 with one line giving both.

The vrlkit that runs is this checkout's src/. A failing check exits
non-zero with one line naming it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DIGEST = """
import hashlib
import numpy as np
from workloads import LibraryWorkload
workload = LibraryWorkload(5)
for _, _, stage in workload.stages(None):
    stage()
h = hashlib.sha256()
for key in sorted(set(workload.results) - {"mc_exact", "meanfield_exact"}):
    h.update(key.encode())
    h.update(np.asarray(workload.results[key]).tobytes())
print(h.hexdigest())
"""


def _run(check: str, code: str, threads: int) -> str:
    """The stdout of ``code`` in a fresh interpreter at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), VRL_DETERMINISTIC="1",
               PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        sys.exit(f"{check}: exited with {done.returncode} at OPENBLAS_NUM_THREADS={threads}: {last}")
    return done.stdout.strip()


def digest():
    one, two = (_run("digest", _DIGEST, threads) for threads in (1, 2))
    if one != two:
        sys.exit(f"digest: library-uq results {one} at 1 BLAS thread, {two} at 2")
    print(one)


CHECKS = {"digest": digest}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    CHECKS[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
