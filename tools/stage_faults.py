"""CPU time and minor page faults of each stage of one benchmark workload.

Usage: python3 tools/stage_faults.py --workload W --seed S [--iterations N]

Run in a vrlkit checkout. The script pins one BLAS thread before numpy
loads, as perfbench/run.py does, builds the workload of
perfbench/workloads.py at the seed, and runs all its stages N times
(default 5), each iteration in a fresh output directory. A
clock.Scaled reference pass follows every stage, as in a benchmark run.

It prints one JSON line: for each stage, in run order, the medians over the
iterations of its raw CPU seconds (`cpu_s`), its scaled seconds (`scaled_s`)
and the minor page faults it took (`minflt`, the ru_minflt delta around the
stage alone), and ru_maxrss in MiB right after the stage in the first
iteration (`maxrss_mb`); and the process's peak RSS (`peak_rss_mb`, ru_maxrss
in MiB). A change that removes a large temporary reports these per stage: a
temporary the allocator hands back to the system is faulted in again on its
next use. ru_maxrss only grows, so the stage at which `maxrss_mb` jumps is
the one that sets the first iteration's peak.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # the standard library only, so numpy is not loaded yet

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=5)
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be >= 1")
    run.pin_environment()
    import clock
    import workloads

    samples = {}  # stage label -> [(cpu_s, scaled_s, minflt), ...]
    maxrss = {}  # stage label -> ru_maxrss in MiB right after it, first iteration
    with tempfile.TemporaryDirectory(prefix="vrl-stage-faults-") as tmp:
        tmp = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](ROOT, tmp, args.seed)
        for i in range(args.iterations):
            out_dir = tmp / f"iter{i}"
            scaled = clock.Scaled()
            for _, label, stage in workload.stages(out_dir):
                faults, cpu = minflt(), clock.CPU()
                stage()
                cpu, faults = clock.CPU() - cpu, minflt() - faults
                samples.setdefault(label, []).append((cpu, scaled.scale(cpu), faults))
                maxrss.setdefault(label, maxrss_mb())
            shutil.rmtree(out_dir, ignore_errors=True)
    stages = {
        label: {**{name: statistics.median(column)
                   for name, column in zip(("cpu_s", "scaled_s", "minflt"), zip(*rows))},
                "maxrss_mb": maxrss[label]}
        for label, rows in samples.items()
    }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "iterations": args.iterations,
        "stages": stages,
        "peak_rss_mb": maxrss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
