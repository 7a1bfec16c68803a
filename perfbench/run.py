"""vrlkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload demo-blobs --seed 5 --seconds 18 --trace 0

Run from the repository root. The run builds the workload's inputs from the
seed, times set-up in fresh interpreters (probe.py), then repeats the whole
workload pipeline until the next iteration would overrun --seconds (at least
two iterations, so artifacts can be compared byte for byte). Every iteration
is checked; a failed stage or check counts as a failed operation and makes
the exit code 1.

With --trace 0 the metrics are the end-to-end ones, medians over the
iterations. With --trace 1 untraced and traced iterations alternate; the
metrics are the per-layer ones from the traced iterations (see tracing.py),
plus the tracing overhead. The last line of stdout is the JSON result; the
lines before it record the environment and the per-metric sample counts.
See METRICS.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demo-blobs", "cifar-shaped", "library-uq")

# One BLAS thread: the thread count changes the GEMM-bound timings, and a
# single-threaded workload is what clock.py's CPU-time clock assumes.
BLAS_THREADS = 1
SETUP_PROBES = 5
# Past this point no new iteration starts, so a run ends well within 180 s
# even on a slow machine.
RUN_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "train_samples_per_s": "samples/s",
    "calibrate_s": "s",
    "score_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ops_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Fix BLAS threads and deterministic mode before numpy is imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["VRL_DETERMINISTIC"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return int(threads)


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def time_probe(args: list) -> tuple[float, float]:
    """(CPU seconds, wall seconds) of a fresh interpreter up to its `ready` line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait()
    word, _, cpu = line.partition(" ")
    if rc != 0 or word != "ready":
        raise RuntimeError(f"set-up probe {args} exited with {rc}")
    return float(cpu), wall


def run_iteration(workload, out_dir: Path, tracer=None) -> tuple[dict, int, list]:
    """Run every stage once.

    Returns scaled seconds per stage group and their sum ("pipeline"), the
    unscaled CPU and wall totals and the overall scale; the number of
    stages; and the failures.
    """
    import clock

    times = {"train": 0.0, "calibrate": 0.0, "score": 0.0, "pipeline": 0.0, "cpu": 0.0}
    failures = []
    stages = workload.stages(out_dir)
    wall = time.perf_counter()
    scaled = clock.Scaled()
    for group, label, fn in stages:
        if tracer is not None:
            tracer.stage = f"{group}:{label}"
        cpu = clock.CPU()
        try:
            fn()
        except Exception:  # a failed stage is counted and reported, the run goes on
            failures.append(f"stage {label}: {traceback.format_exc()}")
        cpu = clock.CPU() - cpu
        seconds = scaled.scale(cpu)
        times[group] += seconds
        times["pipeline"] += seconds
        times["cpu"] += cpu
    times["wall"] = time.perf_counter() - wall
    times["scale"] = times["pipeline"] / times["cpu"]
    return times, len(stages), failures


def summary(values: list) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99, 90):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000)[int(p * 10) - 1]
            break
    return out


def measure(args, tmp: Path) -> tuple[dict, dict, int, int, list]:
    """One benchmark run: (metrics, report, attempted, failed, problems)."""
    import clock
    import tracing
    import workloads

    run_start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](ROOT, tmp, args.seed)

    setup = []  # (scaled s, CPU s, wall s)
    scaled = clock.Scaled()
    for _ in range(SETUP_PROBES):
        cpu, wall = time_probe(workload.probe_args())
        setup.append((scaled.scale(cpu), cpu, wall))

    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    plain, traced, problems = [], [], []
    attempted = failed = 0
    first_digest = None
    measure_start = time.perf_counter()
    i = 0
    while True:
        out_dir = tmp / f"iter{i}"
        if args.trace and i % 2 == 1:
            with tracer.installed():
                times, n_stages, failures = run_iteration(workload, out_dir, tracer)
            traced.append(times)
        else:
            times, n_stages, failures = run_iteration(workload, out_dir)
            plain.append(times)
        checks = workload.check(out_dir)
        digest = workload.digest(out_dir)
        if first_digest is None:
            first_digest = digest
            details = {name: detail for name, ok, detail in checks if ok and detail}
        else:
            checks.append(("artifacts_identical", digest == first_digest,
                           f"iteration {i} differs from iteration 0"))
        shutil.rmtree(out_dir, ignore_errors=True)
        attempted += n_stages + len(checks)
        failed += len(failures) + sum(1 for _, ok, _ in checks if not ok)
        problems += failures + [f"check {name}: {detail}" for name, ok, detail in checks if not ok]
        i += 1
        now = time.perf_counter()
        pair_done = not args.trace or i % 2 == 0
        if i >= 2 and pair_done and (
            now - measure_start + times["wall"] > args.seconds or now - run_start > RUN_LIMIT_S
        ):
            break

    report = {"workload": args.workload, "seed": args.seed, "iterations": i, "checks": details}
    if args.trace:
        scale = statistics.median(t["scale"] for t in traced)
        values, counts = tracer.metrics(len(traced), scale)
        missing = tracing.missing_layers(args.workload, counts)
        attempted += sum(1 for w in tracing.EXERCISED.values() if args.workload in w)
        failed += len(missing)
        problems += [f"check layer {name}: no calls recorded" for name in missing]
        untraced_s = statistics.median(t["pipeline"] for t in plain)
        values["trace.pipeline_s"] = statistics.median(t["pipeline"] for t in traced)
        values["trace.overhead_s"] = values["trace.pipeline_s"] - untraced_s
        spans = ROOT / ".perfbench_out" / f"trace-{args.workload}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        report["untraced_pipeline_s"] = untraced_s
        report["spans_file"] = str(spans.relative_to(ROOT))
        metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.METRICS.items()}
    else:
        stats = {
            "setup_s": summary([s for s, _, _ in setup]),
            "pipeline_s": summary([t["pipeline"] for t in plain]),
            "train_s": summary([t["train"] for t in plain]),
            "train_samples_per_s": summary([workload.train_samples / t["train"] for t in plain]),
            "calibrate_s": summary([t["calibrate"] for t in plain]),
            "score_s": summary([t["score"] for t in plain]),
        }
        values = {k: s["median"] for k, s in stats.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_ops_frac"] = 1.0 - failed / attempted
        report["timings"] = stats
        report["samples"] = {
            "pipeline_s": [t["pipeline"] for t in plain],
            "pipeline_cpu_s": [t["cpu"] for t in plain],
            "pipeline_wall_s": [t["wall"] for t in plain],
            "scale": [t["scale"] for t in plain],
            "setup_cpu_s": [cpu for _, cpu, _ in setup],
            "setup_wall_s": [wall for _, _, wall in setup],
        }
        report["train_samples_per_iteration"] = workload.train_samples
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report["failed_ops_frac"] = failed / attempted
    return metrics, report, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vrlkit" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/vrlkit; run from a vrlkit checkout", file=sys.stderr)
        return 2
    blas_threads = pin_environment()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        metrics, report, attempted, failed, problems = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in problems:
        print(problem, file=sys.stderr)
    print("env " + json.dumps(environment(blas_threads), sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
