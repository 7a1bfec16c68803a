"""Alternating parent/change pairs of the end-to-end benchmark, summarised.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...]
        --seeds FIRST-LAST [--seconds 18] [--claim WORKLOAD:METRIC] [--out FILE]

PARENT and CHANGE are two vrlkit checkouts. For every workload and seed the
script runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, one run at a time: the parent first on odd
seeds, the change first on even ones. The two checkouts' absolute paths must
have the same length, as the timings move with the path length alone.

The JSON written to FILE (stdout without --out) holds:

- workloads: per workload, one entry per pair: the seed, which side ran
  first, and each side's result line, with that run's `report` line under
  the key "report";
- summary: per workload and end-to-end metric, both medians, the change's
  relative move, both (q1, q3), the parent's IQR, and in how many pairs the
  change was better; and under "raw_cpu", each side's median of its runs'
  median `pipeline_cpu_s` and `scale` samples (raw CPU seconds of one
  pipeline, and the clock's scaled-over-raw factor), with the number of
  pairs in which the change spent less raw CPU; and under "failed_runs",
  each side's number of runs whose result line reads `"correct": false`
  (a stage or check failed);
- claimed (with --claim): that metric's summary, and whether the claim is
  met: better in at least nine pairs of ten, and medians further apart than
  the parent's IQR.

The script exits 1, after the JSON is written, if any run failed; each
failed run's workload, seed and side go to stderr. Metric directions are
read from CHANGE's BENCHMARK.json. Each run is its own process; this script
imports nothing from perfbench/.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = (
    "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, both included")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def run(checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run in `checkout`: its result line, with its report line
    under "report", and its env line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"error: {workload} seed {seed} in {checkout} printed no result "
            f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
        )
    env = next((line[4:] for line in lines if line.startswith("env ")), None)
    report = next((line[7:] for line in lines if line.startswith("report ")), None)
    result["report"] = json.loads(report) if report else None
    return result, json.loads(env) if env else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs, better: dict) -> dict:
    summary = {}
    for metric, direction in better.items():
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        parent_q = quartiles(parent)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        summary[metric] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_rel": c_med / p_med - 1.0 if p_med else None,
            "parent_q1_q3": list(parent_q),
            "change_q1_q3": list(quartiles(change)),
            "parent_iqr": parent_q[1] - parent_q[0],
            "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    raw = {side: {key: [statistics.median(p[side]["report"]["samples"][key]) for p in pairs]
                  for key in ("pipeline_cpu_s", "scale")} for side in ("parent", "change")}
    summary["raw_cpu"] = {
        **{f"{side}_{key}": statistics.median(values)
           for side, samples in raw.items() for key, values in samples.items()},
        "change_less_cpu": sum(c < p for p, c in zip(raw["parent"]["pipeline_cpu_s"],
                                                     raw["change"]["pipeline_cpu_s"])),
        "pairs": len(pairs),
    }
    summary["failed_runs"] = {side: sum(not p[side]["correct"] for p in pairs)
                              for side in ("parent", "change")}
    return summary


def claim(summary: dict, workload: str, metric: str, direction: str) -> dict:
    """The claim that the change improves ``metric`` of ``workload``: its
    summary, and whether it is met (better in at least nine pairs of ten,
    and medians further apart than the parent's IQR)."""
    s = summary[workload][metric]
    gap = s["parent_median"] - s["change_median"]
    if direction != "lower":
        gap = -gap
    return {
        "workload": workload, "metric": metric,
        **{k: s[k] for k in ("parent_median", "change_median", "change_rel",
                             "parent_iqr", "change_wins", "pairs")},
        "met": s["change_wins"] >= math.ceil(0.9 * s["pairs"]) and gap > s["parent_iqr"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"error: checkout paths differ in length: {parent} ({len(str(parent))}) "
              f"and {change} ({len(str(change))})", file=sys.stderr)
        return 2
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": COMMAND.format(workload="<workload>", seed="<seed>", seconds=args.seconds),
        "protocol": (
            f"{len(seeds)} alternating pairs per workload on seeds {args.seeds}, one run at "
            "a time; the parent runs first on odd seeds, the change on even ones (each "
            "pair's 'first' field). Both checkouts' absolute paths have the same length."
        ),
        "environment": {},
        "workloads": {},
        "summary": {},
    }
    for workload in args.workload:
        pairs = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], env = run(parent if side == "parent" else change,
                                      workload, seed, args.seconds)
                report["environment"].setdefault(side, env)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} pipeline_s {pair[side]['metrics']['pipeline_s']['value']:.4f}"
                for side in ("parent", "change")), file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = pairs
        report["summary"][workload] = summarise(pairs, better)
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        report["claimed"] = claim(report["summary"], workload, metric, better[metric])
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    failed = [(workload, pair["seed"], side) for workload, pairs in report["workloads"].items()
              for pair in pairs for side in ("parent", "change") if not pair[side]["correct"]]
    for workload, seed, side in failed:
        print(f"error: {workload} seed {seed}: the {side} run failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
