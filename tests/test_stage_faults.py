"""tools/stage_faults.py end to end, on one demo-blobs iteration."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_demo_iteration_reports_every_stage():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_faults.py"),
         "--workload", "demo-blobs", "--seed", "1", "--iterations", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert (result["workload"], result["seed"], result["iterations"]) == ("demo-blobs", 1, 1)
    assert list(result["stages"]) == ["train", "eval", "ood", "calibrate", "heatmap",
                                      "fisher", "compare"]
    for stage in result["stages"].values():
        assert set(stage) == {"cpu_s", "scaled_s", "minflt", "maxrss_mb"}
        assert stage["cpu_s"] > 0 and stage["scaled_s"] > 0 and stage["minflt"] >= 0
    maxrss = [stage["maxrss_mb"] for stage in result["stages"].values()]
    assert maxrss[0] > 0 and maxrss == sorted(maxrss)  # ru_maxrss never falls
    assert maxrss[-1] <= result["peak_rss_mb"]
