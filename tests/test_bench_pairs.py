"""The pure parts of tools/bench_pairs.py: the per-workload summary and the
claim rule, on synthetic pairs of runs, and its exit code, on synthetic runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"train_s": "lower", "train_samples_per_s": "higher"}


def side(train_s, cpu, scale):
    """One run's result line as bench_pairs.run returns it: its metrics, and
    its report line's pipeline_cpu_s and scale samples."""
    return {"correct": True, "metrics": {"train_s": {"value": train_s},
                        "train_samples_per_s": {"value": 1000.0 / train_s}},
            "report": {"samples": {"pipeline_cpu_s": cpu, "scale": scale}}}


def pairs(parent_train, change_train, parent_cpu=None, change_cpu=None):
    n = len(parent_train)
    parent_cpu = parent_cpu or [[1.0, 1.2, 1.1]] * n
    change_cpu = change_cpu or [[0.9, 1.0, 0.95]] * n
    return [{"seed": seed, "first": "parent" if seed % 2 else "change",
             "parent": side(p, pc, [1.3, 1.5, 1.4]), "change": side(c, cc, [1.2, 1.25, 1.3])}
            for seed, (p, c, pc, cc) in enumerate(zip(parent_train, change_train,
                                                      parent_cpu, change_cpu))]


class TestSummarise:
    def test_medians_quartiles_and_wins(self):
        parent, change = [1.0, 1.2, 1.1, 1.4, 1.3], [0.9, 1.3, 1.0, 1.0, 1.1]
        got = bench_pairs.summarise(pairs(parent, change), BETTER)["train_s"]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        assert got["parent_median"] == 1.2 and got["change_median"] == 1.0
        assert got["change_rel"] == pytest.approx(1.0 / 1.2 - 1.0)
        assert got["parent_q1_q3"] == [q1, q3] and got["parent_iqr"] == q3 - q1
        assert got["change_wins"] == 4 and got["pairs"] == 5

    def test_a_higher_is_better_metric_counts_the_other_way(self):
        parent, change = [1.0, 1.2, 1.1], [0.9, 1.3, 1.0]
        got = bench_pairs.summarise(pairs(parent, change), BETTER)["train_samples_per_s"]
        assert got["change_wins"] == 2

    def test_raw_cpu_and_scale_medians_beside_the_scaled_metrics(self):
        parent_cpu = [[1.0, 3.0, 2.0], [4.0, 4.0, 4.0], [2.5, 2.5, 9.0]]  # run medians 2, 4, 2.5
        change_cpu = [[2.5, 2.5, 2.5], [1.0, 5.0, 3.0], [2.0, 2.0, 2.0]]  # 2.5, 3, 2
        got = bench_pairs.summarise(
            pairs([1.0] * 3, [1.0] * 3, parent_cpu, change_cpu), BETTER)["raw_cpu"]
        assert got == {"parent_pipeline_cpu_s": 2.5, "change_pipeline_cpu_s": 2.5,
                       "parent_scale": 1.4, "change_scale": 1.25,
                       "change_less_cpu": 2, "pairs": 3}


class TestFailedRuns:
    def test_summary_counts_each_sides_failed_runs(self):
        got = pairs([1.0] * 3, [1.0] * 3)
        got[1]["change"]["correct"] = False
        got[2]["change"]["correct"] = False
        summary = bench_pairs.summarise(got, BETTER)
        assert summary["failed_runs"] == {"parent": 0, "change": 2}
        assert summary["train_s"]["pairs"] == 3  # a failed run's metrics still count

    @pytest.mark.parametrize("fail", [None, ("parent", 2)], ids=["clean", "failed"])
    def test_a_failed_run_exits_1_after_the_json(self, tmp_path, monkeypatch, capsys, fail):
        checkouts = [tmp_path / "parent", tmp_path / "change"]
        spec = {"end_to_end": [{"name": name, "better": way} for name, way in BETTER.items()]}
        for checkout in checkouts:
            checkout.mkdir()
            (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
        runs = []

        def run(checkout, workload, seed, seconds):
            result = side(1.0, [1.0], [1.0])
            result["correct"] = (checkout.name, seed) != fail
            result["metrics"]["pipeline_s"] = {"value": 1.0}  # main prints it per pair
            runs.append((checkout.name, seed))
            return result, {}

        monkeypatch.setattr(bench_pairs, "run", run)
        out = tmp_path / "pairs.json"
        code = bench_pairs.main([*map(str, checkouts), "--workload", "demo-blobs",
                                 "--seeds", "1-3", "--out", str(out)])
        assert len(runs) == 6
        report = json.loads(out.read_text())
        failed = report["summary"]["demo-blobs"]["failed_runs"]
        err = capsys.readouterr().err
        if fail is None:
            assert code == 0 and failed == {"parent": 0, "change": 0}
            assert "failed" not in err
        else:
            assert code == 1 and failed == {"parent": 1, "change": 0}
            assert "error: demo-blobs seed 2: the parent run failed\n" in err
            assert report["workloads"]["demo-blobs"][1]["parent"]["correct"] is False


class TestClaim:
    def _claim(self, parent, change, metric="train_s"):
        summary = {"demo-blobs": bench_pairs.summarise(pairs(parent, change), BETTER)}
        return bench_pairs.claim(summary, "demo-blobs", metric, BETTER[metric])

    def test_met_with_nine_of_ten_better_and_medians_apart(self):
        parent = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.00, 1.01, 1.02]
        change = [0.85] * 9 + [1.05]
        got = self._claim(parent, change)
        assert got["change_wins"] == 9 and got["pairs"] == 10 and got["met"]
        assert (got["workload"], got["metric"]) == ("demo-blobs", "train_s")

    def test_not_met_with_eight_of_ten_better(self):
        parent = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.00, 1.01, 1.02]
        change = [0.85] * 8 + [1.05, 1.05]
        got = self._claim(parent, change)
        assert got["change_wins"] == 8 and not got["met"]

    def test_not_met_when_the_medians_are_within_the_parent_iqr(self):
        parent = [0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15, 0.95, 1.05, 1.0]
        change = [p - 0.01 for p in parent]  # better in every pair, by a hair
        got = self._claim(parent, change)
        assert got["change_wins"] == 10 and not got["met"]

    def test_a_higher_is_better_metric_needs_a_higher_median(self):
        parent = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.00, 1.01, 1.02]
        assert self._claim(parent, [0.85] * 10, "train_samples_per_s")["met"]
        assert not self._claim(parent, [1.2] * 10, "train_samples_per_s")["met"]
