"""Span tracing of vrlkit from outside the library, and the per-layer metrics.

``Tracer.installed()`` wraps the public functions of each vrlkit module (the
"layers") for the duration of a ``with`` block. A wrapper records one span:
name, layer, start, end, parent span, the benchmark stage and the run id.
Spans stay in memory; ``write`` stores them as JSON lines at the end.

A wrapper only sees calls that look the function up where it was replaced,
so every binding is replaced: module attributes in every ``vrlkit`` module
(``cli`` and ``trainer`` import functions by name), tuples that hold a
function (``cli._LOGIT_MEASURES``), and the methods of the ``RngState``
class. ``EXERCISED`` lists the counts that must come out non-zero, so a
binding that was missed shows up as a failed check instead of a silent gap.
"""

import contextlib
import functools
import hashlib
import json
import os
import sys

import numpy as np

import clock
from vrlkit import cli, datagen, evalkit, nn, tensor, trainer, uncertainty, vicinal

# layer -> (home module, public functions wrapped there)
LAYERS = {
    "datagen": (datagen, (
        "make_two_moons", "make_gaussian_blobs", "make_blob", "make_uniform_box",
        "load_cifar_binary", "load_csv", "save_csv", "fit_normalizer", "apply_normalizer",
        "corrupt", "split",
    )),
    "vicinal": (vicinal, ("mixup_batch", "cutmix_batch", "regmix_loss")),
    "nn": (nn, ("forward", "backward", "sgd_step", "save_checkpoint", "load_checkpoint")),
    "trainer": (trainer, ("train", "cross_validate", "train_ensemble", "ensemble_predict")),
    "uncertainty": (uncertainty, (
        "entropy_score", "ds_score", "energy_score", "mps_score", "fit_class_gaussians",
        "mahalanobis_score", "fit_laplace_last_layer", "mc_predictive", "meanfield_predictive",
    )),
    "evalkit": (evalkit, (
        "auroc", "ece", "adaece", "fit_temperature", "apply_temperature", "fisher_criterion",
        "entropy_profile", "barrier_statistic", "heatmap_svg", "reliability_svg",
    )),
    "cli": (cli, (
        "main", "load_manifest", "build_pipeline", "load_records", "_load_net", "write_csv",
        "cmd_train", "cmd_eval", "cmd_ood", "cmd_calibrate", "cmd_heatmap", "cmd_fisher",
        "cmd_compare",
    )),
}
RNG_METHODS = ("__init__", "uniform", "normal", "integers", "permutation", "gamma")

# Per-layer metrics: name -> unit. A name ending in self_s is self time (span
# duration minus the wrapped calls inside it); any other *_s is the whole
# duration of the named calls, not counting a call nested in another one.
METRICS = {
    "tensor.rng_streams": "count",
    "tensor.rng_self_s": "s",
    "datagen.calls": "count",
    "datagen.self_s": "s",
    "datagen.bytes_read": "bytes",
    "vicinal.mix_calls": "count",
    "vicinal.mix_self_s": "s",
    "vicinal.regmix_calls": "count",
    "nn.forward_calls": "count",
    "nn.forward_rows": "rows",
    "nn.forward_self_s": "s",
    "nn.backward_calls": "count",
    "nn.backward_self_s": "s",
    "nn.sgd_steps": "count",
    "nn.sgd_self_s": "s",
    "nn.gemm_gflop": "GFLOP",
    "nn.gemm_gflop_per_s": "GFLOP/s",
    "nn.forward_unique_frac": "ratio",
    "nn.checkpoint_io_s": "s",
    "nn.checkpoint_bytes": "bytes",
    "trainer.train_calls": "count",
    "trainer.steps": "count",
    "trainer.self_s": "s",
    "trainer.step_p50_ms": "ms",
    "trainer.step_p99_ms": "ms",
    "uncertainty.scores_s": "s",
    "uncertainty.mahalanobis_s": "s",
    "uncertainty.laplace_fit_s": "s",
    "uncertainty.laplace_fit_exact_s": "s",
    "uncertainty.predictive_s": "s",
    "evalkit.fit_temperature_calls": "count",
    "evalkit.fit_temperature_s": "s",
    "evalkit.ece_s": "s",
    "evalkit.auroc_calls": "count",
    "evalkit.auroc_s": "s",
    "evalkit.fisher_s": "s",
    "evalkit.entropy_profile_s": "s",
    "evalkit.entropy_profile_rows": "rows",
    "evalkit.svg_s": "s",
    "evalkit.svg_bytes": "bytes",
    "cli.build_pipeline_calls": "count",
    "cli.build_pipeline_s": "s",
    "cli.load_net_calls": "count",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must be non-zero on the workloads that run the code behind them.
_ALL = ("demo-blobs", "cifar-shaped", "library-uq")
_CLI = ("demo-blobs", "cifar-shaped")
EXERCISED = {
    "tensor.rng_streams": _ALL,
    "datagen.calls": _ALL,
    "datagen.bytes_read": ("cifar-shaped",),
    "vicinal.mix_calls": _ALL,
    "vicinal.regmix_calls": _ALL,
    "nn.forward_calls": _ALL,
    "nn.backward_calls": _ALL,
    "nn.sgd_steps": _ALL,
    "nn.checkpoint_bytes": _CLI,
    "trainer.train_calls": _ALL,
    "trainer.steps": _ALL,
    "evalkit.fit_temperature_calls": _ALL,
    "evalkit.auroc_calls": _ALL,
    "evalkit.entropy_profile_rows": _ALL,
    "evalkit.svg_bytes": _CLI,
    "cli.build_pipeline_calls": _CLI,
    "cli.load_net_calls": _CLI,
    "cli.csv_bytes": _CLI,
    # Timed calls with no count of their own: at least one span each.
    "uncertainty.scores": _ALL,
    "uncertainty.mahalanobis": _ALL,
    "uncertainty.laplace_fit": ("library-uq",),
    "uncertainty.laplace_fit_exact": ("library-uq",),
    "uncertainty.predictive": ("library-uq",),
    "evalkit.ece": _ALL,
    "evalkit.fisher": _CLI,
}

_SCORES = {"uncertainty.entropy_score", "uncertainty.ds_score", "uncertainty.energy_score",
           "uncertainty.mps_score"}
_MAHALANOBIS = {"uncertainty.fit_class_gaussians", "uncertainty.mahalanobis_score"}
_PREDICTIVE = {"uncertainty.mc_predictive", "uncertainty.meanfield_predictive"}
_SVG = {"evalkit.heatmap_svg", "evalkit.reliability_svg"}
_CHECKPOINT = {"nn.save_checkpoint", "nn.load_checkpoint"}
_MIX = {"vicinal.mixup_batch", "vicinal.cutmix_batch"}


def _forward_flop(net, rows: int) -> int:
    return 2 * rows * sum(s.in_dim * s.out_dim for s in net.layers)


def _backward_flop(net, rows: int) -> int:
    # inp.T @ delta for every layer, delta @ W.T for every layer but the first
    dims = [s.in_dim * s.out_dim for s in net.layers]
    return 2 * rows * (2 * sum(dims) - dims[0])


def _file_bytes(path) -> int:
    return os.path.getsize(path)


class Tracer:
    """Records spans for one workload run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, layer, stage, start, end, attrs)
        self.stage = ""  # "<group>:<label>" of the running benchmark stage
        self._stack = []
        self._next_id = 0
        self._net_digests = {}  # id(net) -> (net, digest); holding net pins the id
        self._iteration = 0  # repeats count within one traced iteration only

    # --- recording -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, attrs=None):
        tracer = self
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = clock.CPU()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock.CPU()
                tracer._stack.pop()
            extra = {}
            if attrs is not None:
                # Attribute work (hashing, stat calls) is a span of its own so
                # that it never counts as the parent's self time.
                extra = attrs(args, kwargs, result)
                tracer.spans.append((tracer._next_id, parent, "trace.attrs", "trace",
                                     tracer.stage, end, clock.CPU(), {}))
                tracer._next_id += 1
            tracer.spans.append((sid, parent, span_name, layer, tracer.stage, start, end, extra))
            return result

        return wrapper

    def _forward_attrs(self, args, kwargs, result):
        net, x = args[0], np.asarray(args[1])
        out = {"rows": x.shape[0], "flop": _forward_flop(net, x.shape[0])}
        if not self.stage.startswith("train:"):
            entry = self._net_digests.get(id(net))
            if entry is None:
                h = hashlib.blake2b(digest_size=16)
                for w, b in zip(net.weights, net.biases):
                    h.update(w.tobytes())
                    h.update(b.tobytes())
                entry = self._net_digests[id(net)] = (net, h.hexdigest())
            # Every 61st value plus the exact sum: hashing whole 3072-wide
            # inputs doubled the traced cifar-shaped iteration.
            flat = np.ascontiguousarray(x).ravel()
            x_digest = hashlib.blake2b(flat[::61].tobytes(), digest_size=16).hexdigest()
            out["key"] = f"{self._iteration}:{entry[1]}:{x.shape}:{x_digest}:{float(flat.sum())!r}"
        return out

    def _attrs_for(self, layer: str, name: str):
        if (layer, name) == ("nn", "forward"):
            return self._forward_attrs
        if (layer, name) == ("nn", "backward"):
            return lambda a, k, r: {"flop": _backward_flop(a[0], a[1].x.shape[0])}
        if (layer, name) == ("nn", "save_checkpoint"):
            return lambda a, k, r: {"bytes": _file_bytes(a[1])}
        if (layer, name) == ("nn", "load_checkpoint"):
            return lambda a, k, r: {"bytes": _file_bytes(a[0])}
        if (layer, name) in (("datagen", "load_cifar_binary"), ("datagen", "load_csv")):
            return lambda a, k, r: {"bytes": _file_bytes(a[0])}
        if (layer, name) == ("cli", "write_csv"):
            return lambda a, k, r: {"bytes": _file_bytes(a[0])}
        if layer == "evalkit" and name.endswith("_svg"):
            return lambda a, k, r: {"bytes": len(r)}
        if (layer, name) == ("uncertainty", "fit_laplace_last_layer"):
            return lambda a, k, r: {"exact": bool(k.get("exact", a[3] if len(a) > 3 else False))}
        return None

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of every traced function until the block ends."""
        restore = []
        self._iteration += 1
        modules = [m for n, m in sorted(sys.modules.items())
                   if n in ("vrlkit", "workloads") or n.startswith("vrlkit.")]
        try:
            for layer, (home, names) in LAYERS.items():
                for name in names:
                    orig = getattr(home, name)
                    wrapped = self._wrap(layer, name, orig, self._attrs_for(layer, name))
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            new = _rebind(value, orig, wrapped)
                            if new is not value:
                                restore.append((module, key, value))
                                setattr(module, key, new)
            for name in RNG_METHODS:
                orig = tensor.RngState.__dict__[name]
                label = "RngState" if name == "__init__" else f"RngState.{name}"
                restore.append((tensor.RngState, name, orig))
                setattr(tensor.RngState, name, self._wrap("tensor", label, orig))
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)
            self._net_digests.clear()

    def write(self, path):
        """Store every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, layer, stage, start, end, attrs in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": name,
                    "layer": layer, "stage": stage, "start": start, "end": end, **attrs,
                }) + "\n")

    # --- metrics -------------------------------------------------------------

    def metrics(self, iterations: int, scale: float) -> tuple[dict, dict]:
        """Per-layer metrics per traced iteration, and the counts EXERCISED checks.

        Span times are CPU seconds; ``scale`` turns them into the scaled
        seconds of clock.py, as for the end-to-end metrics.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time, trace_time = {}, {}
        for sid, parent, name, layer, stage, start, end, attrs in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            while layer == "trace" and parent is not None:
                trace_time[parent] = trace_time.get(parent, 0.0) + (end - start)
                parent = by_id[parent][1]

        def self_time(s):
            return (s[6] - s[5]) - child_time.get(s[0], 0.0)

        def spans(names=None, layer=None):
            return [s for s in self.spans
                    if (names is None or s[2] in names) and (layer is None or s[3] == layer)]

        def count(names):
            return len(spans(names))

        def self_s(names=None, layer=None):
            return sum(self_time(s) for s in spans(names, layer))

        def duration(s):
            return (s[6] - s[5]) - trace_time.get(s[0], 0.0)

        def total_s(names):
            # Whole durations, skipping a call nested inside another named call.
            total = 0.0
            for s in spans(names):
                p = s[1]
                while p is not None and by_id[p][2] not in names:
                    p = by_id[p][1]
                if p is None:
                    total += duration(s)
            return total

        def attr_sum(names, key):
            return sum(s[7].get(key, 0) for s in spans(names))

        forwards = spans({"nn.forward"})
        backwards = spans({"nn.backward"})
        gflop = (attr_sum({"nn.forward"}, "flop") + attr_sum({"nn.backward"}, "flop")) / 1e9
        gemm_s = self_s({"nn.forward", "nn.backward"})

        seen, scoring_rows, unique_rows = set(), 0, 0
        for s in forwards:
            key = s[7].get("key")
            if key is None:
                continue
            scoring_rows += s[7]["rows"]
            if key not in seen:
                seen.add(key)
                unique_rows += s[7]["rows"]

        steps_by_train = {}
        for s in spans({"nn.sgd_step"}):
            if s[1] is not None and by_id[s[1]][2] == "trainer.train":
                steps_by_train.setdefault(s[1], []).append(s[6])
        gaps = []
        for ends in steps_by_train.values():
            ends.sort()
            gaps.extend(np.diff(ends) * 1e3)

        laplace = spans({"uncertainty.fit_laplace_last_layer"})
        values = {
            "tensor.rng_streams": count({"tensor.RngState"}),
            "tensor.rng_self_s": self_s(layer="tensor"),
            "datagen.calls": len(spans(layer="datagen")),
            "datagen.self_s": self_s(layer="datagen"),
            "datagen.bytes_read": attr_sum({"datagen.load_cifar_binary", "datagen.load_csv"}, "bytes"),
            "vicinal.mix_calls": count(_MIX),
            "vicinal.mix_self_s": self_s(_MIX),
            "vicinal.regmix_calls": count({"vicinal.regmix_loss"}),
            "nn.forward_calls": len(forwards),
            "nn.forward_rows": attr_sum({"nn.forward"}, "rows"),
            "nn.forward_self_s": self_s({"nn.forward"}),
            "nn.backward_calls": len(backwards),
            "nn.backward_self_s": self_s({"nn.backward"}),
            "nn.sgd_steps": count({"nn.sgd_step"}),
            "nn.sgd_self_s": self_s({"nn.sgd_step"}),
            "nn.gemm_gflop": gflop,
            "nn.gemm_gflop_per_s": gflop / gemm_s if gemm_s > 0 else 0.0,
            "nn.forward_unique_frac": unique_rows / scoring_rows if scoring_rows else 0.0,
            "nn.checkpoint_io_s": total_s(_CHECKPOINT),
            "nn.checkpoint_bytes": attr_sum(_CHECKPOINT, "bytes"),
            "trainer.train_calls": count({"trainer.train"}),
            "trainer.steps": sum(len(v) for v in steps_by_train.values()),
            "trainer.self_s": self_s(layer="trainer"),
            "trainer.step_p50_ms": float(np.percentile(gaps, 50)) if gaps else 0.0,
            "trainer.step_p99_ms": float(np.percentile(gaps, 99)) if gaps else 0.0,
            "uncertainty.scores_s": total_s(_SCORES),
            "uncertainty.mahalanobis_s": total_s(_MAHALANOBIS),
            "uncertainty.laplace_fit_s": sum(duration(s) for s in laplace if not s[7]["exact"]),
            "uncertainty.laplace_fit_exact_s": sum(duration(s) for s in laplace if s[7]["exact"]),
            "uncertainty.predictive_s": total_s(_PREDICTIVE),
            "evalkit.fit_temperature_calls": count({"evalkit.fit_temperature"}),
            "evalkit.fit_temperature_s": total_s({"evalkit.fit_temperature"}),
            "evalkit.ece_s": total_s({"evalkit.ece", "evalkit.adaece"}),
            "evalkit.auroc_calls": count({"evalkit.auroc"}),
            "evalkit.auroc_s": total_s({"evalkit.auroc"}),
            "evalkit.fisher_s": total_s({"evalkit.fisher_criterion"}),
            "evalkit.entropy_profile_s": total_s({"evalkit.entropy_profile"}),
            "evalkit.entropy_profile_rows": sum(
                s[7]["rows"] for s in forwards
                if s[1] is not None and by_id[s[1]][2] == "evalkit.entropy_profile"
            ),
            "evalkit.svg_s": total_s(_SVG),
            "evalkit.svg_bytes": attr_sum(_SVG, "bytes"),
            "cli.build_pipeline_calls": count({"cli.build_pipeline"}),
            "cli.build_pipeline_s": total_s({"cli.build_pipeline"}),
            "cli.load_net_calls": count({"cli._load_net"}),
            "cli.write_csv_s": total_s({"cli.write_csv"}),
            "cli.csv_bytes": attr_sum({"cli.write_csv"}, "bytes"),
            "cli.self_s": self_s(layer="cli"),
            "trace.spans": len(self.spans),
        }
        # Every count and time above covers all traced iterations; report
        # them per iteration. Ratios, rates and step percentiles stay as they are.
        per_iteration = {k for k, unit in METRICS.items()
                         if unit in ("count", "rows", "bytes", "GFLOP", "s")}
        for key in per_iteration & values.keys():
            values[key] = values[key] / iterations
        for key, unit in METRICS.items():
            if key in values and unit in ("s", "ms"):
                values[key] *= scale
        values["nn.gemm_gflop_per_s"] /= scale
        span_counts = {
            "uncertainty.scores": count(_SCORES),
            "uncertainty.mahalanobis": count(_MAHALANOBIS),
            "uncertainty.laplace_fit": sum(1 for s in laplace if not s[7]["exact"]),
            "uncertainty.laplace_fit_exact": sum(1 for s in laplace if s[7]["exact"]),
            "uncertainty.predictive": count(_PREDICTIVE),
            "evalkit.ece": count({"evalkit.ece", "evalkit.adaece"}),
            "evalkit.fisher": count({"evalkit.fisher_criterion"}),
        }
        return values, {**{k: values[k] for k in EXERCISED if k in values}, **span_counts}


def _rebind(value, orig, wrapped):
    """value with orig replaced by wrapped, also inside (nested) tuples."""
    if value is orig:
        return wrapped
    if isinstance(value, tuple):
        items = tuple(_rebind(v, orig, wrapped) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def missing_layers(workload: str, counts: dict) -> list:
    """Counts that should be non-zero on this workload but are zero."""
    return [k for k, workloads in EXERCISED.items() if workload in workloads and not counts.get(k)]
