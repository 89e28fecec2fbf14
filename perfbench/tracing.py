"""Spans around the calls into each layer's public functions.

The tracer replaces every binding of a wrapped function inside the fediot
package, so a call is seen wherever its caller looks the name up: the
wrapper for neuralnet.backward is installed both as fediot.neuralnet.backward
and as the fediot.federation.backward that the training loop calls. Spans
(name, start, end, parent) stay in memory until the run ends; self time is a
span's duration minus the time its direct child spans cover.
"""
from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layer -> wrapped public functions. Private helpers that are planned to be
# inlined or deleted (apply_gradient_factor, _local_sgd_pass, the counting
# callback, _fleet_partitions) are deliberately not wrapped.
LAYERS = {
    "neuralnet": ("backward", "loss", "sgd_step", "mse_per_sample", "classify"),
    "aggregation": ("aggregate", "average", "coordinate_median", "trimmed_mean", "s_resample"),
    "adversary": ("cancel_update", "flip_labels"),
    "federation": ("run_federated", "select_thresholds", "evaluate"),
    "dataset": (
        "generate_synthetic_fleet", "chronological_split", "rebalance",
        "load_manifest", "load_device_csv", "partition_from_manifest",
    ),
    "preprocess": ("scale", "local_min_max"),
    "harness": ("run_experiment", "attack_sweep"),
    "cli": ("main",),
}

# Functions called often enough to report per-call percentiles.
HOT = {
    "neuralnet.backward", "neuralnet.loss", "neuralnet.sgd_step",
    "aggregation.aggregate", "aggregation.average", "aggregation.coordinate_median",
    "aggregation.trimmed_mean", "aggregation.s_resample",
}

# A layer must record calls on the workloads it is chosen to measure.
MAIN_WORKLOADS = {
    "neuralnet": ("sup-minibatch", "unsup-multiepoch"),
    "aggregation": ("robust-sweep",),
    "adversary": ("robust-sweep",),
    "federation": ("sup-minibatch", "robust-sweep", "unsup-multiepoch"),
    "dataset": ("robust-sweep", "csv-ingest"),
    "preprocess": ("sup-minibatch", "robust-sweep", "unsup-multiepoch"),
    "harness": ("sup-minibatch", "robust-sweep", "unsup-multiepoch"),
    "cli": ("robust-sweep", "csv-ingest"),
}

ROOT_SPAN = "bench.op"


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _count_backward_rows(counts, args, kwargs, result) -> None:
    counts["neuralnet.backward.rows"] += len(_arg(args, kwargs, 1, "x"))


def _count_uplink(counts, args, kwargs, result) -> None:
    models = _arg(args, kwargs, 0, "models")
    counts["aggregation.uplink_models"] += len(models)
    counts["aggregation.uplink_bytes"] += len(models) * models[0].flat.nbytes


def _count_csv_rows(counts, args, kwargs, result) -> None:
    counts["dataset.load_device_csv.rows"] += len(result)


COUNTERS = {
    "neuralnet.backward": _count_backward_rows,
    "aggregation.aggregate": _count_uplink,
    "dataset.load_device_csv": _count_csv_rows,
}


class Tracer:
    """Installs span-recording wrappers and derives per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._name_ids: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at every binding inside the package."""
        package = [m for n, m in list(sys.modules.items()) if n == "fediot" or n.startswith("fediot.")]
        for layer, functions in LAYERS.items():
            module = sys.modules.get(f"fediot.{layer}")
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name, None) if module is not None else None
                if not callable(original):
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original, wrapper))

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextmanager
    def traced_op(self):
        """Install the wrappers for one operation, under one root span."""
        self.install()
        name_id = self._name_id(ROOT_SPAN)
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, -1)
            self.uninstall()

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, self.names[name_id], repr(start), repr(end), parent])

    def _per_name(self):
        durations: dict[str, list[float]] = defaultdict(list)
        self_time: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            durations[name].append(end - start)
            self_time[name] += (end - start) - child[index]
        return durations, self_time

    def layer_metrics(self, workload: str, traced_walls: list[float],
                      untraced_walls: list[float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-op layer metrics, and the coverage failures for this workload."""
        ops = len(traced_walls)
        durations, self_time = self._per_name()
        out: dict[str, tuple[float, str]] = {}
        problems = []
        traced_wall = sum(traced_walls)
        for layer, functions in LAYERS.items():
            layer_calls = 0
            layer_self = 0.0
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                if name in self.missing:
                    continue
                calls = len(durations.get(name, ()))
                layer_calls += calls
                layer_self += self_time.get(name, 0.0)
                out[f"{name}.calls"] = (calls / ops, "count")
                out[f"{name}.self_s"] = (self_time.get(name, 0.0) / ops, "s")
                if name in HOT:
                    micros = np.asarray(durations.get(name, [0.0])) * 1e6
                    out[f"{name}.p50_us"] = (float(np.percentile(micros, 50)), "us")
                    out[f"{name}.p99_us"] = (float(np.percentile(micros, 99)), "us")
            out[f"{layer}.self_s"] = (layer_self / ops, "s")
            out[f"{layer}.share_pct"] = (100.0 * layer_self / traced_wall, "%")
            if workload in MAIN_WORKLOADS[layer] and layer_calls == 0:
                problems.append(f"layer {layer} recorded no calls on its main workload {workload}")

        aggregations = len(durations.get("aggregation.aggregate", ()))
        loss_calls = len(durations.get("neuralnet.loss", ()))
        out["neuralnet.loss.calls_per_aggregation"] = (
            loss_calls / aggregations if aggregations else 0.0, "ratio")
        for name in ("neuralnet.backward.rows", "aggregation.uplink_models",
                     "aggregation.uplink_bytes", "dataset.load_device_csv.rows"):
            unit = "B" if name.endswith("bytes") else "count"
            out[name] = (self.counts.get(name, 0) / ops, unit)
        csv_seconds = sum(durations.get("dataset.load_device_csv", ()))
        out["dataset.load_device_csv.rows_per_s"] = (
            self.counts.get("dataset.load_device_csv.rows", 0) / csv_seconds if csv_seconds else 0.0,
            "rows/s")
        out["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
        out["trace.spans"] = (len(self.spans) / ops, "count")
        out["trace.missing_wraps"] = (float(len(self.missing)), "count")
        return out, problems
