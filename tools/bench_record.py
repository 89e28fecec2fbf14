"""Write one benchmark record, BENCH_<yyyymmdd>_<label>.json, at the repo root.

Usage, from the root of this repository:

    python3 tools/bench_record.py --label change
    python3 tools/bench_record.py --label change --against /path/to/parent
    python3 tools/bench_record.py --label parent --checkout /path/to/other/checkout

The measured checkout (this one by default) is the change; with --against,
the other checkout is the base. Each side runs PAIRS times:
- every gated workload of BENCHMARK.json, `perfbench/run.py --trace 0` for
  its run_seconds at seed PERFBENCH_SEED, with that side's own sources;
- the aggregate probe, the median time of one `aggregate` call per sweep
  rule at k = 8, 16 and 32 client models of d = 13,456 parameters (the
  preset-B classifier). Each call allocates and frees (k, d) arrays, which
  in a fresh interpreter can hand pages back to the OS and fault them in
  again, so it overstates the resampling rule;
- the reduce probe, the same rules and sizes timed the way the training
  loop reduces: `reduce_rows` over row views of a preallocated buffer,
  refilled untimed before each call, with a preallocated resampling array
  (a checkout without `reduce_rows` calls `aggregate` on models over the
  buffer rows, as its loop did);
- the round probe, the median time of one mini-batch round of
  `run_federated` (batch size 8, preset-B classifier) under AVG, MED, TM(2)
  and 2-RS+TM(2) at the same k, and of one multi-epoch AVG round (one local
  epoch of 40 steps at batch size 8, preset-A autoencoder, k = 8: the
  unsup-multiepoch shape). Where the checkout's clients have a
  `bounds` field, they carry identity bounds (x_min 0, x_max 1), which
  leave the drawn rows as they are; where they read their records through
  a `train` index, it is np.arange(n), every drawn row once.
With a base, the two sides take turns and the side that goes first
alternates from pair to pair, so drift of the host's speed hits both
alike. Each measurement runs in its own interpreter, with one BLAS thread.
Once per side, a further interpreter records the traced peak of each gated
workload: the tracemalloc peak, in MB of 2^20 bytes, of one operation after
the warm-up, with inputs built by that checkout's `perfbench/workloads.py`
at PERFBENCH_SEED. It counts only what Python allocates, so unlike
`peak_rss_mb` it does not depend on when the allocator returns memory.
Each side also runs the forked-op probe PAIRS times on every CPU of the
record's affinity and PAIRS times pinned to one of them (the affinity is
set on the probe's own interpreter only): one robust-sweep operation after
its warm-up, whose wall time, `ru_maxrss` of the probe and largest
`RUSAGE_CHILDREN` `ru_maxrss`, both in MB of 2^20 bytes, it records. Where a
checkout deals a sweep's cells to forked workers, `peak_rss_mb` does not see
them; the children's peak is the largest worker's, pages it shares
copy-on-write with the caller included.
Once per side, a fresh interpreter per approach runs one fold dev-0 x
repetition 0 cell of the `full-scale-supervised` profile at one epoch,
centralized, federated and naive, and records its wall time, `ru_maxrss` in
MB of 2^20 bytes, and known F1. Each cell takes about 15 s and 1-1.5 GB on
2 vCPUs.

For every end-to-end metric of BENCHMARK.json and every probe figure the
record keeps each side's runs, median and quartiles; with a base, also
the number of pairs the change won (strictly better in the metric's
direction; a probe figure is better when lower). Each workload's entry
also holds each side's traced peak; `full_scale_cell` holds each side's
cell figures by approach. The record holds each checkout's git
revision, with a flag for uncommitted changes and the sha256 of
`git diff HEAD` (null when tracked files are unchanged), so a record made
on a dirty tree names the exact sources, and the environment (python,
numpy, BLAS, CPUs and the CPU affinity the record ran with).
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE_KS = (8, 16, 32)
# Workload input seed of every record, so a rerun measures the same inputs.
PERFBENCH_SEED = 111
# Runs per side; a claimed gain needs at least ten pairs.
PAIRS = 10

# Runs inside the measured checkout's interpreter; prints one JSON object.
AGGREGATE_PROBE = r"""
import json, statistics, sys, time
import numpy as np
from fediot.aggregation import aggregate
from fediot.harness import SWEEP_RULES
from fediot.neuralnet import ModelParameters, classifier_preset

arch = classifier_preset("B")
out = {"d": arch.n_parameters, "ms": {}}
for k in json.loads(sys.argv[1]):
    rows = np.random.default_rng(k).normal(0.0, 0.1, size=(k, arch.n_parameters))
    models = [ModelParameters(arch, row) for row in rows]
    for spec in SWEEP_RULES:
        rng = np.random.default_rng(0)
        aggregate(models, spec, rng)
        calls = []
        for _ in range(max(20, 400 // k)):
            start = time.perf_counter()
            aggregate(models, spec, rng)
            calls.append(time.perf_counter() - start)
        out["ms"].setdefault(spec.describe(), {})[str(k)] = 1e3 * statistics.median(calls)
print(json.dumps(out))
"""

# Like AGGREGATE_PROBE, through the training loop's buffers; prints one JSON
# object. A checkout without reduce_rows reduces as its loop did: aggregate
# over read-only models on the buffer rows.
REDUCE_PROBE = r"""
import json, statistics, sys, time
import numpy as np
from fediot import aggregation
from fediot.harness import SWEEP_RULES
from fediot.neuralnet import ModelParameters, classifier_preset

arch = classifier_preset("B")
out = {"d": arch.n_parameters, "ms": {}}
for k in json.loads(sys.argv[1]):
    rows = np.random.default_rng(k).normal(0.0, 0.1, size=(k, arch.n_parameters))
    buffer, resampled = np.empty_like(rows), np.empty_like(rows)
    if hasattr(aggregation, "reduce_rows"):
        views = list(buffer)
        reduce = lambda spec, rng: aggregation.reduce_rows(views, spec, rng, resampled)
    else:
        shared = buffer.view()
        shared.setflags(write=False)
        models = [ModelParameters(arch, row) for row in shared]
        reduce = lambda spec, rng: aggregation.aggregate(models, spec, rng)
    for spec in SWEEP_RULES:
        rng = np.random.default_rng(0)
        calls = []
        for _ in range(1 + max(20, 400 // k)):
            np.copyto(buffer, rows)
            start = time.perf_counter()
            reduce(spec, rng)
            calls.append(time.perf_counter() - start)
        out["ms"].setdefault(spec.describe(), {})[str(k)] = 1e3 * statistics.median(calls[1:])
print(json.dumps(out))
"""

# Times whole training runs: mini-batch runs of ROUNDS rounds, one round per
# batch, and multi-epoch autoencoder runs of AE_ROUNDS one-epoch rounds.
ROUND_PROBE = r"""
import dataclasses, json, statistics, sys, time
import numpy as np
from fediot.aggregation import AggregationSpec
from fediot.federation import ClientState, FederationConfig, run_federated
from fediot.neuralnet import autoencoder_preset, classifier_preset
from fediot.preprocess import ScalingBounds

arch = classifier_preset("B")
batch, rounds = 8, 40
ae_k, ae_rounds = 8, 5
out = {"d": arch.n_parameters, "batch_size": batch, "ms": {}}
fields = {f.name for f in dataclasses.fields(ClientState)}
extra = {}
if "bounds" in fields:
    extra["bounds"] = ScalingBounds(np.zeros(arch.input_dim), np.ones(arch.input_dim))
n = batch * rounds
if "train" in fields:
    extra["train"] = np.arange(n)


def federation_config(**flat):
    # Checkouts whose FederationConfig holds a TrainingSpec take the
    # schedule's keywords there, older ones take them flat.
    if "training" in {f.name for f in dataclasses.fields(FederationConfig)}:
        from fediot.federation import TrainingSpec
        keys = {f.name for f in dataclasses.fields(TrainingSpec)}
        flat["training"] = TrainingSpec(**{key: flat.pop(key) for key in keys & flat.keys()})
    return FederationConfig(**flat)


def per_round(clients, config, rounds):
    run_federated(clients, config)
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        run_federated(clients, config)
        runs.append((time.perf_counter() - start) / rounds)
    return 1e3 * statistics.median(runs)


for k in json.loads(sys.argv[1]):
    rng = np.random.default_rng(k)
    clients = [
        ClientState(f"c{i}", rng.uniform(0.0, 1.0, (n, arch.input_dim)), y_train=rng.integers(0, 2, n),
                    seed=i, **extra)
        for i in range(k)
    ]
    rules = (AggregationSpec("avg"), AggregationSpec("med"), AggregationSpec("tm", trim_c=2),
             AggregationSpec("tm", trim_c=2, resample_s=2))
    for spec in rules:
        config = federation_config(arch=arch, batch_size=batch, epochs=1, aggregation=spec)
        out["ms"].setdefault(spec.describe(), {})[str(k)] = per_round(clients, config, rounds)
# One multi-epoch AVG round is one local epoch of n / batch steps of the
# preset-A autoencoder, the shape unsup-multiepoch trains.
ae = autoencoder_preset("A")
rng = np.random.default_rng(ae_k)
clients = [ClientState(f"c{i}", rng.uniform(0.0, 1.0, (n, ae.input_dim)), y_train=None, seed=i, **extra)
           for i in range(ae_k)]
config = federation_config(arch=ae, algorithm="multi_epoch", learning_rate=0.02, batch_size=batch, epochs=1,
                           rounds=ae_rounds, lr_decay=1.0, aggregation=AggregationSpec("avg"))
out["ms"]["multi-epoch AVG, autoencoder A"] = {str(ae_k): per_round(clients, config, ae_rounds)}
print(json.dumps(out))
"""

# One operation of each named workload after its warm-up, under tracemalloc;
# prints {workload: peak MB}. Runs with the measured checkout as the working
# directory and builds the inputs through its perfbench/workloads.py.
TRACED_PEAK_PROBE = r"""
import json, sys, tempfile, tracemalloc
sys.path.insert(0, "perfbench")
import workloads

out = {}
for name in json.loads(sys.argv[1]):
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as work:
        prep = workload.prepare(int(sys.argv[2]), work, True)
        workload.warmup(prep)
        tracemalloc.start()
        workload.run(prep)
        out[name] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
print(json.dumps(out))
"""

# One fold dev-0 x repetition 0 cell of full-scale-supervised at one epoch,
# for the approach in argv[1]; prints its wall time, peak RSS and known F1.
CELL_PROBE = r"""
import json, resource, sys, tempfile, time
from fediot.harness import config_from_dict, config_to_dict, load_profile, run_experiment

raw = config_to_dict(load_profile("full-scale-supervised"))
raw["approach"] = sys.argv[1]
raw["training"]["epochs"] = 1
raw["protocol"].update(folds=["dev-0"], repetitions=1)
config = config_from_dict(raw)
with tempfile.TemporaryDirectory() as work:
    start = time.perf_counter()
    result = run_experiment(config, work)
    wall = time.perf_counter() - start
known = next(row for row in result.rows if row["scope"] == "known")
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss, "known_f1": known["f1"]}))
"""
CELL_APPROACHES = ("centralized", "federated", "naive")

# One robust-sweep operation after its warm-up, with inputs built by the
# checkout's perfbench/workloads.py at the seed in argv[1]; prints its wall
# time and the peak RSS of this interpreter and of its largest child.
FORKED_OP_PROBE = r"""
import json, resource, sys, tempfile, time
sys.path.insert(0, "perfbench")
import workloads

workload = workloads.WORKLOADS["robust-sweep"]
with tempfile.TemporaryDirectory() as work:
    prep = workload.prepare(int(sys.argv[1]), work, True)
    workload.warmup(prep)
    start = time.perf_counter()
    workload.run(prep)
    wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
}))
"""


def _env(checkout: Path) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def _workload(checkout: Path, name: str, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", str(PERFBENCH_SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{name}: perfbench failed with code {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def _probe(checkout: Path, probe: str, *args: str, cpus: set[int] | None = None) -> dict:
    # With cpus, the probe's interpreter runs on those CPUs only.
    command = [sys.executable, "-c", probe, *args]
    pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    done = subprocess.run(command, cwd=checkout, env=_env(checkout), capture_output=True, text=True,
                          preexec_fn=pin)
    if done.returncode != 0:
        raise SystemExit(f"probe failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _environment(checkout: Path) -> dict:
    probe = "import numpy, json; print(json.dumps([numpy.__version__, numpy.show_config(mode='dicts')]))"
    done = subprocess.run([sys.executable, "-c", probe], env=_env(checkout), capture_output=True, text=True)
    numpy_version, config = json.loads(done.stdout) if done.returncode == 0 else (None, {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def _alternate(sides: dict, what: str, run) -> dict:
    # run(checkout) PAIRS times per side; the side that goes first alternates.
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        for side in sorted(sides, reverse=pair % 2 == 1):
            print(f"{what}: pair {pair + 1}/{PAIRS}, {side}", file=sys.stderr)
            runs[side].append(run(sides[side]))
    return runs


def _compare(runs: dict, lower_is_better: bool) -> dict:
    # Each side's runs, median and quartiles; with a base, the pairs the change won.
    out = {}
    for side, values in runs.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}
    if "base" in runs:
        sign = 1 if lower_is_better else -1
        out["change_won"] = sum(sign * c < sign * b for c, b in zip(runs["change"], runs["base"]))
    return out


def _measure(sides: dict, bench: dict) -> dict:
    # Each side's traced peaks, every gated workload's end-to-end metrics,
    # then every probe figure.
    seconds = bench["run_seconds"]
    names = [workload["name"] for workload in bench["workloads"]]
    traced_peaks = {}
    for side, checkout in sorted(sides.items()):
        print(f"traced peaks: {side}", file=sys.stderr)
        traced_peaks[side] = _probe(checkout, TRACED_PEAK_PROBE, json.dumps(names), str(PERFBENCH_SEED))
    cells = {}
    for side, checkout in sorted(sides.items()):
        for approach in CELL_APPROACHES:
            print(f"full-scale cell: {side}, {approach}", file=sys.stderr)
            cells.setdefault(approach, {})[side] = _probe(checkout, CELL_PROBE, approach)
    workloads = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = _alternate(sides, name, lambda checkout: _workload(checkout, name, seconds))
        metrics = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            values = {side: [r["metrics"][key]["value"] for r in runs[side]] for side in sides}
            metrics[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **_compare(values, metric["better"] == "lower"),
            }
        workloads[name] = {
            "correct": {side: all(r["correct"] is True for r in runs[side]) for side in sides},
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in sides},
            "traced_peak_mb": {side: traced_peaks[side][name] for side in sides},
            "metrics": metrics,
        }
    record = {"perfbench": {"seed": PERFBENCH_SEED, "seconds": seconds, "trace": 0, "pairs": PAIRS,
                            "workloads": workloads},
              "full_scale_cell": cells,
              "forked_op": _forked_op(sides)}
    probes = (("aggregate_ms", AGGREGATE_PROBE), ("reduce_rows_ms", REDUCE_PROBE),
              ("mini_batch_round_ms", ROUND_PROBE))
    for key, probe in probes:
        runs = _alternate(sides, key, lambda checkout: _probe(checkout, probe, json.dumps(PROBE_KS)))
        record[key] = {}
        for rule, by_k in runs["change"][0]["ms"].items():
            record[key][rule] = {}
            for k in by_k:
                values = {side: [r["ms"][rule][k] for r in runs[side]] for side in sides}
                record[key][rule][k] = _compare(values, True)
    return record


def _forked_op(sides: dict) -> dict:
    # The forked-op probe's figures on every CPU and pinned to the lowest one.
    out = {}
    affinity = os.sched_getaffinity(0)
    for label, cpus in (("all_cpus", None), ("one_cpu", {min(affinity)})):
        runs = _alternate(sides, f"forked op, {label}",
                          lambda checkout: _probe(checkout, FORKED_OP_PROBE, str(PERFBENCH_SEED), cpus=cpus))
        out[label] = {"cpus": len(affinity) if cpus is None else 1}
        for key in runs["change"][0]:
            out[label][key] = _compare({side: [r[key] for r in runs[side]] for side in sides}, True)
    return out


def _revision(checkout: Path) -> dict:
    diff = subprocess.run(["git", "-C", str(checkout), "diff", "HEAD"], capture_output=True).stdout
    return {
        "path": str(checkout),
        "git_rev": _git(checkout, "rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain")),
        "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record name suffix, e.g. parent or change")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--against", type=Path, help="base checkout to compare with, run by run")
    args = parser.parse_args(argv)
    sides = {"change": args.checkout.resolve()}
    if args.against is not None:
        sides["base"] = args.against.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "checkouts": {side: _revision(path) for side, path in sides.items()},
        "environment": _environment(sides["change"]),
        **_measure(sides, bench),
    }
    stamp = datetime.date.today().strftime("%Y%m%d")
    path = ROOT / f"BENCH_{stamp}_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
