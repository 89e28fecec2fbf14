"""fediot benchmark: one workload, closed loop, for a fixed number of seconds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sup-minibatch --seed 0 --seconds 20 --trace 0

The package is imported from the checkout's src/ directory. BLAS threads are
pinned in this process's environment before NumPy loads. Set-up (a fresh
interpreter importing the package, building the config and, for csv-ingest,
writing the CSV fleet) runs several times and reports its median. One
untimed warm-up operation follows, then operations run back to back until
the time is up; each one's outputs are checked. With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 untraced and
traced operations alternate and it carries the per-layer metrics.
A run record with the environment goes to .perfbench_work/records/.
"""
from __future__ import annotations

import argparse
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
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WARMUP_POLICY = "one untimed warm-up operation on reduced inputs before timing; first set-up excluded by the median"
WAIT_NOTE = "not applicable: one process, closed loop, no queues"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _environment(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "warmup": WARMUP_POLICY,
        "setup_repeats": SETUP_REPEATS,
        "load": "one process, closed loop: one operation at a time",
        "wait_time": WAIT_NOTE,
        "machine": platform.machine(),
    }


def _time_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds fresh interpreters take to import, build the config and write inputs."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, check=True, timeout=150, capture_output=True, text=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _dir_bytes(path: str | None) -> int:
    if not path:
        return 0
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _run_ops(workload, prep, seconds: float, trace: bool, tracer, log):
    """Closed loop until the time is up; returns (walls, traced flags, outcomes, failures)."""
    from workloads import CheckError

    walls: list[float] = []
    traced: list[bool] = []
    outcomes = []
    failures = 0
    digest = None
    start = time.perf_counter()
    while True:
        use_trace = trace and len(walls) % 2 == 1
        op_start = time.perf_counter()
        try:
            if use_trace:
                with tracer.traced_op():
                    outcome = workload.run(prep)
            else:
                outcome = workload.run(prep)
            wall = time.perf_counter() - op_start
            if digest is None:
                digest = outcome.digest
            elif outcome.digest != digest:
                raise CheckError("output differs from the first operation of this seed")
            outcomes.append(outcome)
        except Exception:  # one failed operation is counted and the loop goes on
            wall = time.perf_counter() - op_start
            failures += 1
            log(f"operation {len(walls)} failed:\n{traceback.format_exc()}")
        walls.append(wall)
        traced.append(use_trace)
        elapsed = time.perf_counter() - start
        need_traced = trace and not any(traced)
        if not need_traced and elapsed + 0.5 * wall >= seconds:
            return walls, traced, outcomes, failures


def _e2e(walls, setup_times, outcomes, failures, attempted) -> dict:
    wall = statistics.median(walls)
    first = outcomes[0] if outcomes else None

    def mean(values):
        return statistics.fmean(values) if values else None

    def rate(field: str):
        amount = getattr(first, field, 0)
        return amount / wall if amount else None

    known = [v for o in outcomes for v in o.f1_known]
    new = [v for o in outcomes for v in o.f1_new_device]
    robust = [o.f1_robust_min for o in outcomes if o.f1_robust_min is not None]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "train_records_per_s": (rate("records_stepped"), "records/s"),
        "aggregations_per_s": (rate("aggregations"), "1/s"),
        "ingest_rows_per_s": (rate("ingest_rows"), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "f1_known": (mean(known), "f1"),
        "f1_new_device": (mean(new), "f1"),
        "f1_robust_min": (min(robust) if robust else None, "f1"),
        "failed_ops": (failures / attempted, "share"),
    }


def _traffic_metrics(uplink_models: float, clients: int, cells: int, transmissions: int | None) -> dict:
    """Counted uploads per client and cell against harness.cost_table's figure."""
    per_client = uplink_models / (clients * cells) if cells else 0.0
    return {
        "aggregation.uplink_models_per_client": (per_client, "count"),
        "harness.cost_table.transmissions": (float(transmissions or 0), "count"),
        "aggregation.uplink_vs_cost_model": (per_client / transmissions if transmissions else 0.0, "ratio"),
    }


# Gated end-to-end metrics: defined and non-zero on every workload.
GATED = ("wall_s", "setup_s", "peak_rss_mb")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fediot" / "__init__.py").is_file():
        print(f"perfbench: no fediot package under {SRC}", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import fediot
    import tracing
    import workloads

    if Path(fediot.__file__).resolve().parent != SRC / "fediot":
        print(f"perfbench: imported fediot from {fediot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr, flush=True)

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}, pick one of {sorted(workloads.WORKLOADS)}")
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = _time_setup(args.workload, args.seed, work)
        prep = workload.prepare(args.seed, str(work), False)
        workload.warmup(prep)
        tracer = tracing.Tracer()
        walls, traced, outcomes, failures = _run_ops(
            workload, prep, args.seconds, bool(args.trace), tracer, log)
        bundle_bytes = _dir_bytes(outcomes[-1].bundle) if outcomes else 0
        transmissions = workloads.cost_model_transmissions(prep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(walls)
    untraced_walls = [w for w, t in zip(walls, traced) if not t]
    e2e = _e2e(untraced_walls, setup_times, outcomes, failures, attempted)
    problems = []
    if args.trace:
        traced_walls = [w for w, t in zip(walls, traced) if t]
        metrics, problems = tracer.layer_metrics(args.workload, traced_walls, untraced_walls)
        metrics["harness.bundle_bytes"] = (float(bundle_bytes), "B")
        cells = outcomes[0].cells if outcomes else 0
        uplink = metrics["aggregation.uplink_models"][0]
        metrics.update(_traffic_metrics(uplink, workloads.CLIENTS, cells, transmissions))
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(spans_dir / f"{args.workload}-seed{args.seed}.csv"))
        for problem in problems:
            log(problem)
        for name in tracer.missing:
            log(f"wrap point {name} is missing")
    else:
        metrics = {name: e2e[name] for name in GATED}

    correct = failures == 0 and not problems
    env = _environment(threads)
    for name, (value, unit) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} {shown} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "op_walls_s": walls,
        "op_traced": traced,
        "setup_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "missing_wraps": tracer.missing,
        "coverage_problems": problems,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
