"""Command-line entry points.

Subcommands:
  ingest  validate a fleet manifest and print per-device partition sizes
  synth   materialize a synthetic fleet as per-device CSV files + manifest
  run     execute one experiment config and persist its result bundle
  sweep   cross attack kinds x aggregation rules x attacker counts
  report  render a result bundle to Markdown or CSV tables

Every failure prints a one-line JSON error record to stderr and exits
nonzero, so wrappers can parse outcomes without scraping text.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .dataset import ATTACK, BENIGN, load_manifest, partition_from_manifest
from .errors import ConfigError
from .harness import attack_sweep, load_config, report, run_experiment, synthetic_streams

_HANDLED = (ValueError, RuntimeError, TypeError, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fediot",
        description="Simulate federated intrusion detection for IoT device fleets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a manifest and summarize its devices")
    ingest.add_argument("manifest", help="CSV manifest: device_id,path,class")
    ingest.add_argument("--mode", choices=("supervised", "unsupervised"), default="supervised")
    ingest.add_argument("--schema", type=int, default=115, help="expected feature count")
    ingest.add_argument("--has-header", action="store_true", help="data files start with a header row")

    synth = sub.add_parser("synth", help="write a synthetic fleet as CSV files plus a manifest")
    synth.add_argument("config", help="experiment config path or profile name")
    synth.add_argument("--out", default="fleet", help="output directory")

    run = sub.add_parser("run", help="run one experiment end to end")
    run.add_argument("config", help="experiment config path or profile name")
    run.add_argument("--out", default=None, help="results directory (default $FEDIOT_RESULTS_DIR or ./results)")

    sweep = sub.add_parser("sweep", help="run the adversarial comparison matrix")
    sweep.add_argument("config", help="experiment config path or profile name")
    sweep.add_argument("--f", default="0,1,2,3", help="comma-separated attacker counts")
    sweep.add_argument("--out", default=None, help="results directory")

    rep = sub.add_parser("report", help="render tables from a result bundle")
    rep.add_argument("bundle", help="bundle directory written by run or sweep")
    rep.add_argument("--format", choices=("md", "csv"), default="md")
    return parser


def _cmd_ingest(args) -> dict:
    entries = load_manifest(args.manifest)
    partitions = partition_from_manifest(
        entries, args.mode, schema=args.schema, has_header=args.has_header
    )
    devices = {}
    total = 0
    for part in partitions.values():
        sizes = {
            "train": len(part.train),
            "unused": len(part.unused),
            "test": len(part.test),
            "threshold": len(part.threshold_sel) if part.threshold_sel is not None else 0,
        }
        attack = int(np.count_nonzero(part.records.labels[part.test]))
        sizes["test_benign"] = sizes["test"] - attack
        sizes["test_attack"] = attack
        devices[part.device_id] = sizes
        total += sum(sizes[k] for k in ("train", "unused", "test", "threshold"))
    return {
        "manifest": args.manifest,
        "mode": args.mode,
        "devices": len(partitions),
        "files": len(entries),
        "rows": total,
        "per_device": devices,
    }


def _write_rows(path: str, features: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in features:
            writer.writerow([repr(float(v)) for v in row])


def _cmd_synth(args) -> dict:
    config = load_config(args.config)
    if config.data.source != "synthetic":
        raise ConfigError("synth needs a config with a synthetic data source")
    os.makedirs(args.out, exist_ok=True)
    streams = synthetic_streams(config, 0)
    manifest_rows = []
    for i, stream in enumerate(streams):
        device_id = f"dev-{i}"
        for label, class_name in ((BENIGN, "benign"), (ATTACK, "attack")):
            mask = stream.labels == label
            if not mask.any():
                continue
            name = f"{device_id}-{class_name}.csv"
            _write_rows(os.path.join(args.out, name), stream.features[mask])
            manifest_rows.append((device_id, name, class_name))
    manifest_path = os.path.join(args.out, "manifest.csv")
    with open(manifest_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["device_id", "path", "class"])
        writer.writerows(manifest_rows)
    return {
        "out": args.out,
        "manifest": manifest_path,
        "devices": len(streams),
        "files": len(manifest_rows),
        "rows": sum(len(s) for s in streams),
    }


def _cmd_run(args) -> dict:
    config = load_config(args.config)
    result = run_experiment(config, args.out)
    return {
        "bundle": result.path,
        "runs": len(result.rows),
        "summary": {
            f"{row['scope']}/{row['metric']}": row["mean"] for row in result.summary
        },
    }


def _parse_f_values(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--f must be comma-separated integers, got {text!r}") from None


def _cmd_sweep(args) -> dict:
    config = load_config(args.config)
    result = attack_sweep(config, _parse_f_values(args.f), args.out)
    return {"bundle": result.path, "cells": len(result.rows)}


def _cmd_report(args) -> dict:
    files = report(args.bundle, args.format)
    return {"bundle": args.bundle, "files": files}


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        summary = _COMMANDS[args.command](args)
    except _HANDLED as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
