"""The four benchmark workloads: inputs from a seed, one timed operation, output checks.

Every workload runs one public entry point of the package per operation,
closed loop, one operation at a time in a single process. Inputs derive
from the seed only. An operation's outputs are checked against floors and
exact counts the benchmark computes on its own; a failed check raises
CheckError and counts the operation as failed.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

from fediot import cli, harness

# Every workload trains on 9 synthetic devices; one is held out per fold.
DEVICES = 9
CLIENTS = DEVICES - 1

# Chronological split of a supervised stream: train / unused / test.
SUPERVISED_SPLIT = (0.79, 0.01, 0.20)

# Output-check floors. Each sits below every value seen on dozens of random
# seeds (see README.md), so only a real loss of accuracy trips it.
SUP_F1_FLOOR = 0.90
ROBUST_F1_FLOOR = 0.75
UNSUP_TPR_FLOOR = 0.95
UNSUP_TNR_FLOOR = 0.50

# Records per device, below the profiles' 5,000 so that a run holds many
# short operations and its median is steady; the schedule is unchanged.
SUP_SAMPLES_PER_DEVICE = 2000
UNSUP_SAMPLES_PER_DEVICE = 2500

MODEL_ATTACKS = ("gradient_factor", "model_cancel")
SWEEP_F = [0, 1]
SWEEP_CELLS = 5 * (1 + 5)  # 5 rules x (honest at f=0 + 5 attack kinds at f=1)


class CheckError(Exception):
    """An operation's outputs failed the workload's check."""


@dataclass
class OpOutcome:
    """What one checked operation produced, in the units the report needs."""

    digest: str
    records_stepped: int = 0
    aggregations: int = 0
    ingest_rows: int = 0
    cells: int = 0
    f1_known: list[float] = field(default_factory=list)
    f1_new_device: list[float] = field(default_factory=list)
    f1_robust_min: float | None = None
    bundle: str | None = None


@dataclass
class Prepared:
    """A workload's ready-to-run inputs."""

    config: harness.ExperimentConfig
    raw: dict
    work: str
    manifest: str = ""
    config_path: str = ""
    expected_ingest: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, str, bool], Prepared]
    warmup: Callable[[Prepared], None]
    run: Callable[[Prepared], OpOutcome]


def _profile(name: str) -> dict:
    return harness.config_to_dict(harness.load_config(name))


def _single_fold(raw: dict, name: str, seed: int, folds: list[str]) -> dict:
    raw = copy.deepcopy(raw)
    raw["name"] = name
    raw["protocol"] = {"folds": folds, "repetitions": 1, "master_seed": seed}
    return raw


def _resized(raw: dict, samples_per_device: int) -> dict:
    raw = copy.deepcopy(raw)
    raw["data"]["samples_per_device"] = samples_per_device
    raw["balance"]["samples_per_device"] = samples_per_device
    return raw


def _n_train(raw: dict) -> int:
    """Training records per client of a supervised config."""
    return math.floor(SUPERVISED_SPLIT[0] * raw["balance"]["samples_per_device"])


def _steps_per_epoch(raw: dict) -> int:
    return math.ceil(_n_train(raw) / raw["training"]["batch_size"])


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        out = fn(*args)
    return out, buffer.getvalue()


# --- sup-minibatch -----------------------------------------------------------


def _prepare_sup(seed: int, work: str, write_inputs: bool) -> Prepared:
    raw = _single_fold(_profile("supervised-50"), "sup-minibatch", seed, ["dev-0"])
    # The shipped fleet (spread 2, shift 4) leaves the 4-epoch model
    # under-trained on some seeds; this one is learnable on every seed tried.
    raw["data"].update(benign_spread=0.5, attack_shift=8.0)
    raw = _resized(raw, SUP_SAMPLES_PER_DEVICE)
    return Prepared(harness.config_from_dict(raw), raw, work)


def _warm_experiment(prep: Prepared) -> None:
    raw = _resized(prep.raw, 500)
    raw["name"] = f"{raw['name']}-warmup"
    harness.run_experiment(harness.config_from_dict(raw), prep.work)


def _run_sup(prep: Prepared) -> OpOutcome:
    result = harness.run_experiment(prep.config, prep.work)
    raw = prep.raw
    known = [r for r in result.rows if r["scope"] == "known"]
    new = [r for r in result.rows if r["scope"] == "new_device"]
    expected_aggs = raw["training"]["epochs"] * _steps_per_epoch(raw)
    for row in known:
        if row["f1"] < SUP_F1_FLOOR:
            raise CheckError(f"fold {row['fold']}: known F1 {row['f1']:.4f} < {SUP_F1_FLOOR}")
        if row["n_train"] != _n_train(raw) or row["aggregations"] != expected_aggs:
            raise CheckError(
                f"fold {row['fold']}: n_train {row['n_train']} / aggregations "
                f"{row['aggregations']}, expected {_n_train(raw)} / {expected_aggs}"
            )
    return OpOutcome(
        digest=_file_digest(os.path.join(result.path, "runs.csv")),
        records_stepped=sum(CLIENTS * raw["training"]["epochs"] * r["n_train"] for r in known),
        aggregations=sum(r["aggregations"] for r in known),
        cells=len(known),
        f1_known=[r["f1"] for r in known],
        f1_new_device=[r["f1"] for r in new],
        bundle=result.path,
    )


# --- robust-sweep ------------------------------------------------------------


def _sweep_raw(seed: int) -> dict:
    raw = _single_fold(_profile("adversarial-95"), "robust-sweep", seed, ["dev-0"])
    raw = _resized(raw, 1000)
    raw["data"].update(benign_fraction=0.5, benign_spread=0.5, attack_shift=8.0, noise_sigma=0.5)
    raw["balance"]["benign_fraction"] = 0.5
    raw["training"].update(learning_rate=0.1, batch_size=8, epochs=2)
    raw["aggregation"] = {"rule": "avg", "trim_c": 0, "resample_s": 0}
    raw["attack"] = {"kind": "none", "f": 0, "p_poison": 1.0, "colluding": True}
    return raw


def _prepare_sweep(seed: int, work: str, write_inputs: bool) -> Prepared:
    raw = _sweep_raw(seed)
    config_path = os.path.join(work, "robust-sweep.json")
    with open(config_path, "w") as handle:
        json.dump(raw, handle)
    return Prepared(harness.config_from_dict(raw), raw, work, config_path=config_path)


def _warm_sweep(prep: Prepared) -> None:
    # One short robust cell under attack walks the same code as the sweep.
    raw = _resized(prep.raw, 300)
    raw["name"] = "robust-sweep-warmup"
    raw["aggregation"] = {"rule": "tm", "trim_c": 2, "resample_s": 2}
    raw["attack"] = {"kind": "model_cancel", "f": 1, "p_poison": 1.0, "colluding": True}
    harness.run_experiment(harness.config_from_dict(raw), prep.work)


def _constant_predictor_f1s(raw: dict) -> tuple[float, float]:
    # F1 of predicting benign for everything (0) or attack for everything.
    attack_share = 1.0 - raw["balance"]["benign_fraction"]
    return 0.0, 2 * attack_share / (1 + attack_share)


def _sweep_rows(bundle: str) -> list[dict]:
    with open(os.path.join(bundle, "sweep.csv"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        row["f"] = int(row["f"])
        row["mean_f1"] = float(row["mean_f1"])
    return rows


def _run_sweep(prep: Prepared) -> OpOutcome:
    # Through the CLI, as a user runs the comparison table; this is the
    # workload that measures the cli layer.
    f_values = ",".join(str(f) for f in SWEEP_F)
    code, out = _quiet(cli.main, ["sweep", prep.config_path, "--f", f_values, "--out", prep.work])
    if code != 0:
        raise CheckError(f"fediot sweep exited with {code}")
    bundle = json.loads(out)["bundle"]
    raw = prep.raw
    rows = _sweep_rows(bundle)
    if len(rows) != SWEEP_CELLS:
        raise CheckError(f"sweep wrote {len(rows)} rows, expected {SWEEP_CELLS}")
    constants = _constant_predictor_f1s(raw)
    by_rule: dict[str, list[float]] = {}
    for row in rows:
        by_rule.setdefault(row["rule"], []).append(row["mean_f1"])
        if row["rule"] == "AVG" and row["attack"] in MODEL_ATTACKS and not any(
            abs(row["mean_f1"] - c) < 1e-9 for c in constants
        ):
            raise CheckError(
                f"AVG under {row['attack']}: F1 {row['mean_f1']:.4f} left the "
                f"constant-predictor regime {constants}"
            )
    # Per rule, not per cell: 2-RS+TM(2) under model_cancel reads F1 0.0 on
    # some seeds (seed 14), which is the seed code's behaviour, not breakage.
    robust = {rule: f1s for rule, f1s in by_rule.items() if rule != "AVG"}
    for rule, f1s in robust.items():
        if sum(f1s) / len(f1s) < ROBUST_F1_FLOOR:
            raise CheckError(f"{rule}: mean F1 {sum(f1s) / len(f1s):.4f} < {ROBUST_F1_FLOOR}")
    epochs, n_train = raw["training"]["epochs"], _n_train(raw)
    stepped = 0
    for row in rows:
        trainers = CLIENTS - (row["f"] if row["attack"] == "model_cancel" else 0)
        stepped += trainers * epochs * n_train
    return OpOutcome(
        digest=_file_digest(os.path.join(bundle, "sweep.csv")),
        records_stepped=stepped,
        aggregations=len(rows) * epochs * _steps_per_epoch(raw),
        cells=len(rows),
        f1_known=[r["mean_f1"] for r in rows],
        f1_robust_min=min(min(f1s) for f1s in robust.values()),
        bundle=bundle,
    )


# --- unsup-multiepoch --------------------------------------------------------


def _prepare_unsup(seed: int, work: str, write_inputs: bool) -> Prepared:
    raw = _single_fold(_profile("unsupervised"), "unsup-multiepoch", seed, ["dev-0"])
    raw["algorithm"] = "multi_epoch"
    raw["model"]["preset"] = "A"
    raw["data"].update(benign_spread=0.25, attack_shift=10.0)
    raw["training"].update(learning_rate=0.02, epochs=1, rounds=10, log_rounds=True)
    raw = _resized(raw, UNSUP_SAMPLES_PER_DEVICE)
    return Prepared(harness.config_from_dict(raw), raw, work)


def _run_unsup(prep: Prepared) -> OpOutcome:
    result = harness.run_experiment(prep.config, prep.work)
    raw = prep.raw
    rounds = raw["training"]["rounds"]
    known = [r for r in result.rows if r["scope"] == "known"]
    new = [r for r in result.rows if r["scope"] == "new_device"]
    for row in new:
        if row["tpr"] < UNSUP_TPR_FLOOR:
            raise CheckError(f"fold {row['fold']}: new-device TPR {row['tpr']:.4f} < {UNSUP_TPR_FLOOR}")
    for row in known:
        if row["tnr"] < UNSUP_TNR_FLOOR:
            raise CheckError(f"fold {row['fold']}: known TNR {row['tnr']:.4f} < {UNSUP_TNR_FLOOR}")
        if row["aggregations"] != rounds:
            raise CheckError(f"fold {row['fold']}: {row['aggregations']} aggregations, expected {rounds}")
        log = os.path.join(result.path, "rounds", f"fold-{row['fold']}-rep-0.jsonl")
        with open(log) as handle:
            logged = sum(1 for _ in handle)
        if logged != rounds:
            raise CheckError(f"{log}: {logged} round records, expected {rounds}")
    per_cell = CLIENTS * rounds * raw["training"]["epochs"]
    return OpOutcome(
        digest=_file_digest(os.path.join(result.path, "runs.csv")),
        records_stepped=sum(per_cell * r["n_train"] for r in known),
        aggregations=sum(r["aggregations"] for r in known),
        cells=len(known),
        f1_known=[r["f1"] for r in known],
        f1_new_device=[r["f1"] for r in new],
        bundle=result.path,
    )


# --- csv-ingest --------------------------------------------------------------

INGEST_SAMPLES_PER_DEVICE = 1000


def _expected_sizes(n: int) -> tuple[int, int, int]:
    train = int(SUPERVISED_SPLIT[0] * n)
    unused = int(SUPERVISED_SPLIT[1] * n)
    return train, unused, n - train - unused


def _expected_ingest(manifest: str) -> dict:
    """Per-device part sizes from the files' line counts and the split fractions."""
    base = os.path.dirname(manifest)
    devices: dict[str, dict] = {}
    total = 0
    with open(manifest) as handle:
        next(handle)
        entries = [line.strip().split(",") for line in handle if line.strip()]
    for device_id, name, cls in entries:
        with open(os.path.join(base, name), "rb") as data:
            n = data.read().count(b"\n")
        train, unused, test = _expected_sizes(n)
        sizes = devices.setdefault(
            device_id,
            {"train": 0, "unused": 0, "test": 0, "threshold": 0, "test_benign": 0, "test_attack": 0},
        )
        sizes["train"] += train
        sizes["unused"] += unused
        sizes["test"] += test
        sizes[f"test_{cls}"] += test
        total += n
    return {"devices": devices, "files": len(entries), "rows": total}


def _prepare_ingest(seed: int, work: str, write_inputs: bool) -> Prepared:
    raw = _single_fold(_profile("supervised-50"), "csv-ingest", seed, ["dev-0"])
    raw = _resized(raw, INGEST_SAMPLES_PER_DEVICE)
    fleet = os.path.join(work, "fleet")
    manifest = os.path.join(fleet, "manifest.csv")
    if write_inputs:
        config_path = os.path.join(work, "fleet-config.json")
        with open(config_path, "w") as handle:
            json.dump(raw, handle)
        code, _ = _quiet(cli.main, ["synth", config_path, "--out", fleet])
        if code != 0:
            raise CheckError(f"fediot synth exited with {code}")
    return Prepared(harness.config_from_dict(raw), raw, work, manifest=manifest)


def _ingest(manifest: str) -> str:
    code, out = _quiet(cli.main, ["ingest", manifest])
    if code != 0:
        raise CheckError(f"fediot ingest exited with {code}")
    return out


def _warm_ingest(prep: Prepared) -> None:
    _ingest(prep.manifest)


def _run_ingest(prep: Prepared) -> OpOutcome:
    if prep.expected_ingest is None:
        prep.expected_ingest = _expected_ingest(prep.manifest)
    out = _ingest(prep.manifest)
    summary = json.loads(out)
    expected = prep.expected_ingest
    rows = DEVICES * INGEST_SAMPLES_PER_DEVICE
    if expected["rows"] != rows or summary["rows"] != rows:
        raise CheckError(f"ingested {summary['rows']} rows from {expected['rows']} on disk, expected {rows}")
    if summary["files"] != expected["files"] or summary["devices"] != DEVICES:
        raise CheckError(f"ingest saw {summary['files']} files / {summary['devices']} devices")
    if summary["per_device"] != expected["devices"]:
        raise CheckError("per-device part sizes differ from the chronological split of each file")
    return OpOutcome(digest=hashlib.sha256(out.encode()).hexdigest(), ingest_rows=summary["rows"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sup-minibatch", _prepare_sup, _warm_experiment, _run_sup),
        Workload("robust-sweep", _prepare_sweep, _warm_sweep, _run_sweep),
        Workload("unsup-multiepoch", _prepare_unsup, _warm_experiment, _run_unsup),
        Workload("csv-ingest", _prepare_ingest, _warm_ingest, _run_ingest),
    )
}


def cost_model_transmissions(prep: Prepared) -> int | None:
    """Per-client transmissions per cell from harness.cost_table, None without training."""
    if prep.manifest:
        return None
    algorithm = prep.raw["algorithm"]
    for row in harness.cost_table(prep.config):
        if row["algorithm"] == algorithm:
            return int(row["transmissions"])
    return None
