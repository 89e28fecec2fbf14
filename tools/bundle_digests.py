"""Print the sha256 of every file a fixed matrix of fediot runs writes.

Usage, from the root of this repository:

    python3 tools/bundle_digests.py --checkout PATH --work DIR > digests.txt

The matrix runs through the `fediot` CLI with the checkout's own sources,
in one child interpreter with one BLAS thread. Its configs come from the
shipped profiles, cut to RECORDS records per device, fold dev-0, one
repetition, and EPOCHS epochs of ROUNDS rounds:
- both modes x naive/federated/centralized x both schedules, round logs on;
- a grid run with sample_std, in both modes;
- naive and centralized grid runs in both modes, so every naive device's own
  winner is in the check;
- AVG, MED, TM(1), TM(2) and 2-RS+TM(1), each with no attack and with
  flip_all, gradient_factor and model_cancel at f = 1, under both
  schedules, round logs on;
- dropout 0.5 under AVG and under TM(1), under both schedules, round logs on;
- a sweep at f in {0, 1};
- `fediot synth`, then manifest-fed runs in both modes: one at fold dev-0
  and one repetition, and one at folds dev-0 and dev-1 and two repetitions,
  round logs on, so repetitions that share the read records are in the
  check; and a centralized unsupervised manifest run at the same folds and
  repetitions, whose pooled client joins the devices' records;
- `report` in md and in csv for every bundle.

The output is one `sha256  path` line per file under DIR/results and
DIR/fleet, path relative to DIR, sorted. timing.json is left out: it holds
wall times. Each run first replaces DIR/configs, DIR/fleet and DIR/results.
Two checkouts write byte-identical bundles exactly when their outputs are
equal, so compare them with diff. Run both with the same DIR, one after the
other: a manifest-fed bundle echoes the manifest path.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RECORDS = 300
EPOCHS = 4
ROUNDS = 3
SCHEDULES = ("mini_batch", "multi_epoch")
RULES = {
    "avg": {"rule": "avg"},
    "med": {"rule": "med"},
    "tm1": {"rule": "tm", "trim_c": 1},
    "tm2": {"rule": "tm", "trim_c": 2},
    "rs2-tm1": {"rule": "tm", "trim_c": 1, "resample_s": 2},
}
ATTACKS = ("none", "flip_all", "gradient_factor", "model_cancel")
OUTPUTS = ("fleet", "results")
WORK_DIRS = ("configs", *OUTPUTS)


def _config(profile: str, name: str, **sections) -> dict:
    # A shipped profile cut to the matrix size; each keyword updates a section.
    raw = json.loads(resources.files("fediot").joinpath("profiles", f"{profile}.json").read_text())
    raw["name"] = name
    raw["data"]["samples_per_device"] = raw["balance"]["samples_per_device"] = RECORDS
    raw["training"].update(epochs=EPOCHS, rounds=ROUNDS)
    raw["protocol"].update(folds=["dev-0"], repetitions=1)
    for section, values in sections.items():
        if isinstance(values, dict):
            raw.setdefault(section, {}).update(values)
        else:
            raw[section] = values
    return raw


def _matrix(fleet: str) -> list[tuple[str, dict, list[str]]]:
    # (command, config, extra arguments) in run order.
    modes = {"sup": "supervised-50", "unsup": "unsupervised"}
    logs = {"log_rounds": True}
    runs = []
    for mode, profile in modes.items():
        for approach in ("naive", "federated", "centralized"):
            for schedule in SCHEDULES:
                runs.append(("run", _config(profile, f"{mode}-{approach}-{schedule}", approach=approach,
                                            algorithm=schedule, training=logs), []))
        grid = {"grid": {"presets": ["A", "B"], "l2_values": [0.0, 1e-4]}}
        runs.append(("run", _config(profile, f"{mode}-grid", model=grid, report={"sample_std": True}), []))
        for approach in ("naive", "centralized"):
            runs.append(("run", _config(profile, f"{mode}-{approach}-grid", approach=approach, model=grid), []))
    for rule, spec in RULES.items():
        for attack in ATTACKS:
            for schedule in SCHEDULES:
                attack_spec = {"kind": attack, "f": int(attack != "none")}
                runs.append(("run", _config("supervised-50", f"{rule}-{attack}-{schedule}", algorithm=schedule,
                                            aggregation=spec, attack=attack_spec, training=logs), []))
    for rule in ("avg", "tm1"):
        for schedule in SCHEDULES:
            runs.append(("run", _config("supervised-50", f"dropout-{rule}-{schedule}", algorithm=schedule,
                                        aggregation=RULES[rule], training={**logs, "dropout_prob": 0.5}), []))
    runs.append(("sweep", _config("supervised-50", "sweep"), ["--f", "0,1"]))
    runs.append(("synth", _config("supervised-50", "synth"), ["--out", fleet]))
    manifest = {"source": "manifest", "path": os.path.join(fleet, "manifest.csv")}
    two_by_two = {"folds": ["dev-0", "dev-1"], "repetitions": 2}
    for mode, profile in modes.items():
        runs.append(("run", _config(profile, f"{mode}-manifest", data=manifest), []))
        runs.append(("run", _config(profile, f"{mode}-manifest-2x2", data=manifest, protocol=two_by_two,
                                    training=logs), []))
    runs.append(("run", _config("unsupervised", "unsup-manifest-centralized", data=manifest,
                                approach="centralized", protocol=two_by_two), []))
    return runs


def _run_matrix(checkout: Path, work: Path) -> None:
    # Runs inside the measured checkout's interpreter.
    from fediot import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"fediot was imported from {cli.__file__}, not from {checkout / 'src'}")
    configs, fleet, results = (str(work / name) for name in WORK_DIRS)
    os.makedirs(configs)
    for command, raw, extra in _matrix(fleet):
        path = os.path.join(configs, f"{raw['name']}.json")
        with open(path, "w") as handle:
            json.dump(raw, handle, indent=2)
        argv = [command, path, *extra]
        if command != "synth":
            argv += ["--out", results]
        with contextlib.redirect_stdout(io.StringIO()) as summary:
            code = cli.main(argv)
        if code:
            raise SystemExit(f"fediot {' '.join(argv)} failed with code {code}")
        if command != "synth":
            bundle = json.loads(summary.getvalue())["bundle"]
            for fmt in ("md", "csv"):
                if cli.main(["report", bundle, "--format", fmt]):
                    raise SystemExit(f"fediot report {bundle} --format {fmt} failed")


def _digests(work: Path) -> list[str]:
    lines = []
    for output in OUTPUTS:
        for path in (work / output).rglob("*"):
            if path.is_file() and path.name != "timing.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="checkout whose src runs the matrix")
    parser.add_argument("--work", type=Path, required=True, help="directory for configs, fleet and bundles")
    parser.add_argument("--inside", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout, work = args.checkout.resolve(), args.work.resolve()
    if args.inside:
        _run_matrix(checkout, work)
        return 0
    for name in WORK_DIRS:
        shutil.rmtree(work / name, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(checkout / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--checkout", str(checkout),
               "--work", str(work), "--inside"]
    done = subprocess.run(command, env=env, cwd=work, stdout=subprocess.DEVNULL)
    if done.returncode:
        raise SystemExit(f"the matrix failed with code {done.returncode}")
    print("\n".join(_digests(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
