"""Config-driven experiment harness.

Wires the dataset, preprocessing, and federation layers into the full
comparison protocol: rotate a held-out device over the fleet, repeat with
fresh seeds, train the selected approach (naive per-client, federated, or
centralized), and persist metric tables plus plot-ready CSV. Also hosts the
adversarial sweep over attack kinds, aggregation rules, and attacker counts,
and the closed-form communication / computation cost tables.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import shutil
import time
import types
import typing
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from importlib import resources

import numpy as np

from .adversary import ATTACK_KINDS, FLIP_KINDS, AttackSpec, malicious_ids
from .aggregation import AggregationSpec
from .dataset import (
    _FLEET_FLOOR,
    BalanceSpec,
    DataSource,
    DevicePartition,
    Fleet,
    ManifestEntry,
    SampleSet,
    SUPERVISED_FRACTIONS,
    UNSUPERVISED_FRACTIONS,
    chronological_split,
    generate_synthetic_fleet,
    load_manifest,
    partition_from_manifest,
    rebalance,
)
from .errors import ConfigError
from .federation import (
    METRIC_NAMES,
    ClientState,
    ConfusionCounts,
    FederationConfig,
    GridPoint,
    RoundLogger,
    ScaledRows,
    TrainingSpec,
    build_client,
    collaborative_grid_search,
    derive_seed,
    evaluate,
    metrics_from_counts,
    run_federated,
    select_thresholds,
)
from .neuralnet import ArchitectureSpec, autoencoder_preset, classifier_preset
from .preprocess import local_min_max, merge_bounds, scale

RESULTS_ENV_VAR = "FEDIOT_RESULTS_DIR"

MODES = ("supervised", "unsupervised")
APPROACHES = ("naive", "federated", "centralized")

# Every cell is scored on the pooled known devices and on the held-out one.
KNOWN_SCOPE = "known"
NEW_DEVICE_SCOPE = "new_device"

# The adversarial comparison always covers these rules, weakest first.
SWEEP_RULES = (
    AggregationSpec("avg"),
    AggregationSpec("med"),
    AggregationSpec("tm", trim_c=1),
    AggregationSpec("tm", trim_c=2),
    AggregationSpec("tm", trim_c=2, resample_s=2),
)


@dataclass(frozen=True)
class GridSpec:
    """A collaborative grid search over presets x L2 weights; empty means none."""

    presets: tuple[str, ...] = ()
    l2_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if bool(self.presets) != bool(self.l2_values):
            raise ConfigError("grid needs both presets and l2 values")


@dataclass(frozen=True)
class ModelSpec:
    """The architecture preset and L2 weight, or the grid that picks them per cell."""

    preset: str = "B"
    l2_lambda: float = 0.0
    grid: GridSpec = GridSpec()


@dataclass(frozen=True)
class ProtocolSpec:
    """Which devices are held out in turn, how often, and the seed of everything."""

    folds: tuple[str, ...] | str = "all"
    repetitions: int = 5
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if isinstance(self.folds, str) and self.folds != "all":
            raise ConfigError(f"folds must be 'all' or a list of device ids, got {self.folds!r}")
        if not isinstance(self.folds, str) and not self.folds:
            raise ConfigError("folds list is empty")
        if not isinstance(self.folds, str) and len(set(self.folds)) != len(self.folds):
            twice = sorted({f for f in self.folds if self.folds.count(f) > 1})
            raise ConfigError(f"folds name a device more than once: {twice}")


@dataclass(frozen=True)
class ReportSpec:
    """Threshold std estimator and the cost tables' model upload size."""

    sample_std: bool = False
    model_bytes: int | None = None

    def __post_init__(self) -> None:
        # 2**53 is the largest count float64 holds exactly; the cost tables
        # print bytes through float.
        if self.model_bytes is not None and not 1 <= self.model_bytes <= 2**53:
            raise ConfigError(f"model_bytes must be a positive integer of at most 2**53, got {self.model_bytes}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its top-level keys, and one dataclass per JSON section of the same name."""

    name: str
    mode: str
    approach: str
    data: DataSource
    balance: BalanceSpec
    algorithm: str = "mini_batch"
    model: ModelSpec = ModelSpec()
    training: TrainingSpec = TrainingSpec()
    aggregation: AggregationSpec = AggregationSpec("avg")
    attack: AttackSpec = AttackSpec()
    protocol: ProtocolSpec = ProtocolSpec()
    report: ReportSpec = ReportSpec()

    def __post_init__(self) -> None:
        # The name is the bundle's directory under the results directory.
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ConfigError(f"name {self.name!r} is not a plain directory name")
        if self.name.endswith((".partial", ".old", ".sweep")):
            raise ConfigError(f"name {self.name!r} ends like a staging or sweep directory")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.approach not in APPROACHES:
            raise ConfigError(f"approach must be one of {APPROACHES}, got {self.approach!r}")
        if (self.attack.kind != "none" or self.training.dropout_prob > 0) and self.approach != "federated":
            raise ConfigError(f"attacks and dropout need the federated approach, not {self.approach}")
        if self.attack.kind in FLIP_KINDS and self.mode != "supervised":
            raise ConfigError("label flipping needs supervised training labels")
        # The algorithm and every L2 weight the experiment may train are
        # checked where training reads them, so a bad config fails at load,
        # before a bundle is touched.
        base = _federation_config(self, 0, "")
        for point in _grid(self):
            replace(base, arch=point.arch, l2_lambda=point.l2_lambda)

    @property
    def supervised(self) -> bool:
        return self.mode == "supervised"

    def architecture(self, preset: str | None = None) -> ArchitectureSpec:
        name = self.model.preset if preset is None else preset
        dim = self.data.feature_dim if self.data.source == "synthetic" else self.data.schema
        if self.supervised:
            return classifier_preset(name, input_dim=dim)
        return autoencoder_preset(name, input_dim=dim)


# Each field's declared type, the one check every JSON value passes at load,
# resolved once per class.
_hints = functools.cache(typing.get_type_hints)


def _typed(value, hint, where: str):
    # A JSON value checked against a field's type hint. An object becomes the
    # dataclass the hint names, lists become tuples, ints are floats where the
    # field is a float, and bools are no numbers. where is "" at the top level.
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'experiment config'} must be a JSON object")
        hints = _hints(hint)
        unknown = value.keys() - hints.keys()
        if unknown:
            raise ConfigError(f"unknown {where or 'config'} keys: {sorted(unknown)}")
        for f in fields(hint):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                missing = f"{where}.{f.name}" if where else f"the {f.name!r} section"
                raise ConfigError(f"config is missing {missing}")
        return hint(**{k: _typed(v, hints[k], f"{where}.{k}" if where else k) for k, v in value.items()})
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        for option in typing.get_args(hint):
            with suppress(ConfigError):
                return _typed(value, option, where)
    elif origin is tuple and isinstance(value, list):
        return tuple(_typed(item, typing.get_args(hint)[0], where) for item in value)
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    raise ConfigError(f"{where} must be {_json_type(hint)}, got {value!r}")


def _json_type(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"a list of {_json_type(typing.get_args(hint)[0])}"
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return " or ".join(_json_type(option) for option in typing.get_args(hint))
    return "null" if hint is type(None) else hint.__name__


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    return _typed(raw, ExperimentConfig, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    """Inverse of config_from_dict, for reloadable echoes: tuples as lists, no empty grid."""
    out = asdict(config, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value for key, value in items
    })
    if not config.model.grid.presets:
        del out["model"]["grid"]
    return out


def profile_names() -> list[str]:
    root = resources.files("fediot").joinpath("profiles")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_profile(name: str) -> ExperimentConfig:
    path = resources.files("fediot").joinpath("profiles", f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"unknown profile {name!r}, available: {profile_names()}")
    return config_from_dict(json.loads(path.read_text()))


def load_config(path_or_profile: str) -> ExperimentConfig:
    """Load a config from a JSON file path, or a packaged profile by name."""
    if os.path.exists(path_or_profile):
        with open(path_or_profile) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path_or_profile}: invalid JSON: {exc}") from None
        return config_from_dict(raw)
    return load_profile(path_or_profile)


def _manifest(config: ExperimentConfig) -> list[ManifestEntry]:
    if not os.path.exists(config.data.path):
        raise ConfigError(f"manifest not found: {config.data.path}")
    entries = load_manifest(config.data.path)
    if len({entry.device_id for entry in entries}) < 2:
        raise ConfigError(_FLEET_FLOOR)
    return entries


def _client_count(config: ExperimentConfig) -> int:
    """Clients per cell: every device of the fleet but the held-out one."""
    if config.data.source == "synthetic":
        return config.data.devices - 1
    return len({entry.device_id for entry in _manifest(config)}) - 1


def synthetic_streams(config: ExperimentConfig, rep: int) -> list[SampleSet]:
    """The synthetic fleet's device streams for one repetition."""
    return generate_synthetic_fleet(config.data, seed=derive_seed(config.protocol.master_seed, rep, "fleet"))


def _fleet(config: ExperimentConfig, rep: int, manifest_split: Fleet | None) -> Fleet:
    """One repetition's rebalanced partitions, by device id, over one record array.

    A manifest fleet redraws the indices of its split, whose records were
    read once for all repetitions, so every repetition shares them. A
    synthetic fleet is split and rebalanced on each device's labels, then
    drawn device by device into one array that holds only the records some
    part names.
    """

    def balanced(p: DevicePartition) -> DevicePartition:
        seed = derive_seed(config.protocol.master_seed, rep, "balance", p.device_id)
        return rebalance(p, config.balance, seed)

    if manifest_split is not None:
        return Fleet(manifest_split.records, [balanced(p) for p in manifest_split.values()])
    return generate_synthetic_fleet(
        config.data,
        seed=derive_seed(config.protocol.master_seed, rep, "fleet"),
        split=lambda device, labels_only: balanced(chronological_split(labels_only, config.mode, device)),
    )


def _resolve_folds(config: ExperimentConfig, device_ids: list[str]) -> list[str]:
    if isinstance(config.protocol.folds, str):
        return list(device_ids)
    missing = [f for f in config.protocol.folds if f not in device_ids]
    if missing:
        raise ConfigError(f"fold devices not in the fleet: {missing}")
    return list(config.protocol.folds)


def _federation_config(config: ExperimentConfig, rep: int, fold: str) -> FederationConfig:
    seed = config.protocol.master_seed
    return FederationConfig(
        arch=config.architecture(),
        training=config.training,
        algorithm=config.algorithm,
        l2_lambda=config.model.l2_lambda,
        aggregation=config.aggregation,
        init_seed=derive_seed(seed, rep, fold, "init"),
        server_seed=derive_seed(seed, rep, fold, "server"),
    )


def _grid(config: ExperimentConfig) -> list[GridPoint]:
    return [
        GridPoint(config.architecture(preset), l2)
        for preset in config.model.grid.presets
        for l2 in config.model.grid.l2_values
    ]


def _threshold_logger(logger: RoundLogger, clients: list[ClientState], ddof: int):
    """A round hook that logs each round with its model's global threshold."""
    scratch = ScaledRows()

    def wrapped(info: dict, model) -> None:
        threshold = select_thresholds(clients, model, ddof, scratch)
        logger({**info, "threshold": threshold}, model)

    return wrapped


def _run_cell(
    config: ExperimentConfig,
    partitions: Fleet,
    fold: str,
    rep: int,
    rounds_dir: str | None,
) -> tuple[list[dict], list[dict]]:
    """Train and evaluate one (fold, repetition) cell; return metric rows.

    The training devices form groups with one model and scaling bounds each:
    one fleet of all devices (federated), one client holding their pooled
    data (centralized), or each device alone (naive). One run_federated call
    trains them all, without a server unless federated; under a grid search
    the groups sharing a winner train in one call. The cell's metrics are the
    mean over groups. Only federated training aggregates and writes round logs.
    """
    train_ids = [d for d in partitions if d != fold]
    if config.attack.f >= len(train_ids):
        raise ConfigError(f"f={config.attack.f} attackers need more than {len(train_ids)} clients")
    federated = config.approach == "federated"
    seed = config.protocol.master_seed
    ddof = int(config.report.sample_std)  # 1: the sample std, 0: the population std
    base_config = _federation_config(config, rep, fold)
    if not federated:
        # Mini-batch keeps the step budget: epochs * ceil(n_train / batch_size).
        base_config = replace(base_config, algorithm="mini_batch", aggregation=None)
    log_path = None
    if federated and rounds_dir is not None and config.training.log_rounds:
        log_path = os.path.join(rounds_dir, f"fold-{fold}-rep-{rep}.jsonl")

    groups = [[d] for d in train_ids] if config.approach == "naive" else [train_ids]
    mal_rng = np.random.default_rng(derive_seed(seed, rep, fold, "malicious"))
    attacks = dict.fromkeys(malicious_ids(train_ids, config.attack.f, mal_rng), config.attack)
    bounds, clients = [], []  # per group
    for ids in groups:
        # Each device's bounds are taken over its train rows in place: no row is gathered.
        bounds.append(merge_bounds([
            local_min_max(partitions[d].records.features, partitions[d].train) for d in ids
        ]))
        members = [partitions[d] for d in ids]
        if config.approach == "centralized":
            # The pool indexes the fleet's record array and names only the
            # records training and thresholds read.
            members = [partitions.pool("pooled", ids)]
        clients.append([
            build_client(p, bounds[-1], config.supervised, attacks.get(p.device_id, AttackSpec()),
                         derive_seed(seed, rep, fold, "client", p.device_id))
            for p in members
        ])
    group_configs = [base_config] * len(groups)
    if config.model.grid.presets:
        winners = (collaborative_grid_search(group, _grid(config), base_config)[0] for group in clients)
        group_configs = [replace(base_config, arch=w.arch, l2_lambda=w.l2_lambda) for w in winners]
    trained, aggregations = {}, 0  # configuration -> its groups' models, in group order
    for fed_config in dict.fromkeys(group_configs):
        fleet = [c for group, g in zip(clients, group_configs) if g == fed_config for c in group]
        if log_path is None:
            models, count = run_federated(fleet, fed_config)
        else:
            with RoundLogger(log_path) as logger:
                hook = logger if config.supervised else _threshold_logger(logger, fleet, ddof)
                models, count = run_federated(fleet, fed_config, hook)
        trained[fed_config] = iter(models)
        aggregations += count

    per_group: list[tuple[dict, dict]] = []  # (known, new-device) metrics
    device_rows: list[dict] = []
    for ids, group, group_bounds, fed_config in zip(groups, clients, bounds, group_configs):
        model = next(trained[fed_config])
        threshold = None
        if not config.supervised:
            threshold = select_thresholds(group, model, ddof)
        tests = (partitions[d].gather("test") for d in (*ids, fold))
        # Each test set is gathered and scaled in place as evaluate reaches
        # it: one scaled copy at a time.
        scaled = ((scale(t.features, group_bounds, out=t.features), t.labels) for t in tests)
        *known, new = evaluate(model, threshold, scaled)
        pooled = sum(known, ConfusionCounts())
        per_group.append((metrics_from_counts(pooled), metrics_from_counts(new)))
        for d, counts in zip(ids, known):
            device_rows.append(
                {"fold": fold, "repetition": rep, "device_id": d, **metrics_from_counts(counts)}
            )

    rows = [
        {
            "fold": fold,
            "repetition": rep,
            "seed": derive_seed(seed, rep, fold, "cell"),
            "scope": scope,
            **{m: float(np.mean([g[i][m] for g in per_group])) for m in METRIC_NAMES},
            "n_train": clients[0][0].n_train,
            "aggregations": aggregations,
        }
        for i, scope in enumerate((KNOWN_SCOPE, NEW_DEVICE_SCOPE))
    ]
    return rows, device_rows


def _repetitions(config: ExperimentConfig):
    """Each repetition's rebalanced partitions and folds.

    A synthetic fleet is drawn from each repetition's own seed; a manifest
    fleet is read and split once, and only its rebalancing indices are
    redrawn. The yielded fleet is emptied, its record array included, when
    the next repetition is asked for, so the consumer's reference no longer
    keeps the previous fleet alive while the next one is built: one
    repetition's fleet is held at a time.
    """
    manifest_split = None
    if config.data.source == "manifest":
        manifest_split = partition_from_manifest(
            _manifest(config), config.mode, config.data.schema, config.data.has_header
        )
    for rep in range(config.protocol.repetitions):
        partitions = _fleet(config, rep, manifest_split)
        yield rep, partitions, _resolve_folds(config, list(partitions))
        partitions.clear()


def _workers() -> int:
    """How many processes may run cells at once: one per CPU this process may
    run on (narrow it with taskset or a cpuset), or 1 where there is no fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(run, jobs: list) -> list:
    """[run(job) for job in jobs], with the jobs dealt across forked workers.

    With one worker (one job, or one CPU) the jobs run in a plain loop in
    the calling process. Otherwise _forked.deal runs them: it is imported,
    and so compiled, only by a run that forks.
    """
    workers = min(len(jobs), _workers())
    if workers <= 1:
        return [run(job) for job in jobs]
    from ._forked import deal

    return deal(run, jobs, workers)


def summarize(rows: list[dict]) -> list[dict]:
    """Mean / min / max of every metric per evaluation scope."""
    out = []
    for scope in sorted({r["scope"] for r in rows}):
        values = [r for r in rows if r["scope"] == scope]
        for metric in METRIC_NAMES:
            series = [v[metric] for v in values]
            out.append(
                {
                    "scope": scope,
                    "metric": metric,
                    "mean": float(np.mean(series)),
                    "min": float(np.min(series)),
                    "max": float(np.max(series)),
                    "runs": len(series),
                }
            )
    return out


def results_dir(out_dir: str | None = None) -> str:
    if out_dir:
        return out_dir
    return os.environ.get(RESULTS_ENV_VAR, "results")


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


RUN_COLUMNS = ["fold", "repetition", "seed", "scope", *METRIC_NAMES, "n_train", "aggregations"]
DEVICE_COLUMNS = ["fold", "repetition", "device_id", *METRIC_NAMES]
SUMMARY_COLUMNS = ["scope", "metric", "mean", "min", "max", "runs"]
SWEEP_COLUMNS = ["attack", "rule", "f", "mean_f1", "min_f1", "max_f1", "runs"]


@contextmanager
def _staged_bundle(path: str, config: ExperimentConfig):
    """Build a bundle in <path>.partial and swap it in for path on success.

    Yields the staging directory, which already holds the config echo; the
    caller writes every other file there. An exception deletes the staging
    directory and leaves an earlier bundle at path as it was. Success
    replaces that bundle whole, reports rendered from it included.
    """
    staging, retired = f"{path}.partial", f"{path}.old"
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    os.makedirs(staging)
    try:
        with open(os.path.join(staging, "config.json"), "w") as handle:
            json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
            handle.write("\n")
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if os.path.exists(path):
        os.rename(path, retired)
    os.rename(staging, path)
    shutil.rmtree(retired, ignore_errors=True)


@dataclass(frozen=True)
class ExperimentResult:
    """In-memory view of one experiment bundle."""

    config: ExperimentConfig
    rows: list[dict]
    device_rows: list[dict]
    summary: list[dict]
    path: str


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Run every (fold x repetition) cell and persist the result bundle.

    The bundle directory holds a reloadable config echo, one metrics row per
    run and scope, a per-device breakdown, the mean/min/max summary, and
    (when round logging is on) one JSON-lines trace per cell. Everything but
    timing.json is a pure function of the config and its master seed. A
    repetition's folds run in parallel (see _forked.deal).
    """
    bundle = os.path.join(results_dir(out_dir), config.name)
    with _staged_bundle(bundle, config) as staging:
        rounds_dir = None
        if config.training.log_rounds:
            rounds_dir = os.path.join(staging, "rounds")
            os.makedirs(rounds_dir)
        started = time.monotonic()
        rows: list[dict] = []
        device_rows: list[dict] = []
        for rep, partitions, folds in _repetitions(config):
            cells = _map_cells(lambda fold: _run_cell(config, partitions, fold, rep, rounds_dir), folds)
            for cell_rows, cell_devices in cells:
                rows.extend(cell_rows)
                device_rows.extend(cell_devices)
        elapsed = time.monotonic() - started

        summary = summarize(rows)
        _write_csv(os.path.join(staging, "runs.csv"), rows, RUN_COLUMNS)
        _write_csv(os.path.join(staging, "devices.csv"), device_rows, DEVICE_COLUMNS)
        _write_csv(os.path.join(staging, "summary.csv"), summary, SUMMARY_COLUMNS)
        with open(os.path.join(staging, "timing.json"), "w") as handle:
            json.dump({"wall_seconds": elapsed}, handle)
            handle.write("\n")
    return ExperimentResult(config, rows, device_rows, summary, bundle)


@dataclass(frozen=True)
class SweepResult:
    """In-memory view of one adversarial sweep bundle."""

    config: ExperimentConfig
    rows: list[dict]
    path: str


def attack_sweep(
    config: ExperimentConfig, f_values: list[int], out_dir: str | None = None
) -> SweepResult:
    """Cross attack kinds x aggregation rules x attacker counts.

    Every cell runs the full fold x repetition protocol and records the
    mean, min, and max F1 on known devices. f=0 runs once per rule as the
    honest baseline. Each repetition's fleet is built once and shared by
    all cells, which run in parallel (see _forked.deal).
    """
    if config.approach != "federated":
        raise ConfigError("attack sweeps need the federated approach")
    if not config.supervised:
        raise ConfigError("attack sweeps run on the supervised pipeline")
    if not f_values:
        raise ConfigError("f_values is empty")
    k = _client_count(config)
    for f in f_values:
        if f < 0:
            raise ConfigError(f"f must be >= 0, got {f}")
        if f >= k:
            raise ConfigError(f"f={f} attackers need more than {k} clients")
        if f_values.count(f) > 1:
            raise ConfigError(f"f={f} is listed more than once")
    deepest = max(SWEEP_RULES, key=lambda rule: rule.min_models)
    if k < deepest.min_models:
        raise ConfigError(f"{deepest.describe()} needs at least {deepest.min_models} clients, got {k}")

    cells = []  # (attack kind, rule, f, cell config, known-device F1 per run)
    for rule in SWEEP_RULES:
        for f in sorted(f_values):
            kinds = ["none"] if f == 0 else [kind for kind in ATTACK_KINDS if kind != "none"]
            for kind in kinds:
                attack = AttackSpec() if f == 0 else AttackSpec(kind=kind, f=f)
                cells.append((kind, rule, f, replace(config, aggregation=rule, attack=attack), []))
    for rep, partitions, folds in _repetitions(config):

        def known_f1s(job):
            cell, fold, _ = job
            run_rows, _ = _run_cell(cell, partitions, fold, rep, None)
            return [r["f1"] for r in run_rows if r["scope"] == KNOWN_SCOPE]

        jobs = [(cell, fold, f1s) for *_, cell, f1s in cells for fold in folds]
        for (*_, f1s), job_f1s in zip(jobs, _map_cells(known_f1s, jobs)):
            f1s.extend(job_f1s)
    rows = [
        {
            "attack": kind,
            "rule": rule.describe(),
            "f": f,
            "mean_f1": float(np.mean(f1s)),
            "min_f1": float(np.min(f1s)),
            "max_f1": float(np.max(f1s)),
            "runs": len(f1s),
        }
        for kind, rule, f, _, f1s in cells
    ]

    bundle = os.path.join(results_dir(out_dir), f"{config.name}.sweep")
    with _staged_bundle(bundle, config) as staging:
        _write_csv(os.path.join(staging, "sweep.csv"), rows, SWEEP_COLUMNS)
    return SweepResult(config, rows, bundle)


def model_size_bytes(arch: ArchitectureSpec, override: int | None = None) -> int:
    """Bytes one model upload moves: its float64 parameter vector, or a stated override."""
    return 8 * arch.n_parameters if override is None else override


def human_bytes(n: int) -> str:
    """Decimal units, three significant digits: 2820000 -> '2.82 MB'."""
    value = float(n)
    for unit in ("B", "kB", "MB", "GB", "TB"):
        text = f"{value:.3g}"  # 999.5 rounds to 1e+03: that is 1 of the next unit
        if float(text) < 1000 or unit == "TB":
            return f"{text} {unit}"
        value /= 1000.0
    raise AssertionError("unreachable")


def _train_part_size(config: ExperimentConfig) -> int:
    fractions = SUPERVISED_FRACTIONS if config.supervised else UNSUPERVISED_FRACTIONS
    return math.floor(fractions[0] * config.balance.samples_per_device)


def cost_table(config: ExperimentConfig) -> list[dict]:
    """Closed-form per-client communication and computation costs.

    Printed-arithmetic convention: steps per epoch is n_train / B rounded to
    the nearest integer (the training loop itself always takes the ceiling).
    The per-step batch sizes follow the convention that one aggregation
    consumes a full global batch: the single-step algorithm runs B_global / K
    per client while the multi-epoch one runs B_global.
    """
    k = _client_count(config)
    batch, epochs, rounds = config.training.batch_size, config.training.epochs, config.training.rounds
    if config.algorithm == "mini_batch":
        b_mini = batch
        b_multi = batch * k
    else:
        b_multi = batch
        b_mini = max(1, round(batch / k))
    n_train = _train_part_size(config)
    size = model_size_bytes(config.architecture(), config.report.model_bytes)

    mini_steps = epochs * round(n_train / b_mini)
    multi_steps_per_round = epochs * round(n_train / b_multi)
    return [
        {
            "algorithm": algorithm,
            "batch_size": batch,
            "transmissions": sends,
            "local_steps": steps,
            "model_bytes": size,
            "total_bytes": sends * size,
            "traffic": human_bytes(sends * size),
        }
        for algorithm, batch, sends, steps in (
            ("mini_batch", b_mini, mini_steps, mini_steps),
            ("multi_epoch", b_multi, rounds, rounds * multi_steps_per_round),
        )
    ]


COST_COLUMNS = [
    "algorithm", "batch_size", "transmissions", "local_steps",
    "model_bytes", "total_bytes", "traffic",
]


# Statistic columns of summary.csv and sweep.csv, printed to four decimals.
_FLOAT_COLUMNS = ("mean", "min", "max", "mean_f1", "min_f1", "max_f1")


def _md_table(rows: list[dict], columns: list[str]) -> str:
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for row in rows:
        cells = (f"{float(row[c]):.4f}" if c in _FLOAT_COLUMNS else str(row[c]) for c in columns)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def report(bundle: str, fmt: str = "md") -> list[str]:
    """Render a result bundle into tables and plot-ready CSV files.

    Markdown output writes report.md; CSV output writes metrics.csv plus
    cost.csv, and f1_vs_f.csv / trajectory.csv when the bundle holds sweep
    results or round logs. An empty bundle yields header-only tables.
    """
    if fmt not in ("md", "csv"):
        raise ConfigError(f"report format must be md or csv, got {fmt!r}")
    config_path = os.path.join(bundle, "config.json")
    if not os.path.isfile(config_path):
        raise ConfigError(f"not a result bundle (no config.json): {bundle}")
    config = load_config(config_path)

    is_sweep = os.path.isfile(os.path.join(bundle, "sweep.csv"))
    table = os.path.join(bundle, "sweep.csv" if is_sweep else "summary.csv")
    rows = []
    if os.path.isfile(table):
        with open(table, newline="") as handle:
            rows = list(csv.DictReader(handle))
    columns = SWEEP_COLUMNS if is_sweep else SUMMARY_COLUMNS
    costs = cost_table(config)

    if fmt == "csv":
        tables = [
            ("f1_vs_f.csv" if is_sweep else "metrics.csv", rows, columns),
            ("cost.csv", costs, COST_COLUMNS),
        ]
        trajectory = _trajectory_rows(bundle)
        if trajectory is not None:
            tables.append(("trajectory.csv", trajectory, TRAJECTORY_COLUMNS))
        for name, table_rows, table_columns in tables:
            _write_csv(os.path.join(bundle, name), table_rows, table_columns)
        return [os.path.join(bundle, name) for name, *_ in tables]

    heading = "F1 by attack, rule, and attacker count" if is_sweep else "Detection metrics"
    parts = [
        f"# {config.name}\n",
        f"## {heading}\n",
        _md_table(rows, columns),
        "\n## Per-client cost\n",
        _md_table(costs, COST_COLUMNS),
    ]
    out = os.path.join(bundle, "report.md")
    with open(out, "w") as handle:
        handle.write("\n".join(parts))
    return [out]


TRAJECTORY_COLUMNS = ["fold", "repetition", "round", "lr", "mean_loss", "threshold"]


def _trajectory_rows(bundle: str) -> list[dict] | None:
    rounds_dir = os.path.join(bundle, "rounds")
    if not os.path.isdir(rounds_dir):
        return None
    rows = []
    for name in sorted(os.listdir(rounds_dir)):
        if not name.endswith(".jsonl"):
            continue
        stem = name[: -len(".jsonl")]  # fold-<id>-rep-<n>
        fold, rep = stem[len("fold-"):].rsplit("-rep-", 1)
        with open(os.path.join(rounds_dir, name)) as handle:
            for line in handle:
                record = json.loads(line)
                losses = [v for v in record["client_losses"].values() if v is not None]
                rows.append(
                    {
                        "fold": fold,
                        "repetition": int(rep),
                        "round": record["round"],
                        "lr": record["lr"],
                        "mean_loss": float(np.mean(losses)) if losses else "",
                        "threshold": record.get("threshold", ""),
                    }
                )
    return rows
