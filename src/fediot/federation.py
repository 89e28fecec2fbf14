"""Federated training, anomaly thresholds, and evaluation.

One round loop serves both schedules: mini-batch aggregation averages after
every local step, multi-epoch aggregation after several local epochs. With
no aggregation rule there is no server: one round in which every client
trains alone. Each local step is one batched backward pass over the rows of
a parameter buffer, one row per training client (the same bits as each
client training alone) or, under honest mini-batch averaging, one row on
the union of the k batches (FederatedSGD, equal up to rounding). The
backward pass is bound to its buffer rows once per run, and each epoch's
batches are laid out once, in a per-epoch plan of record indices.

Clients hold their device's raw records, the partition's own array, plus
row indices and the group's scaling bounds: a step gathers and scales the
fleet batch, and every other read gathers and scales one client's rows at a
time into a reused buffer, so each record is held once, unscaled.

Training is a pure function of its inputs: all randomness derives from the
client seeds and the server seed, and rerunning a configuration reproduces
the model bit for bit.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable

import numpy as np

from .adversary import (
    FLIP_KINDS,
    MODEL_ATTACK_KINDS,
    AttackSpec,
    alpha_cancel,
    alpha_gradient,
    cancel_update,
    flip_labels,
)
from .aggregation import AggregationSpec, reduce_rows
from .dataset import DevicePartition
from .errors import ConfigError, PoisonedUpdateError, SchemaError
from .neuralnet import (
    CLASSIFIER,
    ArchitectureSpec,
    Backprop,
    ModelParameters,
    classify,
    init_model,
    loss,
    mse_per_sample,
)
from .preprocess import ScalingBounds, scale

# Sub-seed roles so one client seed yields independent streams.
_SEED_FLIP = 0
_SEED_SHUFFLE = 1

METRIC_NAMES = ("accuracy", "tpr", "tnr", "f1")

# Share of each client's training records the grid search holds out.
VAL_FRACTION = 0.10


def derive_seed(*parts) -> int:
    """Stretch a master seed into an independent stream for a named role."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _check_finite_non_negative(name: str, value: float) -> None:
    if not value >= 0:  # also rejects NaN
        raise ConfigError(f"{name} must be >= 0, got {value}")
    if value == math.inf:
        raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TrainingSpec:
    """Schedule hyper-parameters: the config's training section, as training reads it."""

    learning_rate: float = 0.05
    batch_size: int = 8
    epochs: int = 4
    rounds: int = 30
    lr_decay: float = 0.9
    shuffle: bool = True
    dropout_prob: float = 0.0
    log_rounds: bool = False

    def __post_init__(self) -> None:
        _check_finite_non_negative("learning_rate", self.learning_rate)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.epochs < 1 or self.rounds < 1:
            raise ConfigError(f"epochs and rounds must be >= 1, got {self.epochs}, {self.rounds}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")


@dataclass(frozen=True)
class FederationConfig:
    """Everything the server fixes before training starts.

    algorithm picks the schedule. 'mini_batch' aggregates after every local
    step at the constant training.learning_rate, for training.epochs passes
    over local data. 'multi_epoch' runs training.rounds rounds of epochs
    local passes each, at learning_rate * lr_decay**round. aggregation None
    means no server: each client trains alone for epochs passes at
    learning_rate.
    """

    arch: ArchitectureSpec
    training: TrainingSpec = TrainingSpec()
    algorithm: str = "mini_batch"
    l2_lambda: float = 0.0
    aggregation: AggregationSpec | None = AggregationSpec("avg")
    init_seed: int = 0
    server_seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ("mini_batch", "multi_epoch"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, pick mini_batch or multi_epoch")
        _check_finite_non_negative("l2_lambda", self.l2_lambda)
        if self.training.dropout_prob > 0 and self.aggregation is None:
            raise ConfigError("dropout needs a server, but aggregation is None")

    def lr_at(self, round_index: int) -> float:
        if self.algorithm == "mini_batch":
            return self.training.learning_rate
        return self.training.learning_rate * self.training.lr_decay**round_index


@dataclass
class ClientState:
    """One client's ready-to-train view of its device data.

    x is the device's raw records, each held once; train and thr index the
    training records (a row may repeat) and the threshold records in it.
    y_train holds one label per train index, poisoned labels already
    flipped. Rows are read gathered and min-max scaled with bounds, the
    group's scaling bounds, which every client carries (x_min 0 and x_max 1
    leave the rows as they are). The seed drives every random choice the
    client makes, so a client is replayable.

    Rows are gathered without a bounds check, so train and thr are checked
    here: an index outside [0, len(x)) raises SchemaError.
    """

    client_id: str
    x: np.ndarray
    train: np.ndarray
    y_train: np.ndarray | None
    thr: np.ndarray | None = None
    attack: AttackSpec = field(default_factory=AttackSpec)
    seed: int = 0
    bounds: ScalingBounds = field(kw_only=True)

    def __post_init__(self) -> None:
        n = self.x.shape[0]
        for name, rows in (("train", self.train), ("thr", self.thr)):
            if rows is not None and rows.size and not (rows.min() >= 0 and rows.max() < n):
                raise SchemaError(f"{self.client_id}: {name} indices must lie in [0, {n}), "
                                  f"got {rows.min()} to {rows.max()}")

    @property
    def n_train(self) -> int:
        return self.train.shape[0]


def build_client(
    partition: DevicePartition,
    bounds: ScalingBounds,
    supervised: bool,
    attack: AttackSpec,
    seed: int,
) -> ClientState:
    """A ClientState on a device partition's records, poisoning labels if told to.

    The client's x is the partition's record array and its indices are the
    partition's train and threshold_sel parts: no feature row is copied.
    """
    y_train = None
    if supervised:
        y_train = partition.records.labels[partition.train]
        if attack.kind in FLIP_KINDS:
            rng = np.random.default_rng([seed, _SEED_FLIP])
            y_train = flip_labels(y_train, attack.kind, attack.p_poison, rng)
    return ClientState(
        client_id=partition.device_id,
        x=partition.records.features,
        train=partition.train,
        y_train=y_train,
        thr=partition.threshold_sel,
        attack=attack,
        seed=seed,
        bounds=bounds,
    )


class ScaledRows:
    """Gathers one client's rows at a time into one buffer kept across
    calls and scales them there, with the client's bounds.

    rows are positions from the client's train or thr, whose range the
    client checks. The array a call returns is valid until the next call.
    """

    def __init__(self) -> None:
        self._buffer = np.empty(0)

    def __call__(self, client: ClientState, rows: np.ndarray) -> np.ndarray:
        shape = (rows.shape[0], client.x.shape[1])
        size = shape[0] * shape[1]
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        out = self._buffer[:size].reshape(shape)
        # mode="clip" skips the buffered copy mode="raise" makes of out.
        client.x.take(rows, axis=0, out=out, mode="clip")
        return scale(out, client.bounds, out=out)


def _validate_fleet(clients: list[ClientState], config: FederationConfig) -> AttackSpec | None:
    rule = config.aggregation
    floor, name = (1, "training") if rule is None else (rule.min_models, rule.describe())
    if len(clients) < floor:  # an empty fleet included
        raise ConfigError(f"{name} needs at least {floor} clients, got {len(clients)}")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate client ids: {sorted(ids)}")
    sizes = {c.n_train for c in clients}
    if len(sizes) > 1:
        raise ConfigError(f"clients must hold equally many training records, got {sorted(sizes)}")
    supervised = config.arch.kind == CLASSIFIER
    for c in clients:
        if supervised and c.y_train is None:
            raise ConfigError(f"{c.client_id}: classifier training needs labels")
        if not supervised and c.y_train is not None:
            raise ConfigError(f"{c.client_id}: autoencoder training takes no labels")
        if c.x.ndim != 2 or c.x.shape[1] != config.arch.input_dim:
            raise SchemaError(
                f"{c.client_id}: records {c.x.shape} do not match input_dim {config.arch.input_dim}"
            )
        if c.bounds.x_min.shape != (config.arch.input_dim,):
            raise SchemaError(
                f"{c.client_id}: scaling bounds for {c.bounds.x_min.shape[0]} features do not "
                f"match input_dim {config.arch.input_dim}"
            )
    model_attacks = {c.attack for c in clients if c.attack.kind in MODEL_ATTACK_KINDS}
    if len(model_attacks) > 1:
        raise ConfigError(f"clients disagree on the model attack: {model_attacks}")
    if model_attacks:
        spec = model_attacks.pop()
        count = sum(1 for c in clients if c.attack == spec)
        if count != spec.f:
            raise ConfigError(f"attack says f={spec.f} but {count} clients are malicious")
        if spec.f >= len(clients):
            raise ConfigError(f"f={spec.f} must be below the fleet size {len(clients)}")
        return spec
    return None


def _attack_factors(spec: AttackSpec | None, k: int) -> tuple[float | None, float | None]:
    if spec is None:
        return None, None
    if spec.kind == "gradient_factor":
        return alpha_gradient(k, spec.f), None
    return None, alpha_cancel(k, spec.f)


def _dropped(k: int, config: FederationConfig, server_rng: np.random.Generator) -> np.ndarray:
    # Which of the k clients miss the round, drawn from the server stream.
    if config.training.dropout_prob <= 0:
        return np.zeros(k, dtype=bool)
    return server_rng.random(k) < config.training.dropout_prob


OnRound = Callable[[dict, ModelParameters], None]


def _starting_model(config: FederationConfig, initial_model: ModelParameters | None) -> ModelParameters:
    if initial_model is None:
        return init_model(config.arch, config.init_seed)
    if initial_model.arch != config.arch:
        raise ConfigError("initial model architecture does not match the configured one")
    return initial_model


def schedule(config: FederationConfig, n_train: int) -> tuple[int, int]:
    """Aggregation rounds and local steps per round for n_train records per client.

    Mini-batch aggregation takes one local step per round, so
    training.epochs passes cost epochs * ceil(n_train / batch_size) rounds.
    Multi-epoch aggregation runs training.rounds rounds of epochs full local
    passes. Without a server all epochs * ceil(n_train / batch_size) steps
    make one round.
    """
    training = config.training
    steps_per_epoch = math.ceil(n_train / training.batch_size)
    if config.aggregation is None:
        return 1, training.epochs * steps_per_epoch
    if config.algorithm == "mini_batch":
        return training.epochs * steps_per_epoch, 1
    return training.rounds, training.epochs * steps_per_epoch


def _non_finite_rows(rows: np.ndarray) -> np.ndarray:
    # Indices of the rows of a C-contiguous array holding a NaN or an
    # infinity. The sum of squares is NaN or inf whenever one is present, so
    # only then (or on an overflow of finite squares) is each row checked;
    # the screen allocates no (k, d) mask on a clean step and keeps
    # sup-minibatch about 6% faster than the per-row check alone.
    flat = rows.reshape(-1)
    if np.isfinite(np.dot(flat, flat)):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~np.isfinite(rows).all(axis=1))


def _batch_scaling(
    trainers: list[ClientState], shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # Per trainer row, its x_min and guarded span repeated over the batch
    # rows, and the constant-feature mask when a feature is constant, so a
    # step scales its gathered batch with scale()'s elementwise operations.
    x_min, span, constant = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    for row, c in enumerate(trainers):
        x_min[row] = c.bounds.x_min
        span[row], constant[row] = c.bounds.guarded_span()
    return x_min, span, (constant if constant.any() else None)


def _takes_union_step(config: FederationConfig, attack_spec: AttackSpec | None) -> bool:
    # Label flips act on the data only, so flipped fleets qualify too.
    honest_avg = config.aggregation == AggregationSpec("avg") and attack_spec is None
    return honest_avg and config.algorithm == "mini_batch" and config.training.dropout_prob == 0


def run_federated(
    clients: list[ClientState],
    config: FederationConfig,
    on_round: OnRound | None = None,
    initial_model: ModelParameters | None = None,
) -> tuple[list[ModelParameters], int]:
    """Train a fleet under the schedule config.algorithm names.

    Every round broadcasts the global model, lets each client take its local
    steps on its next batches, and aggregates the returned models. A
    mini-batch round is one step at the constant rate; a multi-epoch round
    is config.training.epochs local epochs at the round's decayed rate.
    on_round receives one record per round plus the new global model;
    client losses are computed only for it.

    One step body trains the first rows of a parameter buffer with one
    batched backward pass on the training clients' batches, through a
    Backprop bound to those rows once per call. With one row per trainer it
    is the fleet step, bit for bit what each client would compute alone.
    The buffer holds one row per client, the trainers' first; each model
    canceller's row is rewritten every round with its reply. The rule
    reduces the rows of the clients that did not drop out, in client order,
    and may overwrite them (see reduce_rows). Honest AVG mini-batch rounds
    (no model attack, resampling or dropout) run the step with one row on
    the k batches concatenated in client order: one SGD step on the union
    batch, equal to averaging the k client steps up to rounding (exact for
    k = 1). A non-finite union step reruns with k rows. A non-finite
    gradient or model raises PoisonedUpdateError naming the first bad client
    in client order. At each epoch start every trainer draws its epoch order
    from its own shuffle stream and writes its train indices and labels in
    that order into its row of the epoch's batch plan; each step then
    gathers its fleet batch from the clients' raw records through a column
    slice of the plan, with one take per trainer, and scales it in place
    with each client's bounds. The labels are a view of the plan.

    With config.aggregation None (no server) each client trains alone as one
    row, in one round of all its steps; such a run takes no on_round hook
    and no model attack.

    Returns ([final global model], or without a server one model per client
    in client order) and the number of rounds that aggregated; a round whose
    dropout survivors fall below the rule's floor keeps the global model and
    does not count.
    """
    attack_spec = _validate_fleet(clients, config)
    rule = config.aggregation
    if rule is None and (on_round is not None or attack_spec is not None):
        raise ConfigError("a run without a server takes no on_round hook and no model attack")
    rounds, steps = schedule(config, clients[0].n_train)
    mini_batch = config.algorithm == "mini_batch"
    grad_alpha, cancel_alpha = _attack_factors(attack_spec, len(clients))
    model = _starting_model(config, initial_model)
    server_rng = np.random.default_rng(config.server_seed)
    arch, l2, dim = config.arch, config.l2_lambda, config.arch.input_dim
    # Model-cancelling clients do not train; their rows follow the trainers'.
    trainers = [i for i, c in enumerate(clients) if c.attack.kind != "model_cancel"]
    cancellers = [i for i, c in enumerate(clients) if c.attack.kind == "model_cancel"]
    k = len(trainers)
    boosted = [row for row, i in enumerate(trainers) if clients[i].attack.kind == "gradient_factor"]
    params = np.zeros((len(clients), arch.n_parameters))
    tiny = np.finfo(params.dtype).tiny
    # One row per client: the trainers' gradients, which are spent by the
    # time the round reduces, so s-resampling writes its rows here.
    grads = np.empty_like(params)
    slot = {i: row for row, i in enumerate(trainers + cancellers)}
    client_rows = [params[slot[i]] for i in range(len(clients))]
    # Each trainer's model is a read-only view of its buffer row, built once.
    # Unlike other ModelParameters these change with every local step and
    # every reduction, so they are valid only until the next step or
    # aggregation, and nothing may keep the models themselves past the round.
    shared = params[:k].view()
    shared.setflags(write=False)
    trained = [ModelParameters(arch, row) for row in shared]
    n, b = clients[0].n_train, config.training.batch_size
    batch_x = np.empty((k, min(b, n), dim))  # no batch is longer
    x_min, span, constant = _batch_scaling([clients[i] for i in trainers], batch_x.shape)
    # The epoch's batch plan, one row per trainer: its rows of x in the
    # epoch's order and their labels; a step reads columns [start, stop).
    # Equal n_train and one batch size put every trainer's epoch start on
    # the same step, and each trainer draws one order per epoch from its own
    # stream, as it would training alone.
    plan_x = np.empty((k, n), dtype=np.intp)
    plan_y = np.empty((k, n)) if arch.kind == CLASSIFIER else None
    shufflers = [np.random.default_rng([clients[i].seed, _SEED_SHUFFLE]) for i in trainers]
    steps_per_epoch = math.ceil(n / b)
    scratch = ScaledRows()  # for a multi-epoch round's logged losses
    union = _takes_union_step(config, attack_spec)
    # One backprop binding per row count a step uses: k for the fleet, 1 for the union.
    bound = {rows: Backprop(arch, params[:rows], grads[:rows]) for rows in {k, 1 if union else k}}

    aggregations = 0
    for round_index in range(rounds):
        lr = config.lr_at(round_index)
        rows = 1 if union else k
        for row in range(k, len(clients)):
            cancel_update(model, cancel_alpha, out=params[row])
        errors: dict[int, str] = {}  # client index -> its first failed check this round
        for step in range(steps):
            start = (round_index * steps + step) % steps_per_epoch * b
            if start == 0:
                for row, (i, rng) in enumerate(zip(trainers, shufflers)):
                    c = clients[i]
                    order = rng.permutation(n) if config.training.shuffle else np.arange(n)
                    c.train.take(order, out=plan_x[row], mode="clip")
                    if plan_y is not None:
                        plan_y[row] = c.y_train[order]
            stop = min(start + b, n)
            size = stop - start
            # The batches packed in client order: a (k, size, F) fleet batch
            # that is also the (1, k * size, F) union batch.
            xs = batch_x.reshape(-1)[: k * size * dim].reshape(k, size, dim)
            ys = None if plan_y is None else plan_y[:, start:stop]
            for row, i in enumerate(trainers):
                # The method form skips np.take's Python wrapper, and
                # mode="clip" the buffered copy of out that "raise" makes.
                clients[i].x.take(plan_x[row, start:stop], axis=0, out=xs[row], mode="clip")
            np.subtract(xs, x_min[:, :size], out=xs)
            np.divide(xs, span[:, :size], out=xs)
            if constant is not None:
                np.copyto(xs, 0.0, where=constant[:, :size])
            while True:
                fleet = params[:rows]
                if step == 0:
                    fleet[:] = model.flat
                y = None if ys is None else ys.reshape(rows, -1)
                fleet_grads = bound[rows](xs.reshape(rows, -1, dim), y, l2)
                for row in boosted:
                    grads[row] *= grad_alpha
                # A non-finite gradient makes its updated row non-finite (at
                # lr = 0 too: 0 * inf is NaN), so the gradients are screened
                # only for a bad row. Above lr = 1 a finite gradient times lr
                # can overflow, so the unscaled ones are screened first.
                bad_grads = _non_finite_rows(fleet_grads) if lr > 1 else None
                fleet_grads *= lr
                fleet -= fleet_grads
                bad = _non_finite_rows(fleet)
                if bad.size:
                    for row in _non_finite_rows(fleet_grads) if bad_grads is None else bad_grads:
                        errors.setdefault(trainers[row], "gradient contains non-finite values")
                    for row in bad:
                        errors.setdefault(trainers[row], "model parameters contain non-finite values")
                if rows == k or not errors:
                    break
                # A non-finite union step (the round's only step) reruns
                # from the global model with one row per trainer, which
                # names the bad client.
                rows = k
                errors.clear()
        if errors:
            first = min(errors)
            raise PoisonedUpdateError(f"client {clients[first].client_id}: {errors[first]}")
        losses: dict[str, float | None] = {}
        if on_round is not None:
            # A mini-batch round reports the loss of its one step on the
            # batch that step gathered and scaled, a multi-epoch round that
            # of the trained local model; a model canceller reports none.
            losses = dict.fromkeys(c.client_id for c in clients)
            for row, (i, local) in enumerate(zip(trainers, trained)):
                c = clients[i]
                if mini_batch:
                    losses[c.client_id] = loss(model, xs[row], None if ys is None else ys[row], l2)
                else:
                    losses[c.client_id] = loss(local, scratch(c, c.train), c.y_train, l2)
        dropped = _dropped(len(clients), config, server_rng)
        kept = [row for row, gone in zip(client_rows, dropped) if not gone]
        # A round left with fewer models than the rule needs keeps the global model.
        if rule is not None and len(kept) >= rule.min_models:
            if union and rows == 1:  # the union step already averaged the k client steps
                model = ModelParameters(arch, params[0])
            else:
                flat = reduce_rows(kept, rule, server_rng, grads)
                # Flush subnormal coordinates to zero: a model canceller drives
                # an averaged model through them toward zero, and every
                # operation on a subnormal takes the CPU's slow path. Times
                # zero keeps the sign of a zero coordinate.
                flat[np.abs(flat) < tiny] *= 0.0
                flat.setflags(write=False)  # a new vector, so the model need not copy it
                model = ModelParameters(arch, flat)
            aggregations += 1
        if on_round is not None:
            on_round(
                {
                    "round": round_index,
                    "epoch": round_index * config.training.epochs // rounds if mini_batch else None,
                    "lr": lr,
                    "client_losses": losses,
                    "dropped": [c.client_id for c, gone in zip(clients, dropped) if gone],
                },
                model,
            )
    # Without a server the buffer rows, which no step writes any more, are the models.
    return (trained if rule is None else [model]), aggregations


def local_threshold(
    client: ClientState, model: ModelParameters, ddof: int = 0, scratch: ScaledRows | None = None
) -> float:
    """Mean reconstruction error on the client's threshold records plus one std.

    ddof=0 uses the population standard deviation; ddof=1 switches to the
    sample estimate. The records are gathered and scaled into scratch, a
    fresh buffer when omitted.
    """
    if client.thr is None:
        raise ConfigError(f"{client.client_id}: no threshold selection records")
    scratch = ScaledRows() if scratch is None else scratch
    errors = mse_per_sample(model, scratch(client, client.thr))
    return float(errors.mean() + errors.std(ddof=ddof))


def global_threshold(local_thresholds: dict[str, float]) -> float:
    """Average the local thresholds; no raw errors leave their clients."""
    if not local_thresholds:
        raise ConfigError("no local thresholds to average")
    return float(np.mean(list(local_thresholds.values())))


def select_thresholds(
    clients: list[ClientState], model: ModelParameters, ddof: int = 0, scratch: ScaledRows | None = None
) -> float:
    """The fleet's global threshold: the average of the clients' local thresholds."""
    scratch = ScaledRows() if scratch is None else scratch
    return global_threshold({c.client_id: local_threshold(c, model, ddof, scratch) for c in clients})


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: ConfusionCounts) -> ConfusionCounts:
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    if y_true.shape != y_pred.shape:
        raise ConfigError(f"label shapes differ: {y_true.shape} vs {y_pred.shape}")
    return ConfusionCounts(
        tp=int(np.sum(y_true & y_pred)),
        tn=int(np.sum(~y_true & ~y_pred)),
        fp=int(np.sum(~y_true & y_pred)),
        fn=int(np.sum(y_true & ~y_pred)),
    )


def metrics_from_counts(counts: ConfusionCounts) -> dict[str, float]:
    """Accuracy, true rates, and F1 from confusion counts, keyed by METRIC_NAMES.

    F1 = TP / (TP + (FP + FN) / 2) and is defined as 0 when TP is 0. Rates
    with an empty denominator are 0 as well.
    """
    if counts.total == 0:
        raise ConfigError("cannot compute metrics over zero records")
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    return {
        "accuracy": (tp + tn) / counts.total,
        "tpr": tp / (tp + fn) if tp + fn else 0.0,
        "tnr": tn / (tn + fp) if tn + fp else 0.0,
        "f1": tp / (tp + 0.5 * (fp + fn)) if tp else 0.0,
    }


def evaluate(
    model: ModelParameters,
    threshold: float | None,
    tests: Iterable[tuple[np.ndarray, np.ndarray]],
) -> list[ConfusionCounts]:
    """Score a model on (scaled features, labels) test sets, one scoring pass each.

    A classifier labels each record; an autoencoder flags a record whose
    reconstruction error strictly exceeds threshold. tests may be any
    iterable, a generator that scales each set on demand included: a set is
    dropped once scored, before the next one is drawn. Returns one
    ConfusionCounts per set, in order; callers pool them by adding, so
    larger test sets weigh more.
    """
    classifier = model.arch.kind == CLASSIFIER
    if not classifier and threshold is None:
        raise ConfigError("an autoencoder needs an anomaly threshold")

    def score(x: np.ndarray, y: np.ndarray) -> ConfusionCounts:
        flagged = classify(model, x) if classifier else mse_per_sample(model, x) > threshold
        return confusion_counts(y, flagged)

    # Unlike a for loop, starmap keeps no reference to a set past its call.
    return list(itertools.starmap(score, tests))


@dataclass(frozen=True)
class GridPoint:
    """One hyper-parameter combination: an architecture and an L2 weight."""

    arch: ArchitectureSpec
    l2_lambda: float


def _point_seed(point: GridPoint) -> int:
    # Content-derived so identical points run identically and tie exactly.
    return derive_seed(f"{point.arch}|{point.l2_lambda!r}")


def collaborative_grid_search(
    clients: list[ClientState],
    grid: list[GridPoint],
    config: FederationConfig,
) -> tuple[GridPoint, list[dict]]:
    """Pick the grid point whose short federated run validates best on average.

    Every client holds out the chronologically last VAL_FRACTION of its
    training records. Classifiers compare mean validation accuracy (higher
    wins), autoencoders mean validation loss (lower wins). Ties keep the
    earliest point in the grid. Without a server (config.aggregation None)
    the search runs on one client alone.

    Returns the winning point and one report row per grid point.
    """
    if not grid:
        raise ConfigError("grid search needs at least one point")
    if not clients:
        raise ConfigError("grid search needs clients")
    if config.aggregation is None and len(clients) > 1:
        raise ConfigError(f"grid search without a server takes one client at a time, got {len(clients)}")
    kinds = {p.arch.kind for p in grid}
    if len(kinds) > 1:
        raise ConfigError(f"grid mixes incomparable model kinds: {sorted(kinds)}")
    n = clients[0].n_train
    n_val = int(VAL_FRACTION * n)
    if n_val < 1:
        raise ConfigError(f"validation slice is empty: {n} records at {VAL_FRACTION}")
    cut = n - n_val
    scratch = ScaledRows()  # one client's held-out slice at a time
    rows = []
    for point in grid:
        sub_clients = [
            replace(
                c,
                train=c.train[:cut],
                y_train=None if c.y_train is None else c.y_train[:cut],
                seed=_point_seed(point) ^ c.seed,
            )
            for c in clients
        ]
        sub_config = replace(config, arch=point.arch, l2_lambda=point.l2_lambda)
        (model,), _ = run_federated(sub_clients, sub_config)
        if point.arch.kind == CLASSIFIER:
            held_out = ((scratch(c, c.train[cut:]), c.y_train[cut:]) for c in clients)
            scores = [metrics_from_counts(counts)["accuracy"] for counts in evaluate(model, None, held_out)]
        else:
            scores = [loss(model, scratch(c, c.train[cut:])) for c in clients]
        rows.append(
            {
                "arch": point.arch,
                "l2_lambda": point.l2_lambda,
                "mean_score": float(np.mean(scores)),
                "per_client": {c.client_id: s for c, s in zip(clients, scores)},
            }
        )
    # max and min keep the first best point, so ties go to the earliest.
    pick = max if grid[0].arch.kind == CLASSIFIER else min
    best, _ = pick(zip(grid, rows), key=lambda pair: pair[1]["mean_score"])
    return best, rows


class RoundLogger:
    """Append-only JSON-lines log of aggregation rounds."""

    def __init__(self, path: str):
        self._handle: IO[str] = open(path, "w")

    def __call__(self, info: dict, model: ModelParameters) -> None:
        self._handle.write(json.dumps(info, sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> RoundLogger:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
