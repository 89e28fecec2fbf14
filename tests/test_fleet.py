"""The training loop against its slow reference loops.

run_federated trains every client as one row of a (k, d) array with one
batched backward pass per local step. reference_run_federated below is the
loop it replaced: each client steps alone through backward and sgd_step and
hands a ModelParameters to aggregate. Both must give the same bytes, the
same aggregation count, the same round records and the same errors.

Honest AVG mini-batch rounds take one SGD step on the union of the client
batches instead. union_reference_run_federated spells that step out with
backward and sgd_step, and run_federated must match it bit for bit; against
the per-client loop such runs agree to UNION_TOL.

Without a server (aggregation None) every row is one client training alone:
alone_reference_run_federated runs each client's one-client AVG mini-batch
run in client order, as the harness once did for naive devices.

Clients on raw rows with scaling bounds must train, log and choose exactly
as the same clients pre-scaled, whose identity bounds (x_min 0, x_max 1)
leave their rows as they are: every scaled read, the gathered fleet batch
included, applies scale()'s elementwise operations. Every other client
here carries identity bounds too, so the reference loops read its rows as
given.
"""
import json
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fediot.adversary import MODEL_ATTACK_KINDS, AttackSpec, cancel_update
from fediot.aggregation import AggregationSpec, aggregate
from fediot.errors import PoisonedUpdateError
from fediot.federation import (
    ClientState,
    FederationConfig,
    GridPoint,
    TrainingSpec,
    _SEED_SHUFFLE,
    _attack_factors,
    _dropped,
    _starting_model,
    _validate_fleet,
    collaborative_grid_search,
    local_threshold,
    run_federated,
    schedule,
    select_thresholds,
)
from fediot.neuralnet import ArchitectureSpec, backward, loss, sgd_step
from fediot.preprocess import ScalingBounds, local_min_max, merge_bounds, scale


def identity(d):
    """Scaling bounds that leave every feature as it is (see test_preprocess)."""
    return ScalingBounds(np.zeros(d), np.ones(d))


TRAINING_FIELDS = {f.name for f in fields(TrainingSpec)}


def flat_config(**flat):
    """A FederationConfig from flat keywords; those named like a TrainingSpec
    field make its training section, whose own defaults fill the rest."""
    training = TrainingSpec(**{name: flat.pop(name) for name in TRAINING_FIELDS & flat.keys()})
    return FederationConfig(training=training, **flat)


def _batches(client, config):
    """One client's endless stream of batches, a fresh order per local epoch:
    each batch's positions in the train part (for its labels) and the rows
    of x they name. run_federated draws the same orders from the same
    stream into its per-epoch batch plan."""
    rng = np.random.default_rng([client.seed, _SEED_SHUFFLE])
    n, b = client.n_train, config.training.batch_size
    while True:
        order = rng.permutation(n) if config.training.shuffle else np.arange(n)
        rows = client.train[order]
        for start in range(0, n, b):
            yield order[start : start + b], rows[start : start + b]


def reference_run_federated(clients, config, on_round=None, initial_model=None):
    """One client at a time: k backward and sgd_step calls per local step."""
    attack_spec = _validate_fleet(clients, config)
    rounds, steps = schedule(config, clients[0].n_train)
    mini_batch = config.algorithm == "mini_batch"
    grad_alpha, cancel_alpha = _attack_factors(attack_spec, len(clients))
    model = _starting_model(config, initial_model)
    server_rng = np.random.default_rng(config.server_seed)
    streams = [_batches(c, config) for c in clients]
    l2 = config.l2_lambda
    aggregations = 0
    for round_index in range(rounds):
        lr = config.lr_at(round_index)
        updates = []
        losses = {}
        for c, stream in zip(clients, streams):
            if c.attack.kind == "model_cancel":
                updates.append(cancel_update(model, cancel_alpha))
                losses[c.client_id] = None
                continue
            local = model
            for _ in range(steps):
                # The batch's positions in the train part, read through the
                # train index here rather than through the stream's rows.
                positions, _ = next(stream)
                xb = c.x[c.train[positions]]
                yb = None if c.y_train is None else c.y_train[positions]
                grad = backward(local, xb, yb, l2)
                if c.attack.kind == "gradient_factor":
                    grad = grad_alpha * grad
                try:
                    local = sgd_step(local, grad, lr)
                except PoisonedUpdateError as exc:
                    raise PoisonedUpdateError(f"client {c.client_id}: {exc}") from None
            updates.append(local)
            if on_round is not None:
                if mini_batch:
                    losses[c.client_id] = loss(model, xb, yb, l2)
                else:
                    losses[c.client_id] = loss(local, c.x[c.train], c.y_train, l2)
        dropped = _dropped(len(clients), config, server_rng)
        kept = [u for u, gone in zip(updates, dropped) if not gone]
        if len(kept) >= config.aggregation.min_models:
            model = aggregate(kept, config.aggregation, server_rng)
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
    return [model], aggregations


def alone_reference_run_federated(clients, config, on_round=None):
    """No server: each client's own one-client AVG mini-batch run, one after another."""
    alone = replace(config, algorithm="mini_batch", aggregation=AggregationSpec("avg"))
    return [reference_run_federated([c], alone)[0][0] for c in clients], 0


def union_reference_run_federated(clients, config, on_round=None):
    """Honest AVG mini-batch: one backward and sgd_step on the concatenated batches."""
    rounds, _ = schedule(config, clients[0].n_train)
    model = _starting_model(config, None)
    streams = [_batches(c, config) for c in clients]
    supervised = clients[0].y_train is not None
    l2 = config.l2_lambda
    for round_index in range(rounds):
        batches = [next(stream) for stream in streams]
        x = np.concatenate([c.x[c.train[p]] for c, (p, _) in zip(clients, batches)])
        y = np.concatenate([c.y_train[p] for c, (p, _) in zip(clients, batches)]) if supervised else None
        losses = {
            c.client_id: loss(model, c.x[c.train[p]], c.y_train[p] if supervised else None, l2)
            for c, (p, _) in zip(clients, batches)
        }
        model = sgd_step(model, backward(model, x, y, l2), config.training.learning_rate)
        if on_round is not None:
            on_round(
                {
                    "round": round_index,
                    "epoch": round_index * config.training.epochs // rounds,
                    "lr": config.training.learning_rate,
                    "client_losses": losses,
                    "dropped": [],
                },
                model,
            )
    return [model], rounds


def _run(train, clients, config, with_log):
    records = []

    def hook(info, model):
        # Records compare as the JSON lines RoundLogger writes, so NaN losses match.
        records.append((json.dumps(info, sort_keys=True), model.flat.tobytes()))

    try:
        models, aggregations = train(clients, config, hook if with_log else None)
    except PoisonedUpdateError as exc:
        return ("error", str(exc))
    return (b"".join(m.flat.tobytes() for m in models), aggregations, records)


ATTACKS = ("none", "flip_all", "gradient_factor", "model_cancel")
RULES = (
    AggregationSpec("avg"),
    AggregationSpec("med"),
    AggregationSpec("tm", trim_c=1),
    AggregationSpec("tm", trim_c=3),
    AggregationSpec("med", resample_s=2),
    AggregationSpec("tm", trim_c=1, resample_s=2),
    AggregationSpec("avg", resample_s=1),
)

# A union-step run against the per-client loop. Each round sums the k*size
# per-record gradient terms in one pass where the loop sums k partial sums
# and averages k models, so a value moves by a few ulps of its size per
# round. Over 2,700 drawn union-path fleets (some diverging to parameters
# near 1e7) no parameter or client loss x drifted by more than
# 4.1e-15 * (1 + |x|). A real fault, such as a client batch left out or
# counted twice, moves a parameter by about lr * |gradient| / k, many
# orders above the bound UNION_TOL * (1 + |x|).
UNION_TOL = 1e-12


def _indexed_and_dense(clients, seed=0):
    """Each client re-read through indices that repeat and skip rows, and
    the same client on the dense rows those indices name.

    The indexed client holds every source row once, shuffled among NaN rows
    that no index names, so a read of a wrong row shows. Its train and thr
    indices pick source rows with replacement; the dense client holds the
    picked rows in order and reads them through np.arange.
    """
    rng = np.random.default_rng(seed)
    indexed, dense = [], []
    for c in clients:
        source = c.x
        m, pad = source.shape[0], 3
        place = rng.permutation(m + pad)  # source row i sits at place[i]
        records = np.full((m + pad, source.shape[1]), np.nan)
        records[place[:m]] = source
        picks = {"train": rng.integers(0, m, size=c.n_train)}
        if c.thr is not None:
            picks["thr"] = rng.integers(0, m, size=c.thr.size)
        indexed.append(replace(c, x=records, **{name: place[p] for name, p in picks.items()}))
        rows = np.concatenate(list(picks.values()))
        cuts = np.cumsum([p.size for p in picks.values()])[:-1]
        dense.append(replace(c, x=source[rows], **dict(zip(picks, np.split(np.arange(rows.size), cuts)))))
    return indexed, dense


@st.composite
def fleets(draw, union=False, ks=(1, 2, 3, 8), infinities=True, server=True, indexed=True):
    """Small random fleets; union=True draws only honest AVG mini-batch ones,
    server=False only ones with no aggregation, model attack or dropout.
    With indexed, some fleets read their rows through indices that repeat
    and skip rows (see _indexed_and_dense); the others read every row once."""
    k = draw(st.sampled_from(ks))
    supervised = draw(st.booleans())
    features = draw(st.integers(2, 5))
    n = draw(st.integers(1, 13))
    rules = [RULES[0]] if union else [r for r in RULES if r.min_models <= k]
    rule = draw(st.sampled_from(rules)) if server else None
    kinds = ("none", "flip_all") if union or not server else ATTACKS
    kind = draw(st.sampled_from(kinds if k > 1 else ("none",)))
    if kind == "flip_all" and not supervised:
        kind = "none"
    f = draw(st.integers(1, k - 1)) if kind != "none" else 0
    arch = (
        ArchitectureSpec("classifier", draw(st.sampled_from(((), (3,), (3, 2)))), features, 1)
        if supervised
        else ArchitectureSpec("autoencoder", draw(st.sampled_from(((2,), (3, 2, 3)))), features, features)
    )
    config = flat_config(
        arch=arch,
        algorithm="mini_batch" if union else draw(st.sampled_from(("mini_batch", "multi_epoch"))),
        learning_rate=draw(st.sampled_from((0.05, 0.5))),
        l2_lambda=draw(st.sampled_from((0.0, 1e-3))),
        batch_size=draw(st.integers(1, 5)),
        lr_decay=0.9,
        aggregation=rule,
        epochs=draw(st.integers(1, 2)),
        rounds=draw(st.integers(1, 3)),
        dropout_prob=0.0 if union or not server else draw(st.sampled_from((0.0, 0.0, 0.5))),
        shuffle=draw(st.booleans()),
        init_seed=draw(st.integers(0, 3)),
        server_seed=draw(st.integers(0, 3)),
    )
    data = np.random.default_rng(draw(st.integers(0, 2**16)))
    attack = AttackSpec(kind=kind, f=f)
    # Malicious clients sit anywhere, so a model canceller's buffer row (after
    # the trainers') is often not its place in client order.
    malicious_at = set(draw(st.permutations(range(k)))[:f])
    clients = []
    for i in range(k):
        x = data.uniform(-1.0, 2.0, size=(n, features))
        y = data.integers(0, 2, size=n) if supervised else None
        malicious = i in malicious_at
        if malicious and kind == "flip_all":
            y = 1 - y  # the labels build_client hands a flipping client
        spec = attack if malicious else AttackSpec()
        clients.append(
            ClientState(f"c{i}", x, np.arange(n), y, attack=spec, seed=i, bounds=identity(features))
        )
    if infinities and draw(st.integers(0, 9)) == 0:
        # A non-finite feature poisons whichever client trains on it first.
        victim = draw(st.integers(0, k - 1))
        clients[victim].x[draw(st.integers(0, n - 1)), 0] = np.inf
    if indexed and draw(st.booleans()):
        clients, _ = _indexed_and_dense(clients, draw(st.integers(0, 3)))
    return clients, config


def _on_union_path(clients, config):
    rule = config.aggregation
    return (
        config.algorithm == "mini_batch"
        and rule == AggregationSpec("avg")
        and config.training.dropout_prob == 0
        and not any(c.attack.kind in MODEL_ATTACK_KINDS for c in clients)
    )


def _fleet_path_only():
    return mock.patch("fediot.federation._takes_union_step", return_value=False)


def _assert_close(got, expected):
    # Same errors, aggregation count and round fields; models and client
    # losses within UNION_TOL * (1 + |x|).
    if "error" in (got[0], expected[0]):
        assert got == expected
        return
    (flat, aggregations, records), (ref_flat, ref_aggregations, ref_records) = got, expected

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=UNION_TOL, atol=UNION_TOL)

    assert aggregations == ref_aggregations
    close(np.frombuffer(flat), np.frombuffer(ref_flat))
    assert len(records) == len(ref_records)
    for (info, model), (ref_info, ref_model) in zip(records, ref_records):
        info, ref_info = json.loads(info), json.loads(ref_info)
        losses, ref_losses = info.pop("client_losses"), ref_info.pop("client_losses")
        assert info == ref_info and losses.keys() == ref_losses.keys()
        close(list(losses.values()), list(ref_losses.values()))
        close(np.frombuffer(model), np.frombuffer(ref_model))


@settings(max_examples=300)
@given(fleets(), st.booleans())
def test_fleet_matches_the_per_client_loop_bit_for_bit(fleet, with_log):
    # Bit for bit on the fleet path and for one client; a union-step run
    # with k >= 2 agrees to UNION_TOL.
    clients, config = fleet
    with np.errstate(all="ignore"):
        expected = _run(reference_run_federated, clients, config, with_log)
        got = _run(run_federated, clients, config, with_log)
    if _on_union_path(clients, config) and len(clients) > 1:
        _assert_close(got, expected)
    else:
        assert got == expected


@settings(max_examples=100)
@given(fleets(union=True), st.booleans())
def test_forced_fleet_path_keeps_honest_avg_bit_for_bit(fleet, with_log):
    clients, config = fleet
    with np.errstate(all="ignore"), _fleet_path_only():
        expected = _run(reference_run_federated, clients, config, with_log)
        got = _run(run_federated, clients, config, with_log)
    assert got == expected


@settings(max_examples=200)
@given(fleets(union=True, infinities=False), st.booleans())
def test_honest_avg_mini_batch_is_one_union_batch_sgd_step(fleet, with_log):
    clients, config = fleet
    expected = _run(union_reference_run_federated, clients, config, with_log)
    with mock.patch("fediot.federation.reduce_rows", side_effect=AssertionError("reduce_rows called")):
        got = _run(run_federated, clients, config, with_log)
    assert got == expected


@settings(max_examples=50)
@given(fleets(union=True, ks=(1,)), st.booleans())
def test_one_client_union_step_is_the_fleet_step(fleet, with_log):
    clients, config = fleet
    with np.errstate(all="ignore"):
        union = _run(run_federated, clients, config, with_log)
        with _fleet_path_only():
            fleet_path = _run(run_federated, clients, config, with_log)
    assert union == fleet_path


@settings(max_examples=150)
@given(fleets(server=False))
def test_no_server_rows_are_each_client_alone_bit_for_bit(fleet):
    # Any schedule: without a server each row is its client's one-client AVG
    # mini-batch run, and a poisoned client is named as the per-client runs,
    # made in client order, name it.
    clients, config = fleet
    with np.errstate(all="ignore"):
        expected = _run(alone_reference_run_federated, clients, config, False)
        got = _run(run_federated, clients, config, False)
    assert got == expected


@pytest.mark.parametrize(
    "algorithm, rule",
    [("mini_batch", AggregationSpec("avg")), ("multi_epoch", AggregationSpec("avg")), ("mini_batch", None)],
    ids=["mini_batch", "multi_epoch", "no_server"],
)
def test_first_bad_client_in_client_order_is_named(algorithm, rule):
    # Client c0 goes bad on its last batch, c1 on its first. The reference
    # loop finishes c0's round before c1 starts, so it names c0 under
    # multi-epoch aggregation and c1 under mini-batch. Without a server each
    # client runs alone, c0 first, so c0 is named. The fleet must agree.
    rng = np.random.default_rng(0)
    arch = ArchitectureSpec("classifier", (3,), 3, 1)
    clients = []
    for i, bad_row in enumerate((7, 0)):
        x = rng.uniform(0, 1, size=(8, 3))
        x[bad_row, 1] = np.nan
        y = rng.integers(0, 2, size=8)
        clients.append(ClientState(f"c{i}", x, np.arange(8), y, seed=i, bounds=identity(3)))
    training = TrainingSpec(batch_size=2, rounds=1, epochs=1, shuffle=False)
    config = FederationConfig(arch=arch, training=training, algorithm=algorithm, aggregation=rule)
    reference = reference_run_federated if rule else alone_reference_run_federated
    with np.errstate(all="ignore"):
        expected = _run(reference, clients, config, False)
        got = _run(run_federated, clients, config, False)
    assert expected[0] == "error"
    assert got == expected


@pytest.mark.parametrize("lr", [0.0, 1.0, 1e10])
def test_a_gradient_that_overflows_only_once_scaled_is_a_model_fault(lr):
    # c1's gradient is finite but near 1e300; at lr = 1e10 the step, not
    # the gradient, overflows, and the reference names a model fault. At
    # lr = 0 and lr = 1 the run stays finite.
    arch = ArchitectureSpec("classifier", (), 2, 1)
    y = np.arange(4) % 2
    clients = [
        ClientState("c0", np.ones((4, 2)), np.arange(4), y, seed=0, bounds=identity(2)),
        ClientState("c1", np.full((4, 2), 1e300), np.arange(4), y, seed=1, bounds=identity(2)),
    ]
    training = TrainingSpec(learning_rate=lr, batch_size=2, epochs=1, rounds=1, shuffle=False)
    config = FederationConfig(arch=arch, training=training, algorithm="multi_epoch")
    with np.errstate(all="ignore"):
        expected = _run(reference_run_federated, clients, config, False)
        got = _run(run_federated, clients, config, False)
    assert (expected[0] == "error") == (lr > 1)
    assert got == expected


def _raw_and_prescaled(clients, per_client=False, constant=False):
    """The clients on raw rows read through bounds, and the same clients
    pre-scaled with their identity bounds.

    The raw rows are the clients' rows stretched to another range. The
    clients share merged bounds, or with per_client each has its own, as a
    naive device does. With constant, feature 0 gets a span of 0 although
    its raw values vary, so only zeroing it gives scale()'s bits.
    """
    raws = []
    for c in clients:
        rows = c.x[c.train]
        x = np.concatenate([rows * 37.5 + 1000.0, rows[::-1] * 40.0 + 990.0])
        raws.append(replace(c, x=x, train=np.arange(c.n_train), thr=np.arange(c.n_train, len(x))))
    bounds = [local_min_max(c.x[c.train]) for c in raws]
    if not per_client:
        bounds = [merge_bounds(bounds)] * len(raws)
    if constant:
        mids = [(b.x_min[:1] + b.x_max[:1]) / 2 for b in bounds]
        bounds = [ScalingBounds(np.r_[m, b.x_min[1:]], np.r_[m, b.x_max[1:]]) for b, m in zip(bounds, mids)]
    with_bounds = [replace(c, bounds=b) for c, b in zip(raws, bounds)]
    prescaled = [replace(c, x=scale(c.x, b)) for c, b in zip(raws, bounds)]
    return with_bounds, prescaled


def _oracle_fleet(k=3, n=16, supervised=True, attack="none", **overrides):
    rng = np.random.default_rng(7)
    features = 4
    arch = (
        ArchitectureSpec("classifier", (3,), features, 1)
        if supervised
        else ArchitectureSpec("autoencoder", (2,), features, features)
    )
    spec = AttackSpec(kind=attack, f=1) if attack != "none" else AttackSpec()
    clients = [
        ClientState(
            f"c{i}",
            rng.uniform(-1.0, 2.0, size=(n, features)),
            np.arange(n),
            rng.integers(0, 2, size=n) if supervised else None,
            attack=spec if i == 1 else AttackSpec(),
            seed=i,
            bounds=identity(features),
        )
        for i in range(k)
    ]
    flat = dict(arch=arch, learning_rate=0.3, batch_size=4, epochs=2, rounds=3, lr_decay=1.0, shuffle=True,
                init_seed=2)
    return clients, flat_config(**{**flat, **overrides})


ORACLE_CASES = {
    "union_step": {},
    "gradient_factor": {"attack": "gradient_factor", "aggregation": AggregationSpec("med")},
    "model_cancel": {"attack": "model_cancel"},
    "multi_epoch_logged": {"algorithm": "multi_epoch", "supervised": False},
    "constant_column": {"constant": True},
    "naive_own_bounds": {"aggregation": None, "per_client": True},
    "partial_last_batch": {"n": 13, "batch_size": 5},
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_raw_rows_with_bounds_train_as_prescaled_rows(case):
    case = dict(case)
    per_client, constant = case.pop("per_client", False), case.pop("constant", False)
    clients, config = _oracle_fleet(**case)
    with_bounds, prescaled = _raw_and_prescaled(clients, per_client, constant)
    with_log = config.aggregation is not None
    expected = _run(run_federated, prescaled, config, with_log)
    assert expected[0] != "error"
    assert _run(run_federated, with_bounds, config, with_log) == expected


@settings(max_examples=100)
@given(
    st.one_of(fleets(infinities=False), fleets(infinities=False, server=False)), st.booleans(), st.booleans()
)
def test_raw_rows_with_bounds_match_prescaled_rows_on_drawn_fleets(fleet, per_client, constant):
    clients, config = fleet
    with_bounds, prescaled = _raw_and_prescaled(clients, per_client, constant)
    with_log = config.aggregation is not None
    with np.errstate(all="ignore"):
        expected = _run(run_federated, prescaled, config, with_log)
        got = _run(run_federated, with_bounds, config, with_log)
    assert got == expected


@pytest.mark.parametrize("supervised", [True, False], ids=["classifier", "autoencoder"])
def test_grid_search_and_thresholds_read_raw_rows_as_prescaled_rows(supervised):
    clients, config = _oracle_fleet(k=2, n=30, supervised=supervised)
    with_bounds, prescaled = _raw_and_prescaled(clients, constant=True)
    grid = [GridPoint(config.arch, 0.0), GridPoint(config.arch, 1e-2)]
    expected = collaborative_grid_search(prescaled, grid, config)
    assert collaborative_grid_search(with_bounds, grid, config) == expected
    if not supervised:
        (model,), _ = run_federated(prescaled, config)
        for raw, scaled in zip(with_bounds, prescaled):
            assert local_threshold(raw, model) == local_threshold(scaled, model)
        assert select_thresholds(with_bounds, model) == select_thresholds(prescaled, model)



@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_indexed_rows_train_as_dense_rows(case):
    case = dict(case)
    per_client, constant = case.pop("per_client", False), case.pop("constant", False)
    clients, config = _oracle_fleet(**case)
    clients, _ = _raw_and_prescaled(clients, per_client, constant)
    indexed, dense = _indexed_and_dense(clients)
    with_log = config.aggregation is not None
    expected = _run(run_federated, dense, config, with_log)
    assert expected[0] != "error"
    assert _run(run_federated, indexed, config, with_log) == expected


@settings(max_examples=100)
@given(st.one_of(fleets(indexed=False), fleets(server=False, indexed=False)), st.integers(0, 3))
def test_indexed_rows_match_dense_rows_on_drawn_fleets(fleet, seed):
    clients, config = fleet
    indexed, dense = _indexed_and_dense(clients, seed)
    with_log = config.aggregation is not None
    with np.errstate(all="ignore"):
        expected = _run(run_federated, dense, config, with_log)
        got = _run(run_federated, indexed, config, with_log)
    assert got == expected


@pytest.mark.parametrize("supervised", [True, False], ids=["classifier", "autoencoder"])
def test_grid_search_and_thresholds_read_indexed_rows_as_dense_rows(supervised):
    clients, config = _oracle_fleet(k=2, n=30, supervised=supervised)
    clients, _ = _raw_and_prescaled(clients, constant=True)
    indexed, dense = _indexed_and_dense(clients)
    grid = [GridPoint(config.arch, 0.0), GridPoint(config.arch, 1e-2)]
    expected = collaborative_grid_search(dense, grid, config)
    assert collaborative_grid_search(indexed, grid, config) == expected
    if not supervised:
        (model,), _ = run_federated(dense, config)
        for rows, dense_rows in zip(indexed, dense):
            assert local_threshold(rows, model) == local_threshold(dense_rows, model)
        assert select_thresholds(indexed, model) == select_thresholds(dense, model)
