"""End-to-end acceptance checks for the complete pipeline.

Each test exercises one system-level guarantee, from exact aggregation
arithmetic up to full fleet experiments, and re-derives its expected
values through an independent route before asserting at the stated
tolerance. Fleet runs pin their master seed, so every figure checked
here is reproducible bit for bit. `pytest -v` prints one pass/fail
line per guarantee.
"""
import os
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from fediot.adversary import AttackSpec, alpha_cancel, alpha_gradient
from fediot.aggregation import AggregationSpec, average, coordinate_median, trimmed_mean
from fediot.dataset import BalanceSpec
from fediot.federation import (
    ClientState,
    FederationConfig,
    global_threshold,
    local_threshold,
    run_federated,
)
from fediot.harness import (
    DataSource,
    ExperimentConfig,
    ModelSpec,
    ProtocolSpec,
    TrainingSpec,
    cost_table,
    load_profile,
    run_experiment,
)
from fediot.neuralnet import (
    ModelParameters,
    autoencoder_preset,
    backward,
    classifier_preset,
    init_model,
    loss,
    mse_per_sample,
    sgd_step,
)
from fediot.preprocess import ScalingBounds

FIVE_MINUTES = 300.0


def identity(d):
    """Scaling bounds that leave every feature as it is (see test_preprocess)."""
    return ScalingBounds(np.zeros(d), np.ones(d))


def scope_mean(rows, scope, key):
    return float(np.mean([row[key] for row in rows if row["scope"] == scope]))


def fleet_config(**overrides):
    data_fields = dict(
        source="synthetic",
        devices=9,
        samples_per_device=5000,
        feature_dim=115,
        benign_fraction=0.5,
    )
    data_fields.update(overrides.pop("data", {}))
    data = DataSource(**data_fields)
    balance = overrides.pop(
        "balance", BalanceSpec(data.benign_fraction, data.samples_per_device)
    )
    training = dict(learning_rate=0.05, batch_size=8, epochs=4)
    training.update(overrides.pop("training", {}))
    defaults = dict(
        name="acceptance",
        mode="supervised",
        approach="federated",
        data=data,
        balance=balance,
        model=ModelSpec("B"),
        training=TrainingSpec(**training),
        protocol=ProtocolSpec(folds=("dev-0",), repetitions=5, master_seed=0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_aggregation_rules_match_sort_oracles():
    # 1,000 random fleets, every rule against a plain sort-and-slice oracle.
    # Medians must match bit for bit; the two mean routes may differ only by
    # accumulated rounding.
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        k = int(rng.integers(3, 10))
        arch = classifier_preset("A", input_dim=int(rng.integers(1, 65)))
        stacked = rng.normal(0.0, 10.0, size=(k, arch.n_parameters))
        srt = np.sort(stacked, axis=0)

        got_avg = average(stacked)
        np.testing.assert_allclose(
            got_avg, stacked.sum(axis=0) / k, rtol=1e-12, atol=1e-12
        )

        got_med = coordinate_median(stacked.copy())
        middle = srt[k // 2] if k % 2 else (srt[k // 2 - 1] + srt[k // 2]) / 2
        np.testing.assert_array_equal(got_med, middle)

        trim_c = int(rng.integers(1, (k - 1) // 2 + 1))
        got_tm = trimmed_mean(stacked, trim_c)
        kept = srt[trim_c : k - trim_c]
        np.testing.assert_allclose(
            got_tm, kept.sum(axis=0) / kept.shape[0], rtol=1e-12, atol=1e-12
        )
    assert time.perf_counter() - start < 10.0


def test_attack_coefficients_satisfy_their_identities():
    # The gradient factor must turn the mean update multiplier into exactly
    # -1, and the cancellation factor must zero the sum of weights.
    start = time.perf_counter()
    for k in range(2, 65):
        for f in range(1, k):
            grad_mult = (f * alpha_gradient(k, f) + (k - f)) / k
            assert abs(grad_mult + 1.0) <= 1e-12
            cancel_sum = (f * alpha_cancel(k, f) + (k - f)) / k
            assert abs(cancel_sum) <= 1e-12
    assert alpha_gradient(8, 1) == -15.0
    assert alpha_gradient(8, 2) == -7.0
    assert alpha_gradient(8, 3) == -13 / 3
    assert alpha_cancel(8, 1) == -7.0
    assert alpha_cancel(8, 2) == -3.0
    assert alpha_cancel(8, 3) == -5 / 3
    assert time.perf_counter() - start < 1.0


def test_every_preset_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    archs = [classifier_preset(p) for p in "ABCD"]
    archs += [autoencoder_preset(p) for p in "ABC"]
    x = rng.uniform(0.0, 1.0, size=(8, 115))
    y = rng.integers(0, 2, size=8)
    for arch in archs:
        labels = y if arch.kind == "classifier" else None
        params = init_model(arch, 11)
        coords = rng.choice(arch.n_parameters, size=100, replace=False)
        for l2_lambda in (0.0, 1e-4):
            analytic = backward(params, x, labels, l2_lambda)[coords]
            numeric = np.empty(100)
            eps = 1e-5
            for j, c in enumerate(coords):
                plus, minus = params.flat.copy(), params.flat.copy()
                plus[c] += eps
                minus[c] -= eps
                hi = loss(ModelParameters(arch, plus), x, labels, l2_lambda)
                lo = loss(ModelParameters(arch, minus), x, labels, l2_lambda)
                numeric[j] = (hi - lo) / (2 * eps)
            scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            assert float(np.max(np.abs(analytic - numeric) / scale)) < 1e-4
    assert time.perf_counter() - start < 30.0


def test_degenerate_federation_reduces_to_plain_sgd():
    # One client behind plain averaging is local SGD, bit for bit, and a
    # fleet holding aligned slices of every batch reproduces centralized
    # SGD on the full batch, bit for bit too: its union batch is the
    # centralized batch row for row.
    rng = np.random.default_rng(13)
    arch = classifier_preset("A", input_dim=6)
    x = rng.uniform(0.0, 1.0, size=(80, 6))
    y = rng.integers(0, 2, size=80)
    config = FederationConfig(
        arch=arch,
        training=TrainingSpec(learning_rate=0.2, batch_size=8, epochs=10, shuffle=False),
        l2_lambda=1e-4,
    )
    (solo,), _ = run_federated([ClientState("solo", x, np.arange(len(x)), y, bounds=identity(6))], config)
    model = init_model(arch, config.init_seed)
    steps = 0
    for _ in range(10):
        for lead in range(0, 80, 8):
            grad = backward(model, x[lead : lead + 8], y[lead : lead + 8], 1e-4)
            model = sgd_step(model, grad, 0.2)
            steps += 1
    assert steps == 100
    np.testing.assert_array_equal(solo.flat, model.flat)

    arch = classifier_preset("A", input_dim=3)
    n, k, big_b = 80, 4, 8
    small_b = big_b // k
    x = rng.uniform(0.0, 1.0, size=(n, 3))
    y = rng.integers(0, 2, size=n)
    clients = []
    for part in range(k):
        rows = np.concatenate(
            [
                np.arange(lead + part * small_b, lead + (part + 1) * small_b)
                for lead in range(0, n, big_b)
            ]
        )
        # Each client indexes its quarter of the one record array.
        clients.append(ClientState(f"c{part}", x, rows, y[rows], bounds=identity(3)))
    config = FederationConfig(
        arch=arch, training=TrainingSpec(learning_rate=0.3, batch_size=small_b, epochs=5, shuffle=False)
    )
    (federated,), _ = run_federated(clients, config)
    central = init_model(arch, config.init_seed)
    aggregations = 0
    for _ in range(5):
        for lead in range(0, n, big_b):
            grad = backward(central, x[lead : lead + big_b], y[lead : lead + big_b])
            central = sgd_step(central, grad, 0.3)
            aggregations += 1
    assert aggregations == 50
    np.testing.assert_array_equal(federated.flat, central.flat)


def test_model_cancellation_averages_to_exact_zero():
    # Weights on the 1/1024 grid keep every scaled copy and partial sum
    # exact, so with honest clients echoing the model the average must be
    # the literal zero vector, not merely a small one.
    rng = np.random.default_rng(3)
    arch = classifier_preset("A", input_dim=3)
    start = ModelParameters(
        arch, rng.integers(-(2**20), 2**20, size=arch.n_parameters) / 1024.0
    )
    assert np.any(start.flat != 0.0)
    for f in (1, 2):
        attack = AttackSpec(kind="model_cancel", f=f)
        clients = []
        for i in range(8 - f):
            x = rng.uniform(0.0, 1.0, size=(8, 3))
            y = rng.integers(0, 2, size=8)
            clients.append(ClientState(f"h{i}", x, np.arange(8), y, bounds=identity(3)))
        for i in range(f):
            x = rng.uniform(0.0, 1.0, size=(8, 3))
            y = rng.integers(0, 2, size=8)
            clients.append(ClientState(f"m{i}", x, np.arange(8), y, attack=attack, bounds=identity(3)))
        config = FederationConfig(
            arch=arch, training=TrainingSpec(learning_rate=0.0, batch_size=8, epochs=1, shuffle=False)
        )
        (got,), _ = run_federated(clients, config, initial_model=start)
        assert np.all(got.flat == 0.0)


def test_federation_closes_the_gap_to_centralized_training(tmp_path):
    # Eight collaborating clients against one held-out device: federated
    # accuracy on known devices must sit within two points of centralized
    # training, and isolated training must generalize worse to the new
    # device than the federation does.
    start = time.perf_counter()
    results = {}
    for approach in ("federated", "centralized", "naive"):
        config = fleet_config(name=f"benefit-{approach}", approach=approach)
        results[approach] = run_experiment(config, str(tmp_path)).rows
    fed_known = scope_mean(results["federated"], "known", "accuracy")
    cen_known = scope_mean(results["centralized"], "known", "accuracy")
    assert abs(fed_known - cen_known) <= 0.02
    naive_new = scope_mean(results["naive"], "new_device", "accuracy")
    fed_new = scope_mean(results["federated"], "new_device", "accuracy")
    assert naive_new < fed_new
    assert time.perf_counter() - start < FIVE_MINUTES


def test_median_aggregation_survives_model_cancellation(tmp_path):
    # Mostly-benign traffic, one cancelling client out of eight. Plain
    # averaging must collapse into the constant-predictor regime while the
    # coordinate-wise median keeps the detector working.
    start = time.perf_counter()
    cancel = AttackSpec(kind="model_cancel", f=1)
    shared = dict(
        data=dict(benign_fraction=0.95, attack_shift=8.0,
                  benign_spread=0.5, noise_sigma=0.5),
        balance=BalanceSpec(0.95, 5000),
        training=dict(learning_rate=0.1, batch_size=64, epochs=20),
    )
    cells = {
        "honest": fleet_config(name="attack-honest", **shared),
        "avg": fleet_config(name="attack-avg", attack=cancel, **shared),
        "med": fleet_config(
            name="attack-med", attack=cancel, aggregation=AggregationSpec("med"), **shared
        ),
    }
    f1 = {
        label: scope_mean(run_experiment(cfg, str(tmp_path)).rows, "known", "f1")
        for label, cfg in cells.items()
    }
    assert f1["honest"] >= 0.80
    assert f1["avg"] <= 0.15
    assert f1["med"] >= 0.80
    assert time.perf_counter() - start < FIVE_MINUTES


def test_threshold_protocol_flags_anomalies(tmp_path):
    # Local thresholds against a mean-plus-std oracle, the global threshold
    # as an exact average, then a trained fleet catching held-out attacks.
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    model = init_model(autoencoder_preset("A"), 0)
    x_thr = rng.uniform(0.0, 1.0, size=(40, 115))
    rows = np.arange(40)
    client = ClientState("t", x_thr, rows, None, thr=rows, bounds=identity(115))
    errors = [float(e) for e in mse_per_sample(model, x_thr)]
    population = statistics.mean(errors) + statistics.pstdev(errors)
    assert local_threshold(client, model) == pytest.approx(population, rel=1e-12)
    sample = statistics.mean(errors) + statistics.stdev(errors)
    assert local_threshold(client, model, ddof=1) == pytest.approx(sample, rel=1e-12)

    # Eight dyadic locals make the true mean representable, so the global
    # threshold can be compared against exact rational arithmetic.
    locals_ = {f"c{i}": (i + 3) / 8 for i in range(8)}
    exact = float(sum(Fraction(v) for v in locals_.values()) / 8)
    assert global_threshold(locals_) == exact

    config = fleet_config(
        name="anomaly",
        mode="unsupervised",
        model=ModelSpec("A"),
        training=dict(learning_rate=0.02, epochs=15),
        data=dict(attack_shift=10.0, benign_spread=0.25),
    )
    rows = run_experiment(config, str(tmp_path)).rows
    assert scope_mean(rows, "new_device", "tpr") >= 0.95
    # Guard against a degenerate flag-everything threshold.
    assert scope_mean(rows, "known", "tnr") >= 0.5
    assert time.perf_counter() - start < FIVE_MINUTES


def test_cost_model_reproduces_recorded_traffic_figures():
    supervised = cost_table(load_profile("full-scale-supervised"))
    mini = next(r for r in supervised if r["algorithm"] == "mini_batch")
    multi = next(r for r in supervised if r["algorithm"] == "multi_epoch")
    assert mini["local_steps"] == 39500
    assert multi["local_steps"] == 148080
    assert multi["transmissions"] == 30
    assert multi["total_bytes"] == 30 * 94000 == 2820000
    assert multi["traffic"] == "2.82 MB"

    unsupervised = cost_table(load_profile("full-scale-unsupervised"))
    mini = next(r for r in unsupervised if r["algorithm"] == "mini_batch")
    multi = next(r for r in unsupervised if r["algorithm"] == "multi_epoch")
    assert mini["local_steps"] == 59280
    assert multi["local_steps"] == 223200
    assert multi["transmissions"] == 30


@pytest.mark.skipif(
    "FEDIOT_NBAIOT_MANIFEST" not in os.environ,
    reason="real traffic captures not present; set FEDIOT_NBAIOT_MANIFEST",
)
def test_real_traffic_reproduction_when_available(tmp_path):
    # Needs an ingested manifest of the public IoT botnet captures. Kept
    # out of the default run because the download is multi-gigabyte.
    manifest = os.environ["FEDIOT_NBAIOT_MANIFEST"]
    data = DataSource(source="manifest", path=manifest, schema=115)
    supervised = ExperimentConfig(
        name="real-supervised",
        mode="supervised",
        approach="federated",
        data=data,
        balance=BalanceSpec(0.0787, 5000),
        model=ModelSpec("B"),
        training=TrainingSpec(learning_rate=0.05, batch_size=8, epochs=4),
        protocol=ProtocolSpec(folds=("dev-0",), repetitions=1, master_seed=0),
    )
    rows = run_experiment(supervised, str(tmp_path)).rows
    assert scope_mean(rows, "known", "accuracy") >= 0.995

    unsupervised = ExperimentConfig(
        name="real-unsupervised",
        mode="unsupervised",
        approach="federated",
        algorithm="multi_epoch",
        data=data,
        balance=BalanceSpec(0.5, 5000),
        model=ModelSpec("C"),
        training=TrainingSpec(learning_rate=0.01, batch_size=8, epochs=120, rounds=30),
        protocol=ProtocolSpec(folds=("dev-0",), repetitions=1, master_seed=0),
    )
    rows = run_experiment(unsupervised, str(tmp_path)).rows
    assert scope_mean(rows, "new_device", "tnr") >= 0.90
