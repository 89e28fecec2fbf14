import json
import math
import statistics
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fediot.adversary import AttackSpec
from fediot.aggregation import AggregationSpec
from fediot.dataset import BalanceSpec, DataSource, chronological_split, generate_synthetic_fleet, rebalance
from fediot.errors import ConfigError, PoisonedUpdateError, SchemaError
from fediot.federation import (
    ClientState,
    ConfusionCounts,
    FederationConfig,
    GridPoint,
    RoundLogger,
    ScaledRows,
    TrainingSpec,
    _non_finite_rows,
    build_client,
    collaborative_grid_search,
    confusion_counts,
    evaluate,
    global_threshold,
    local_threshold,
    metrics_from_counts,
    run_federated,
    schedule,
    select_thresholds,
)
from fediot.neuralnet import (
    ArchitectureSpec,
    Backprop,
    ModelParameters,
    backward,
    classifier_preset,
    forward,
    init_model,
    loss,
    mse_per_sample,
    sgd_step,
)
from fediot.preprocess import ScalingBounds, local_min_max, merge_bounds, scale


SCHEDULES = ("mini_batch", "multi_epoch")


def identity(d):
    """Scaling bounds that leave every feature as it is (see test_preprocess)."""
    return ScalingBounds(np.zeros(d), np.ones(d))


def toy_client(cid, n=32, seed=0, d=4, supervised=True, attack=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, d))
    y = rng.integers(0, 2, size=n) if supervised else None
    return ClientState(cid, x, np.arange(n), y, attack=attack or AttackSpec(), seed=seed, bounds=identity(d))


def forbid_training(monkeypatch, clients, config):
    """Make every local step run_federated takes raise, after checking that
    clients under config do reach one, so a rejection under the patch
    comes before the first step and not from a step the loop no longer takes."""

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(Backprop, "__call__", no_training)
    with pytest.raises(AssertionError, match="training started"):
        run_federated(clients, config)


TRAINING_FIELDS = {f.name for f in fields(TrainingSpec)}


def toy_config(d=4, supervised=True, **overrides):
    # Overrides named like a TrainingSpec field go to the training section.
    arch = (
        classifier_preset("A", input_dim=d)
        if supervised
        else ArchitectureSpec("autoencoder", (2,), d, d)
    )
    training = dict(learning_rate=0.1, batch_size=8, epochs=2, rounds=3, lr_decay=1.0, shuffle=False)
    for name in TRAINING_FIELDS & overrides.keys():
        training[name] = overrides.pop(name)
    return FederationConfig(arch=arch, training=TrainingSpec(**training), **overrides)


class TestFleetValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            run_federated([], toy_config())

    def test_unequal_training_sizes_rejected(self):
        clients = [toy_client("a", n=32), toy_client("b", n=16)]
        with pytest.raises(ConfigError, match="equally many"):
            run_federated(clients, toy_config())

    def test_duplicate_ids_rejected(self):
        clients = [toy_client("a"), toy_client("a", seed=1)]
        with pytest.raises(ConfigError, match="duplicate"):
            run_federated(clients, toy_config())

    def test_missing_labels_rejected(self):
        clients = [toy_client("a", supervised=False)]
        with pytest.raises(ConfigError, match="labels"):
            run_federated(clients, toy_config(supervised=True))

    def test_bounds_of_another_width_rejected_before_training(self, monkeypatch):
        fits = local_min_max(toy_client("a").x)
        wide = local_min_max(np.zeros((2, 5)))
        forbid_training(monkeypatch, [replace(toy_client(c, seed=i), bounds=fits) for i, c in enumerate("ab")],
                        toy_config())
        clients = [replace(toy_client("a"), bounds=fits), replace(toy_client("b", seed=1), bounds=wide)]
        with pytest.raises(SchemaError, match="b: scaling bounds for 5 features do not match input_dim 4"):
            run_federated(clients, toy_config())

    @pytest.mark.parametrize("name, rows", [("train", [0, 32]), ("train", [-1, 0]), ("thr", [32]), ("thr", [-1])],
                             ids=["train_past_end", "train_negative", "thr_past_end", "thr_negative"])
    def test_index_outside_the_records_rejected(self, name, rows):
        # Rows are gathered without a bounds check. Unchecked, an index past
        # the end raised a bare IndexError mid-step, and a negative one read
        # silently from the end.
        client = toy_client("a", supervised=False)
        with pytest.raises(SchemaError, match=rf"a: {name} indices must lie in \[0, 32\), got -?\d+ to -?\d+"):
            replace(client, **{name: np.asarray(rows)})

    def test_malicious_count_must_match_f(self):
        attack = AttackSpec(kind="model_cancel", f=2)
        clients = [toy_client("a", attack=attack), toy_client("b", seed=1)]
        with pytest.raises(ConfigError, match="f=2"):
            run_federated(clients, toy_config())

    def test_no_server_takes_no_dropout_model_attack_or_round_hook(self):
        with pytest.raises(ConfigError, match="dropout needs a server"):
            toy_config(aggregation=None, dropout_prob=0.5)
        attack = AttackSpec(kind="gradient_factor", f=1)
        clients = [toy_client("a", attack=attack), toy_client("b", seed=1)]
        with pytest.raises(ConfigError, match="no model attack"):
            run_federated(clients, toy_config(aggregation=None))
        with pytest.raises(ConfigError, match="no on_round hook"):
            run_federated([toy_client("a")], toy_config(aggregation=None), on_round=lambda info, m: None)


class TestMiniBatch:
    def test_aggregation_count_is_epochs_times_ceil_batches(self):
        clients = [toy_client("a", n=20), toy_client("b", n=20, seed=1)]
        seen = []
        config = toy_config(epochs=3, learning_rate=0.1, batch_size=8)
        run_federated(clients, config, on_round=lambda info, m: seen.append(info["round"]))
        assert len(seen) == 3 * math.ceil(20 / 8)
        assert seen == sorted(seen)

    def test_single_client_avg_is_plain_sgd(self):
        client = toy_client("solo", n=40, seed=3)
        config = toy_config(epochs=5, learning_rate=0.2, l2_lambda=1e-4, batch_size=8)
        (got,), _ = run_federated([client], config)
        model = init_model(config.arch, config.init_seed)
        for _ in range(5):
            for start in range(0, 40, 8):
                x = client.x[start : start + 8]
                y = client.y_train[start : start + 8]
                model = sgd_step(model, backward(model, x, y, 1e-4), 0.2)
        np.testing.assert_array_equal(got.flat, model.flat)

    def test_identical_fleets_match_centralized_on_sliced_batches(self):
        # Four clients each hold one quarter of every centralized batch, so
        # averaging their single-step models must reproduce centralized SGD
        # with the full batch.
        rng = np.random.default_rng(9)
        n, d, k, big_b = 48, 3, 4, 8
        x = rng.uniform(0, 1, size=(n, d))
        y = rng.integers(0, 2, size=n)
        small_b = big_b // k
        clients = []
        for part in range(k):
            rows = np.concatenate(
                [np.arange(s + part * small_b, s + (part + 1) * small_b)
                 for s in range(0, n, big_b)]
            )
            # Each client indexes its quarter of the one record array.
            clients.append(ClientState(f"c{part}", x, rows, y[rows], seed=part, bounds=identity(d)))
        config = toy_config(d=d, epochs=4, learning_rate=0.3, batch_size=small_b)
        (federated,), _ = run_federated(clients, config)
        central = init_model(config.arch, config.init_seed)
        for _ in range(4):
            for start in range(0, n, big_b):
                grad = backward(central, x[start : start + big_b], y[start : start + big_b])
                central = sgd_step(central, grad, 0.3)
        np.testing.assert_allclose(federated.flat, central.flat, rtol=0, atol=1e-10)

    def test_deterministic_with_shuffling(self):
        clients = [toy_client("a", seed=5), toy_client("b", seed=6)]
        config = toy_config(shuffle=True)
        (a,), _ = run_federated(clients, config)
        (b,), _ = run_federated(clients, config)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_warm_start_arch_mismatch_rejected(self):
        wrong = init_model(classifier_preset("A", input_dim=7), 0)
        with pytest.raises(ConfigError, match="architecture"):
            run_federated([toy_client("a")], toy_config(), initial_model=wrong)

    def test_dropout_all_rounds_keeps_initial_model(self):
        clients = [toy_client("a"), toy_client("b", seed=1)]
        config = toy_config(dropout_prob=0.999, server_seed=4)
        (got,), _ = run_federated(clients, config)
        init = init_model(config.arch, config.init_seed)
        # With dropout this close to 1 every draw drops both clients here.
        np.testing.assert_array_equal(got.flat, init.flat)

    def test_dropout_depends_on_server_seed(self):
        clients = [toy_client("a"), toy_client("b", seed=1)]
        (a,), _ = run_federated(clients, toy_config(dropout_prob=0.5, server_seed=1))
        (b,), _ = run_federated(clients, toy_config(dropout_prob=0.5, server_seed=2))
        assert not np.array_equal(a.flat, b.flat)

    def test_round_below_the_rule_floor_keeps_the_global_model(self):
        # TM(2) needs 5 models; with dropout some rounds keep fewer, and
        # such a round skips aggregation exactly as a zero-survivor one does.
        clients = [toy_client(f"c{i}", seed=i) for i in range(5)]
        config = toy_config(
            dropout_prob=0.2, server_seed=3, aggregation=AggregationSpec("tm", trim_c=2)
        )
        records = []
        start = init_model(config.arch, config.init_seed)
        run_federated(clients, config, lambda info, m: records.append((info["dropped"], m)))
        previous = start
        for dropped, model in records:
            if dropped:
                np.testing.assert_array_equal(model.flat, previous.flat)
            else:
                assert not np.array_equal(model.flat, previous.flat)
            previous = model
        assert any(d for d, _ in records) and any(not d for d, _ in records)

    def test_fleet_below_the_rule_floor_rejected_before_training(self, monkeypatch):
        config = toy_config(aggregation=AggregationSpec("tm", trim_c=4))
        forbid_training(monkeypatch, [toy_client(f"c{i}", seed=i) for i in range(9)], config)
        clients = [toy_client(f"c{i}", seed=i) for i in range(8)]
        with pytest.raises(ConfigError, match=r"TM\(4\) needs at least 9 clients, got 8"):
            run_federated(clients, config)


class TestMultiEpoch:
    def test_round_count_and_lr_decay(self):
        clients = [toy_client("a"), toy_client("b", seed=1)]
        config = toy_config(algorithm="multi_epoch", rounds=4, learning_rate=0.2, lr_decay=0.9)
        lrs = []
        run_federated(clients, config, on_round=lambda info, m: lrs.append(info["lr"]))
        assert lrs == pytest.approx([0.2 * 0.9**t for t in range(4)])

    def test_single_client_single_round_is_local_training(self):
        client = toy_client("solo", n=24, seed=8)
        config = toy_config(
            algorithm="multi_epoch", rounds=1, epochs=3, learning_rate=0.1, batch_size=8
        )
        (got,), _ = run_federated([client], config)
        model = init_model(config.arch, config.init_seed)
        for _ in range(3):
            for start in range(0, 24, 8):
                x = client.x[start : start + 8]
                y = client.y_train[start : start + 8]
                model = sgd_step(model, backward(model, x, y), 0.1)
        np.testing.assert_array_equal(got.flat, model.flat)

    def test_deterministic(self):
        clients = [toy_client("a", seed=1), toy_client("b", seed=2)]
        config = toy_config(algorithm="multi_epoch", shuffle=True, rounds=2)
        (a,), _ = run_federated(clients, config)
        (b,), _ = run_federated(clients, config)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="gossip"):
            toy_config(algorithm="gossip")


class TestSchedules:
    def test_round_counts(self):
        config = toy_config(epochs=3, rounds=5, batch_size=8)
        assert schedule(config, 20) == (3 * 3, 1)
        assert schedule(replace(config, algorithm="multi_epoch"), 20) == (5, 3 * 3)
        for algorithm in SCHEDULES:  # no server: every step in one round
            assert schedule(replace(config, algorithm=algorithm, aggregation=None), 20) == (1, 3 * 3)

    def test_mini_batch_rate_is_constant(self):
        config = toy_config(learning_rate=0.2, lr_decay=0.5)
        assert [config.lr_at(t) for t in range(3)] == [0.2, 0.2, 0.2]
        multi = replace(config, algorithm="multi_epoch")
        assert [multi.lr_at(t) for t in range(3)] == [0.2, 0.2 * 0.5, 0.2 * 0.5**2]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", -1.0),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("l2_lambda", -0.1),
            ("l2_lambda", math.inf),
            ("batch_size", 0),
            ("lr_decay", 0.0),
            ("lr_decay", 1.5),
            ("epochs", 0),
            ("rounds", 0),
            ("dropout_prob", 1.5),
        ],
    )
    def test_bad_training_values_rejected(self, name, value):
        # TrainingSpec checks the schedule's values, FederationConfig the L2 weight.
        with pytest.raises(ConfigError, match=name):
            if name == "l2_lambda":
                FederationConfig(arch=classifier_preset("A", input_dim=4), l2_lambda=value)
            else:
                TrainingSpec(**{name: value})

    @pytest.mark.parametrize("algorithm", SCHEDULES)
    def test_gradient_factor_flips_the_average_step(self, algorithm):
        # One honest and one malicious client on identical data: the average
        # update must walk exactly opposite to the honest gradient. One batch,
        # one epoch and one round make a single step under either schedule.
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(8, 3))
        y = rng.integers(0, 2, size=8)
        attack = AttackSpec(kind="gradient_factor", f=1)
        clients = [
            ClientState("honest", x, np.arange(len(x)), y, seed=1, bounds=identity(3)),
            ClientState("evil", x, np.arange(len(x)), y, attack=attack, seed=1, bounds=identity(3)),
        ]
        config = toy_config(
            d=3, algorithm=algorithm, epochs=1, rounds=1, learning_rate=0.5, batch_size=8
        )
        (got,), _ = run_federated(clients, config)
        start = init_model(config.arch, config.init_seed)
        grad = backward(start, x, y)
        expected = start.flat + 0.5 * grad
        np.testing.assert_allclose(got.flat, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("algorithm", SCHEDULES)
    def test_model_cancel_zeroes_a_plain_average(self, algorithm):
        # Honest clients echo the model (lr=0); two cancelling clients scale
        # it by -3. Dyadic starting weights keep every product and sum exact,
        # so the average is literally zero in every coordinate.
        arch = classifier_preset("A", input_dim=3)
        rng = np.random.default_rng(0)
        start = ModelParameters(
            arch, rng.integers(-(2**20), 2**20, size=arch.n_parameters) / 1024.0
        )
        attack = AttackSpec(kind="model_cancel", f=2)
        clients = [toy_client(f"h{i}", d=3, seed=i) for i in range(6)]
        clients += [toy_client(f"m{i}", d=3, seed=10 + i, attack=attack) for i in range(2)]
        config = toy_config(
            d=3, algorithm=algorithm, epochs=1, rounds=1, learning_rate=0.0, batch_size=32
        )
        (got,), _ = run_federated(clients, config, initial_model=start)
        assert np.all(got.flat == 0.0)

    @pytest.mark.parametrize("algorithm", SCHEDULES)
    def test_non_finite_update_names_its_client(self, algorithm):
        clients = [toy_client("good"), toy_client("bad", seed=1)]
        clients[1].x[3, 0] = np.inf
        with pytest.raises(PoisonedUpdateError, match="client bad"):
            run_federated(clients, toy_config(algorithm=algorithm))

    def test_non_finite_screen_finds_exactly_the_bad_rows(self):
        # Squares of 1e200 overflow the screen's sum to inf; the exact
        # per-row check must then report only the rows that hold NaN or inf.
        rows = np.full((4, 3), 1e200)
        assert _non_finite_rows(rows).size == 0
        rows[1, 2] = np.nan
        rows[3, 0] = -np.inf
        assert _non_finite_rows(rows).tolist() == [1, 3]
        assert _non_finite_rows(np.zeros((4, 3))).size == 0


class TestThresholds:
    def ae_fixture(self, errors):
        # A client whose reconstruction errors we control via a zero-weight
        # autoencoder: error on row x equals mean(x^2).
        d = 2
        arch = ArchitectureSpec("autoencoder", (2,), d, d)
        model = ModelParameters(arch, np.zeros(arch.n_parameters))
        x_thr = np.sqrt(np.asarray(errors))[:, None] * np.ones(d)
        x = np.concatenate([np.zeros((4, d)), x_thr])
        client = ClientState("c", x, np.arange(4), None, thr=np.arange(4, len(x)), seed=0, bounds=identity(d))
        return client, model

    def test_local_threshold_is_mean_plus_population_std(self):
        client, model = self.ae_fixture([0.1, 0.2, 0.3])
        got = local_threshold(client, model)
        expected = statistics.mean([0.1, 0.2, 0.3]) + statistics.pstdev([0.1, 0.2, 0.3])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sample_std_flag(self):
        client, model = self.ae_fixture([0.1, 0.2, 0.3])
        got = local_threshold(client, model, ddof=1)
        expected = statistics.mean([0.1, 0.2, 0.3]) + statistics.stdev([0.1, 0.2, 0.3])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_global_threshold_averages_locals(self):
        assert global_threshold({"a": 0.2, "b": 0.4}) == pytest.approx(0.3)

    def test_select_thresholds(self):
        client, model = self.ae_fixture([0.5, 0.5])
        threshold = select_thresholds([client], model)
        assert type(threshold) is float
        assert threshold == pytest.approx(0.5)

    def test_missing_threshold_records_rejected(self):
        client = toy_client("a", supervised=False)
        model = init_model(ArchitectureSpec("autoencoder", (2,), 4, 4), 0)
        with pytest.raises(ConfigError):
            local_threshold(client, model)

    def test_detect_is_strict(self):
        # evaluate flags a record only when its error exceeds the threshold.
        d = 2
        arch = ArchitectureSpec("autoencoder", (2,), d, d)
        model = ModelParameters(arch, np.zeros(arch.n_parameters))
        x = np.array([[1.0, 1.0], [2.0, 2.0]])  # errors 1.0 and 4.0
        y = np.array([0, 1])
        assert evaluate(model, 1.0, [(x, y)]) == [ConfusionCounts(tp=1, tn=1)]
        assert evaluate(model, 0.99, [(x, y)]) == [ConfusionCounts(tp=1, fp=1)]
        with pytest.raises(ConfigError, match="threshold"):
            evaluate(model, None, [(x, y)])


class TestMetrics:
    def test_confusion_counts(self):
        y = np.array([1, 1, 0, 0, 1])
        p = np.array([1, 0, 0, 1, 1])
        c = confusion_counts(y, p)
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)

    def test_metrics_formulas(self):
        m = metrics_from_counts(ConfusionCounts(tp=2, tn=1, fp=1, fn=1))
        assert list(m) == ["accuracy", "tpr", "tnr", "f1"]
        assert m["accuracy"] == pytest.approx(3 / 5)
        assert m["tpr"] == pytest.approx(2 / 3)
        assert m["tnr"] == pytest.approx(1 / 2)
        assert m["f1"] == pytest.approx(2 / (2 + 0.5 * 2))

    def test_f1_zero_when_no_true_positives(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, tn=5, fp=0, fn=5))
        assert m["f1"] == 0.0

    def test_constant_positive_predictor_on_imbalanced_data(self):
        # 95 benign / 5 attack, everything flagged: F1 is about 10%.
        m = metrics_from_counts(ConfusionCounts(tp=5, tn=0, fp=95, fn=0))
        assert m["f1"] == pytest.approx(5 / (5 + 0.5 * 95), rel=1e-12)
        assert m["f1"] < 0.10

    def test_evaluate_pools_known_devices(self):
        arch = classifier_preset("A", input_dim=2)
        # Weights and bias make the classifier say attack iff x0 > 0.5.
        params = ModelParameters(arch, np.array([100.0, 0.0, -50.0]))
        x1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        y1 = np.array([1, 0])
        x2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        y2 = np.array([0, 1])  # both wrong on purpose
        got = evaluate(params, None, [(x1, y1), (x2, y2)])
        assert got == [ConfusionCounts(tp=1, tn=1), ConfusionCounts(fp=1, fn=1)]
        pooled = sum(got, ConfusionCounts())
        assert metrics_from_counts(pooled)["accuracy"] == pytest.approx(0.5)

    def test_evaluate_drops_each_set_before_drawing_the_next(self):
        arch = classifier_preset("A", input_dim=2)
        params = ModelParameters(arch, np.array([100.0, 0.0, -50.0]))
        refs, alive = [], []

        def scaled(label):
            alive.append(sum(ref() is not None for ref in refs))
            x = np.array([[1.0, 0.0]])
            refs.append(weakref.ref(x))
            return x, np.array([label])

        got = evaluate(params, None, (scaled(label) for label in (1, 0, 1)))
        assert got == [ConfusionCounts(tp=1), ConfusionCounts(fp=1), ConfusionCounts(tp=1)]
        assert alive == [0, 0, 0]

    def test_evaluate_new_device_scope(self):
        arch = classifier_preset("A", input_dim=2)
        params = ModelParameters(arch, np.array([100.0, 0.0, -50.0]))
        x = np.array([[1.0, 0.0]])
        known, new = evaluate(params, None, [(x, np.array([1])), (x, np.array([0]))])
        assert metrics_from_counts(known)["accuracy"] == 1.0
        assert metrics_from_counts(new)["accuracy"] == 0.0

    def test_metrics_need_records(self):
        with pytest.raises(ConfigError, match="zero records"):
            metrics_from_counts(ConfusionCounts())


class TestBuildClient:
    def fleet(self):
        streams = generate_synthetic_fleet(DataSource(devices=2, samples_per_device=300, feature_dim=5), seed=1)
        parts = [
            rebalance(chronological_split(s, "supervised", f"dev-{i}"), BalanceSpec(0.5, 200), i)
            for i, s in enumerate(streams)
        ]
        bounds = merge_bounds([local_min_max(p.gather("train").features) for p in parts])
        return parts, bounds

    def test_raw_training_rows_read_through_the_bounds(self):
        # The client keeps no scaled copy: its rows are the partition's, and
        # a scaled read of them is scale() bit for bit.
        parts, bounds = self.fleet()
        client = build_client(parts[0], bounds, supervised=True, attack=AttackSpec(), seed=3)
        assert client.x is parts[0].records.features
        assert client.train is parts[0].train
        assert client.bounds is bounds
        expected = scale(parts[0].gather("train").features, bounds)
        assert ScaledRows()(client, client.train).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(client.y_train, parts[0].gather("train").labels)
        assert client.thr is None

    def test_label_flip_attack_poisons_training_labels(self):
        parts, bounds = self.fleet()
        attack = AttackSpec(kind="flip_all", f=1, p_poison=1.0)
        client = build_client(parts[0], bounds, supervised=True, attack=attack, seed=3)
        honest = build_client(parts[0], bounds, supervised=True, attack=AttackSpec(), seed=3)
        np.testing.assert_array_equal(client.y_train, 1 - honest.y_train)
        assert client.x is honest.x and client.train is honest.train

    def test_unsupervised_client_gets_threshold_records(self):
        streams = generate_synthetic_fleet(DataSource(devices=2, samples_per_device=400, feature_dim=5), seed=2)
        part = chronological_split(streams[0], "unsupervised", "dev")
        bounds = local_min_max(part.gather("train").features)
        client = build_client(part, bounds, supervised=False, attack=AttackSpec(), seed=0)
        assert client.thr is part.threshold_sel and client.y_train is None


class TestGridSearch:
    def separable_clients(self, k=2, n=60):
        rng = np.random.default_rng(0)
        clients = []
        for i in range(k):
            y = np.arange(n) % 2
            x = rng.normal(size=(n, 2)) * 0.1 + y[:, None] * 3.0
            clients.append(ClientState(f"c{i}", x, np.arange(n), y, seed=i, bounds=identity(2)))
        return clients

    def xor_clients(self, k=2, n=80):
        # Four tight clusters labelled by quadrant parity: no linear model
        # can beat coin-flip accuracy, one hidden layer solves it.
        rng = np.random.default_rng(0)
        centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
        clients = []
        for i in range(k):
            q = np.arange(n) % 4
            x = centers[q] + rng.normal(size=(n, 2)) * 0.1
            y = (q >= 2).astype(int)
            clients.append(ClientState(f"c{i}", x, np.arange(n), y, seed=i, bounds=identity(2)))
        return clients

    def test_picks_the_clearly_better_point(self):
        clients = self.xor_clients()
        bad = GridPoint(classifier_preset("A", input_dim=2), 0.0)
        good = GridPoint(ArchitectureSpec("classifier", (8,), 2, 1), 0.0)
        config = toy_config(
            d=2, epochs=20, shuffle=True, learning_rate=0.5, batch_size=16
        )
        best, rows = collaborative_grid_search(clients, [bad, good], config)
        assert best == good
        assert len(rows) == 2
        assert rows[0]["mean_score"] == pytest.approx(0.5)
        assert rows[1]["mean_score"] == pytest.approx(1.0)

    def test_tie_keeps_first_point(self):
        clients = self.separable_clients()
        arch = classifier_preset("A", input_dim=2)
        point = GridPoint(arch, 0.0)
        config = toy_config(d=2, epochs=2)
        best, rows = collaborative_grid_search(clients, [point, point], config)
        assert rows[0]["mean_score"] == rows[1]["mean_score"]
        assert best is point

    def test_unsupervised_grid_minimizes_validation_loss(self):
        rng = np.random.default_rng(3)
        clients = [
            ClientState(f"c{i}", rng.uniform(0, 1, size=(50, 3)), np.arange(50), None, seed=i,
                        bounds=identity(3))
            for i in range(2)
        ]
        arch = ArchitectureSpec("autoencoder", (2,), 3, 3)
        good = GridPoint(arch, 0.0)
        bad = GridPoint(arch, 1.0)  # shrinks weights toward zero, finite but useless
        config = toy_config(d=3, supervised=False, epochs=6, learning_rate=0.3, batch_size=10)
        best, rows = collaborative_grid_search(clients, [bad, good], config)
        assert best == good
        assert rows[1]["mean_score"] < rows[0]["mean_score"]

    def test_no_server_grid_takes_one_client_at_a_time(self):
        clients = self.separable_clients()
        point = GridPoint(classifier_preset("A", input_dim=2), 0.0)
        config = toy_config(d=2, aggregation=None)
        with pytest.raises(ConfigError, match="one client at a time, got 2"):
            collaborative_grid_search(clients, [point], config)
        best, rows = collaborative_grid_search(clients[:1], [point], config)
        assert best is point and list(rows[0]["per_client"]) == ["c0"]

    def test_mixed_kind_grid_rejected(self):
        clients = self.separable_clients()
        with pytest.raises(ConfigError):
            collaborative_grid_search(
                clients,
                [
                    GridPoint(classifier_preset("A", input_dim=2), 0.0),
                    GridPoint(ArchitectureSpec("autoencoder", (2,), 2, 2), 0.0),
                ],
                toy_config(d=2),
            )


class TestRoundLogger:
    def test_writes_json_lines(self, tmp_path):
        path = str(tmp_path / "rounds.jsonl")
        clients = [toy_client("a"), toy_client("b", seed=1)]
        with RoundLogger(path) as logger:
            run_federated(clients, toy_config(epochs=1), on_round=logger)
        records = [json.loads(line) for line in open(path)]
        assert len(records) == math.ceil(32 / 8)
        assert {"round", "epoch", "lr", "client_losses", "dropped"} <= set(records[0])
        assert set(records[0]["client_losses"]) == {"a", "b"}
