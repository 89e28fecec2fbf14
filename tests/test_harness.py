import copy
import json
import os
import signal
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from fediot.adversary import AttackSpec
from fediot.aggregation import AggregationSpec, reduce_rows
from fediot.dataset import (
    BalanceSpec,
    Fleet,
    generate_synthetic_fleet,
    load_device_csv,
)
from fediot import cli
from fediot.errors import ConfigError, PoisonedUpdateError
from fediot.federation import build_client, evaluate, run_federated
from fediot.harness import (
    DataSource,
    ExperimentConfig,
    _federation_config,
    _run_cell,
    attack_sweep,
    config_from_dict,
    config_to_dict,
    cost_table,
    _fleet,
    _repetitions,
    derive_seed,
    human_bytes,
    load_config,
    load_profile,
    model_size_bytes,
    profile_names,
    report,
    run_experiment,
    summarize,
)
from fediot.neuralnet import (
    AUTOENCODER_HIDDEN,
    CLASSIFIER_HIDDEN,
    autoencoder_preset,
    classifier_preset,
    classify,
    init_model,
)
from fediot.preprocess import local_min_max


def tiny_dict(**overrides):
    raw = {
        "name": "tiny",
        "mode": "supervised",
        "approach": "federated",
        "data": {"source": "synthetic", "devices": 3, "samples_per_device": 300, "feature_dim": 5},
        "balance": {"benign_fraction": 0.5, "samples_per_device": 300},
        "model": {"preset": "A"},
        "training": {"learning_rate": 0.3, "batch_size": 8, "epochs": 2},
        "protocol": {"folds": "all", "repetitions": 1, "master_seed": 3},
    }
    raw.update(overrides)
    return raw


def tiny_config(**overrides):
    return config_from_dict(tiny_dict(**overrides))


@pytest.fixture
def one_worker(monkeypatch):
    # Every cell runs in the test's own process, where the functions the
    # test patches count its calls.
    monkeypatch.setattr("fediot.harness._workers", lambda: 1)


@pytest.fixture
def two_workers(monkeypatch):
    # Cells are dealt to the test's process and one forked worker.
    monkeypatch.setattr("fediot.harness._workers", lambda: 2)


def _snapshot(bundle):
    # Every file of a bundle by its relative path, with its bytes.
    files = {}
    for root, _, names in os.walk(bundle):
        for name in names:
            with open(os.path.join(root, name), "rb") as handle:
                files[os.path.relpath(os.path.join(root, name), bundle)] = handle.read()
    return files


class TestConfigParsing:
    def test_defaults_fill_in(self):
        config = tiny_config()
        assert config.algorithm == "mini_batch"
        assert config.aggregation == AggregationSpec("avg")
        assert config.attack == AttackSpec()
        assert config.balance == BalanceSpec(0.5, 300)
        assert config.training.lr_decay == 0.9
        assert config.report.model_bytes is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(tiny_dict(extras={}))

    def test_unknown_section_key_rejected(self):
        raw = tiny_dict()
        raw["training"]["learning_rat"] = 0.1
        with pytest.raises(ConfigError, match="training"):
            config_from_dict(raw)

    def test_missing_section_rejected(self):
        raw = tiny_dict()
        del raw["balance"]
        with pytest.raises(ConfigError, match="balance"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, key", [
        ("aggregation", "rule"),
        ("balance", "samples_per_device"),
        ("balance", "benign_fraction"),
    ])
    def test_missing_required_section_key_rejected(self, section, key):
        # Built with cls(**values), such a section raised TypeError.
        raw = tiny_dict()
        raw.setdefault(section, {}).pop(key, None)
        with pytest.raises(ConfigError, match=rf"^config is missing {section}\.{key}$"):
            config_from_dict(raw)

    @pytest.mark.parametrize("where, value", [
        ("aggregation", 3),
        ("balance", None),
        ("training", [1]),
        ("model", "B"),
        ("model.grid", ["B"]),
    ])
    def test_section_that_is_no_object_rejected(self, where, value):
        # dict(value) raised TypeError or ValueError for these.
        raw = tiny_dict()
        *parents, name = where.split(".")
        target = raw
        for part in parents:
            target = target.setdefault(part, {})
        target[name] = value
        with pytest.raises(ConfigError, match=rf"^{where} must be a JSON object$"):
            config_from_dict(raw)

    def test_roundtrip_through_dict(self):
        config = tiny_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_roundtrip_with_grid_and_overrides(self):
        raw = tiny_dict()
        raw["model"] = {"grid": {"presets": ["A", "B"], "l2_values": [0, 1e-4]}}
        raw["report"] = {"model_bytes": 94000, "sample_std": True}
        raw["training"]["learning_rate"] = 1
        raw["data"]["benign_spread"] = 2
        config = config_from_dict(raw)
        assert config.model.grid.presets == ("A", "B")
        assert config.report.sample_std is True
        echoed = config_to_dict(config)
        # An int given for a float key, in any section, echoes as a float.
        assert json.dumps(echoed["training"]["learning_rate"]) == "1.0"
        assert json.dumps(echoed["data"]["benign_spread"]) == "2.0"
        assert json.dumps(echoed["model"]["grid"]["l2_values"]) == "[0.0, 0.0001]"
        assert config_from_dict(echoed) == config

    @pytest.mark.parametrize("grid", [False, True], ids=["no-grid", "grid"])
    def test_echo_writes_every_key_once(self, grid):
        # Every section's echoed keys, pinned so that a dropped or renamed
        # key fails here; model.grid appears only with a grid.
        raw = tiny_dict()
        if grid:
            raw["model"] = {"grid": {"presets": ["A", "B"], "l2_values": [0, 1e-4]}}
        echoed = config_to_dict(config_from_dict(raw))
        expected = {
            "name": None, "mode": None, "approach": None, "algorithm": None,
            "data": {"source", "devices", "samples_per_device", "feature_dim", "benign_fraction",
                     "attack_patterns", "benign_spread", "attack_shift", "noise_sigma", "path",
                     "schema", "has_header"},
            "balance": {"benign_fraction", "samples_per_device"},
            "model": {"preset", "l2_lambda", *(["grid"] if grid else [])},
            "training": {"learning_rate", "batch_size", "epochs", "rounds", "lr_decay", "shuffle",
                         "dropout_prob", "log_rounds"},
            "aggregation": {"rule", "trim_c", "resample_s"},
            "attack": {"kind", "f", "p_poison", "colluding"},
            "protocol": {"folds", "repetitions", "master_seed"},
            "report": {"sample_std", "model_bytes"},
        }
        assert {k: set(v) if isinstance(v, dict) else None for k, v in echoed.items()} == expected
        if grid:
            assert set(echoed["model"]["grid"]) == {"presets", "l2_values"}

    def test_attack_needs_federated_approach(self):
        raw = tiny_dict(approach="centralized")
        raw["attack"] = {"kind": "model_cancel", "f": 1}
        with pytest.raises(ConfigError, match="federated"):
            config_from_dict(raw)

    @pytest.mark.parametrize("approach", ["naive", "centralized"])
    def test_dropout_needs_federated_approach(self, approach):
        # Without a server a dropped round would throw a local step away.
        raw = tiny_dict(approach=approach)
        raw["training"]["dropout_prob"] = 0.5
        with pytest.raises(ConfigError, match="dropout need the federated approach"):
            config_from_dict(raw)

    def test_label_flip_needs_supervised_mode(self):
        raw = tiny_dict(mode="unsupervised")
        raw["attack"] = {"kind": "flip_all", "f": 1}
        with pytest.raises(ConfigError, match="supervised"):
            config_from_dict(raw)

    def test_empty_fold_list_rejected(self):
        with pytest.raises(ConfigError, match="folds"):
            tiny_config(protocol={"folds": []})

    def test_fold_named_twice_rejected(self):
        # Otherwise the cell trains twice and its device counts double in summary.csv.
        with pytest.raises(ConfigError, match=r"more than once: \['dev-0'\]"):
            tiny_config(protocol={"folds": ["dev-0", "dev-1", "dev-0"]})

    @pytest.mark.parametrize(
        "name", ["a.partial", "a.old", "a.sweep", "", ".", "..", "a/b", "../escaped", "a\\b"]
    )
    def test_staging_suffix_in_name_rejected(self, name):
        # Running config "a" would clear a bundle named like its staging
        # directory as a leftover. A name that is no plain directory name
        # would put the bundle at the results directory itself or outside it.
        reason = "staging" if name.endswith((".partial", ".old", ".sweep")) else "not a plain directory name"
        with pytest.raises(ConfigError, match=reason):
            tiny_config(name=name)

    def test_half_specified_grid_rejected(self):
        raw = tiny_dict()
        raw["model"] = {"grid": {"presets": ["A"], "l2_values": []}}
        with pytest.raises(ConfigError, match="grid"):
            config_from_dict(raw)

    def test_manifest_source_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            tiny_config(data={"source": "manifest"})

    @pytest.mark.parametrize("key, value", [
        ("attack_patterns", 0),
        ("samples_per_device", 0),
        ("benign_fraction", 0.0),
        ("benign_fraction", 1.0),
        ("benign_fraction", 1.5),
        ("benign_fraction", -0.2),
        ("benign_fraction", float("nan")),
        ("noise_sigma", -1.0),
        ("noise_sigma", float("nan")),
        ("benign_spread", -0.5),
        ("benign_spread", float("nan")),
        ("attack_shift", float("nan")),
        ("attack_shift", float("inf")),
        ("benign_spread", float("inf")),
        ("noise_sigma", float("inf")),
    ])
    def test_bad_synthetic_fleet_rejected_at_load(self, key, value):
        # Unchecked, each of these fails deep inside fleet generation,
        # rebalancing or training, or runs to a wrong bundle: a negative
        # noise_sigma flips the noise, and a NaN attack_shift zeroes every
        # scaled feature.
        raw = tiny_dict()
        raw["data"][key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    def test_negative_attack_shift_loads(self):
        # A negative shift moves the attack records the other way: valid geometry.
        assert tiny_config(data={**tiny_dict()["data"], "attack_shift": -4.0}).data.attack_shift == -4.0

    @pytest.mark.parametrize("section, key, value", [
        ("training", "learning_rate", json.loads("1e309")),
        ("model", "l2_lambda", json.loads("1e309")),
        ("model", "grid", {"presets": ["A"], "l2_values": [0.0, json.loads("1e309")]}),
    ], ids=["learning_rate", "l2_lambda", "grid_l2"])
    def test_infinite_training_value_rejected_at_load(self, section, key, value):
        # JSON reads 1e309 as infinity. Loaded, each ran until the first
        # client update overflowed, and the PoisonedUpdateError blamed it.
        raw = tiny_dict()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match="(learning_rate|l2_lambda) must be finite"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [("benign_spread", 1e308), ("noise_sigma", 1e308)])
    def test_overflowing_synthetic_fleet_rejected_naming_data(self, tmp_path, key, value):
        # The value is finite, so it loads. Drawn, the fleet overflowed
        # float64 and the run died with a PoisonedUpdateError that blamed
        # client dev-1 for a non-finite gradient.
        raw = tiny_dict()
        raw["data"][key] = value
        with pytest.raises(ConfigError, match=r"data: dev-\d draws non-finite features"):
            run_experiment(config_from_dict(raw), str(tmp_path))

    @pytest.mark.parametrize("value", [2**53 + 1, json.loads("1" + "0" * 400)], ids=["2**53+1", "10**400"])
    def test_model_bytes_beyond_exact_float_rejected_at_load(self, value):
        # The cost tables print bytes through float. Loaded, 10**400 ran,
        # and `fediot report` then died with an OverflowError in human_bytes.
        raw = tiny_dict()
        raw["report"] = {"model_bytes": value}
        with pytest.raises(ConfigError, match=r"model_bytes must be a positive integer of at most 2\*\*53"):
            config_from_dict(raw)
        raw["report"] = {"model_bytes": 2**53}
        assert config_from_dict(raw).report.model_bytes == 2**53

    def test_training_section_reaches_the_federation_config_whole(self):
        config = tiny_config()
        assert _federation_config(config, 0, "dev-0").training is config.training

    @pytest.mark.parametrize("section, key, value", [
        ("training", "shuffle", "false"),
        ("report", "sample_std", "no"),
        ("training", "batch_size", 8.9),
        ("training", "learning_rate", True),
        ("data", "has_header", "false"),
        ("data", "devices", 3.0),
        ("attack", "f", "1"),
        ("protocol", "folds", ["dev-0", 1]),
        ("report", "model_bytes", 9.5),
        ("", "name", 3),
    ])
    def test_value_of_wrong_type_rejected_at_load(self, section, key, value):
        # Coerced, "false" read as True, 8.9 as 8, and a has_header of
        # "false" made load_device_csv drop every file's first record.
        raw = tiny_dict()
        (raw.setdefault(section, {}) if section else raw)[key] = value
        where = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=rf"^{where} must be"):
            config_from_dict(raw)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_dict()))
        assert load_config(str(path)) == tiny_config()

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_every_packaged_profile_parses(self):
        names = profile_names()
        assert {"supervised-50", "supervised-95", "unsupervised", "adversarial-95"} <= set(names)
        for name in names:
            config = load_profile(name)
            assert config.name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            load_profile("nope")


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 1, "fleet") == derive_seed(0, 1, "fleet")

    def test_distinct_roles(self):
        seeds = {derive_seed(0, 0, role) for role in ("fleet", "init", "server", "client")}
        assert len(seeds) == 4

    def test_range(self):
        s = derive_seed(12345, "x")
        assert 0 <= s < 2**64


class TestRunExperiment:
    def test_fold_times_repetition_shape(self, tmp_path):
        config = tiny_config(protocol={"folds": "all", "repetitions": 2, "master_seed": 0})
        result = run_experiment(config, str(tmp_path))
        # 3 devices x 2 reps x 2 scopes
        assert len(result.rows) == 12
        assert {r["fold"] for r in result.rows} == {"dev-0", "dev-1", "dev-2"}
        assert {r["repetition"] for r in result.rows} == {0, 1}
        assert {r["scope"] for r in result.rows} == {"known", "new_device"}
        # per-device breakdown: K=2 training devices per cell
        assert len(result.device_rows) == 3 * 2 * 2

    def test_bundle_files_written(self, tmp_path):
        result = run_experiment(tiny_config(), str(tmp_path))
        names = sorted(os.listdir(result.path))
        assert names == ["config.json", "devices.csv", "runs.csv", "summary.csv", "timing.json"]
        echoed = load_config(os.path.join(result.path, "config.json"))
        assert echoed == result.config

    def test_deterministic_result_files(self, tmp_path):
        config = tiny_config()
        a = run_experiment(config, str(tmp_path / "a"))
        b = run_experiment(config, str(tmp_path / "b"))
        for name in ("runs.csv", "devices.csv", "summary.csv"):
            with open(os.path.join(a.path, name), "rb") as fa, \
                 open(os.path.join(b.path, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_master_seed_changes_results(self, tmp_path):
        a = run_experiment(tiny_config(), str(tmp_path / "a"))
        raw = tiny_dict(protocol={"folds": "all", "repetitions": 1, "master_seed": 99})
        b = run_experiment(config_from_dict(raw), str(tmp_path / "b"))
        assert a.rows != b.rows

    def test_all_approaches_produce_both_scopes(self, tmp_path):
        for approach in ("naive", "federated", "centralized"):
            config = tiny_config(name=f"t-{approach}", approach=approach)
            result = run_experiment(config, str(tmp_path))
            assert {r["scope"] for r in result.rows} == {"known", "new_device"}
            for row in result.rows:
                for metric in ("accuracy", "tpr", "tnr", "f1"):
                    assert 0.0 <= row[metric] <= 1.0

    def test_aggregation_count_matches_loop_arithmetic(self, tmp_path):
        config = tiny_config()
        result = run_experiment(config, str(tmp_path))
        # 300 samples -> train part 237, rebalanced to floor(0.79*300) = 237;
        # 2 epochs x ceil(237 / 8) = 60 aggregations.
        assert all(r["aggregations"] == 60 for r in result.rows)
        assert all(r["n_train"] == 237 for r in result.rows)

    def test_aggregations_counted_only_for_federated_cells(self, tmp_path):
        for approach, expected in (("federated", 3), ("centralized", 0), ("naive", 0)):
            raw = tiny_dict(name=f"t-{approach}", approach=approach, algorithm="multi_epoch")
            raw["training"]["rounds"] = 3
            result = run_experiment(config_from_dict(raw), str(tmp_path))
            assert all(r["aggregations"] == expected for r in result.rows), approach

    def test_dropout_under_trimmed_mean_runs_to_the_end(self, tmp_path, monkeypatch):
        # K=6 under TM(2): rounds that keep 1-4 of 6 clients keep the model
        # and are not counted as aggregations; 6 of the 60 rounds aggregate.
        calls = []

        def counting(*args):
            calls.append(1)
            return reduce_rows(*args)

        monkeypatch.setattr("fediot.federation.reduce_rows", counting)
        raw = tiny_dict(aggregation={"rule": "tm", "trim_c": 2})
        raw["data"]["devices"] = 7
        raw["training"]["dropout_prob"] = 0.5
        raw["protocol"]["folds"] = ["dev-0"]
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        assert len(calls) == 6
        assert all(r["aggregations"] == len(calls) for r in result.rows)

    @pytest.mark.parametrize("approach", ["naive", "centralized"])
    def test_single_client_groups_ignore_the_rule(self, tmp_path, approach):
        # Without a server nothing is aggregated, whatever the rule.
        plain = run_experiment(tiny_config(approach=approach), str(tmp_path / "avg"))
        for rule in ({"rule": "tm", "trim_c": 1}, {"rule": "med", "resample_s": 2}):
            config = tiny_config(approach=approach, aggregation=rule)
            assert run_experiment(config, str(tmp_path / rule["rule"])).rows == plain.rows

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("approach, fleet", [("naive", 2), ("federated", 2), ("centralized", 1)])
    def test_one_training_call_per_cell(self, tmp_path, monkeypatch, approach, fleet):
        # 3 devices, 3 cells of 2 training devices each.
        calls = []

        def counting(clients, *args, **kwargs):
            calls.append(len(clients))
            return run_federated(clients, *args, **kwargs)

        monkeypatch.setattr("fediot.harness.run_federated", counting)
        result = run_experiment(tiny_config(approach=approach), str(tmp_path))
        assert calls == [fleet] * 3
        expected = 60 if approach == "federated" else 0
        assert all(r["aggregations"] == expected for r in result.rows)

    @pytest.mark.usefixtures("one_worker")
    def test_naive_grid_trains_once_per_distinct_winner(self, tmp_path, monkeypatch):
        # dev-1 picks preset B, every other device preset A: each cell of 3
        # training devices trains one fleet per winner, and each device
        # scores as the same cell without a grid at its winner's preset.
        def pick(clients, grid, config):
            (client,) = clients
            return grid[1 if client.client_id == "dev-1" else 0], []

        calls = []

        def counting(clients, fed_config, *args):
            calls.append((fed_config.arch.hidden_layers, [c.client_id for c in clients]))
            return run_federated(clients, fed_config, *args)

        monkeypatch.setattr("fediot.harness.collaborative_grid_search", pick)
        monkeypatch.setattr("fediot.harness.run_federated", counting)
        raw = tiny_dict(approach="naive")
        raw["data"]["devices"] = 4
        raw["model"] = {"preset": "A", "grid": {"presets": ["A", "B"], "l2_values": [0.0]}}
        raw["protocol"]["folds"] = ["dev-0", "dev-2"]
        grid_rows = run_experiment(config_from_dict(raw), str(tmp_path / "grid")).device_rows
        a, b = CLASSIFIER_HIDDEN["A"], CLASSIFIER_HIDDEN["B"]
        assert calls == [(b, ["dev-1"]), (a, ["dev-2", "dev-3"]), (a, ["dev-0", "dev-3"]), (b, ["dev-1"])]
        for preset, devices in (("A", {"dev-0", "dev-2", "dev-3"}), ("B", {"dev-1"})):
            raw["model"] = {"preset": preset}
            rows = run_experiment(config_from_dict(raw), str(tmp_path / preset)).device_rows
            assert [r for r in rows if r["device_id"] in devices] == [
                r for r in grid_rows if r["device_id"] in devices
            ]

    def test_no_client_loss_without_round_logs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("fediot.federation.loss", lambda *a: calls.append(a) or 0.0)
        run_experiment(tiny_config(), str(tmp_path))
        assert calls == []
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        run_experiment(config_from_dict(raw), str(tmp_path))
        assert calls

    def test_unsupervised_end_to_end(self, tmp_path):
        raw = tiny_dict(mode="unsupervised")
        raw["data"]["samples_per_device"] = 600
        raw["balance"] = {"benign_fraction": 0.5, "samples_per_device": 600}
        raw["training"] = {"learning_rate": 0.05, "batch_size": 8, "epochs": 3}
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        assert len(result.rows) == 6

    def test_logged_unsupervised_cell_scores_with_the_last_round_threshold(self, tmp_path, monkeypatch):
        # The last logged round's model is the final one, so the threshold
        # the cell scores with is the one its last round-log line shows.
        raw = tiny_dict(mode="unsupervised", algorithm="multi_epoch")
        raw["data"]["samples_per_device"] = 600
        raw["balance"] = {"benign_fraction": 0.5, "samples_per_device": 600}
        raw["training"].update(rounds=3, log_rounds=True)
        raw["protocol"]["folds"] = ["dev-0"]
        scored = []

        def scoring(model, threshold, tests):
            scored.append(threshold)
            return evaluate(model, threshold, tests)

        monkeypatch.setattr("fediot.harness.evaluate", scoring)
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        with open(os.path.join(result.path, "rounds", "fold-dev-0-rep-0.jsonl")) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 3 and scored == [records[-1]["threshold"]]

    def test_round_logs_written_when_enabled(self, tmp_path):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        raw["protocol"]["folds"] = ["dev-0"]
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        logs = os.listdir(os.path.join(result.path, "rounds"))
        assert logs == ["fold-dev-0-rep-0.jsonl"]
        with open(os.path.join(result.path, "rounds", logs[0])) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 60
        assert {"round", "lr", "client_losses"} <= set(records[0])

    def test_rerun_drops_round_logs_of_unrun_folds(self, tmp_path):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        raw["protocol"]["folds"] = ["dev-0", "dev-1"]
        run_experiment(config_from_dict(raw), str(tmp_path))
        raw["protocol"]["folds"] = ["dev-0"]
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        assert os.listdir(os.path.join(result.path, "rounds")) == ["fold-dev-0-rep-0.jsonl"]

    def test_rerun_without_round_logs_leaves_no_trajectory(self, tmp_path):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        report(run_experiment(config_from_dict(raw), str(tmp_path)).path, "csv")
        result = run_experiment(tiny_config(), str(tmp_path))
        assert not os.path.exists(os.path.join(result.path, "rounds"))
        files = report(result.path, "csv")
        assert {os.path.basename(f) for f in files} == {"metrics.csv", "cost.csv"}
        assert not os.path.exists(os.path.join(result.path, "trajectory.csv"))

    def test_rerun_replaces_rendered_reports(self, tmp_path):
        bundle = run_experiment(tiny_config(), str(tmp_path)).path
        report(bundle, "md")
        report(bundle, "csv")
        raw = tiny_dict(protocol={"folds": "all", "repetitions": 1, "master_seed": 99})
        run_experiment(config_from_dict(raw), str(tmp_path))
        assert sorted(os.listdir(bundle)) == [
            "config.json", "devices.csv", "runs.csv", "summary.csv", "timing.json",
        ]
        assert sorted(os.listdir(tmp_path)) == ["tiny"]

    @pytest.mark.usefixtures("one_worker")
    def test_interrupted_rerun_leaves_the_earlier_bundle(self, tmp_path, monkeypatch):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        raw["protocol"]["folds"] = ["dev-0", "dev-1"]
        bundle = run_experiment(config_from_dict(raw), str(tmp_path)).path
        before = _snapshot(bundle)
        assert len([name for name in before if name.startswith("rounds/")]) == 2

        calls = []

        def fail_in_second_cell(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return run_federated(*args, **kwargs)

        monkeypatch.setattr("fediot.harness.run_federated", fail_in_second_cell)
        raw["protocol"]["master_seed"] = 99
        with pytest.raises(RuntimeError, match="interrupted"):
            run_experiment(config_from_dict(raw), str(tmp_path))
        assert _snapshot(bundle) == before
        assert sorted(os.listdir(tmp_path)) == ["tiny"]

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize(
        "approach, per_cell", [("federated", 3), ("naive", 4), ("centralized", 3)]
    )
    def test_each_test_set_predicted_once_per_group(self, tmp_path, monkeypatch, approach, per_cell):
        # 3 devices: a cell trains on 2 and holds 1 out. Each group of
        # training devices classifies its known test sets and the held-out one.
        calls = []

        def counting(model, x):
            calls.append(x)
            return classify(model, x)

        monkeypatch.setattr("fediot.federation.classify", counting)
        run_experiment(tiny_config(approach=approach), str(tmp_path))
        assert len(calls) == 3 * per_cell

    def test_too_many_attackers_rejected(self, tmp_path):
        raw = tiny_dict()
        raw["attack"] = {"kind": "model_cancel", "f": 2}  # only K=2 clients
        with pytest.raises(ConfigError, match="f=2"):
            run_experiment(config_from_dict(raw), str(tmp_path))

    def test_unknown_fold_device_rejected(self, tmp_path):
        config = tiny_config(protocol={"folds": ["dev-9"]})
        with pytest.raises(ConfigError, match="dev-9"):
            run_experiment(config, str(tmp_path))

    def test_missing_manifest_rejected(self, tmp_path):
        config = tiny_config(data={"source": "manifest", "path": "/nope/fleet.csv"})
        with pytest.raises(ConfigError, match="manifest"):
            run_experiment(config, str(tmp_path))

    def test_grid_search_configured(self, tmp_path):
        raw = tiny_dict()
        raw["model"] = {"grid": {"presets": ["A"], "l2_values": [0.0, 1e-4]}}
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        assert len(result.rows) == 6

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("training", "learning_rate", -1),
            ("training", "learning_rate", float("nan")),
            ("training", "batch_size", 0),
            ("training", "epochs", 0),
            ("training", "dropout_prob", 1.5),
            ("training", "lr_decay", 0.0),
            ("model", "preset", "Z"),
            ("model", "grid", {"presets": ["A", "Z"], "l2_values": [0.0]}),
            ("model", "grid", {"presets": ["A"], "l2_values": [-1.0]}),
            ("report", "model_bytes", -5),
            ("report", "model_bytes", 0),
            ("report", "model_bytes", True),
            ("report", "model_bytes", 1.5),
            ("report", "model_bytes", "abc"),
        ],
        ids=[
            "learning_rate", "learning_rate_nan", "batch_size", "epochs",
            "dropout_prob", "lr_decay", "preset", "grid_preset", "grid_l2",
            "model_bytes_negative", "model_bytes_zero", "model_bytes_bool",
            "model_bytes_float", "model_bytes_str",
        ],
    )
    def test_bad_rerun_rejected_before_the_bundle_is_touched(self, tmp_path, section, key, value):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        raw["protocol"]["folds"] = ["dev-0"]
        bundle = run_experiment(config_from_dict(raw), str(tmp_path)).path
        before = _snapshot(bundle)
        assert "rounds/fold-dev-0-rep-0.jsonl" in before
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError):
            run_experiment(config_from_dict(raw), str(tmp_path))
        assert _snapshot(bundle) == before

    def test_results_env_var_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDIOT_RESULTS_DIR", str(tmp_path / "env"))
        result = run_experiment(tiny_config())
        assert result.path.startswith(str(tmp_path / "env"))


class TestFleetMemory:
    """Which copies of the fleet an op holds, seen through weak references."""

    def test_fleet_split_device_by_device(self):
        # Each device is split on its labels, then drawn into its range of
        # the fleet's record array one at a time: at most one device's raw
        # stream lives beside the array. A device whose parts leave records
        # unnamed (unsupervised) is drawn whole into a temporary and
        # gathered; one that names every record is drawn in place.
        stream_bytes = 2000 * 64 * 8
        for mode in ("supervised", "unsupervised"):
            raw = tiny_dict(mode=mode)
            raw["data"].update(devices=6, samples_per_device=2000, feature_dim=64)
            raw["balance"]["samples_per_device"] = 2000
            config = config_from_dict(raw)
            _fleet(config, 0, None)  # warm caches, as a later repetition finds them
            tracemalloc.start()
            try:
                fleet = _fleet(config, 0, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = fleet.records.features.nbytes
            assert all(np.shares_memory(p.records.features, fleet.records.features) for p in fleet.values())
            assert peak < held + 1.5 * stream_bytes, mode

    def test_one_repetition_fleet_held_at_a_time(self, tmp_path, monkeypatch):
        # Each repetition's record array, and every device's view of it,
        # are gone before the next repetition's fleet is drawn.
        refs, alive = [], []

        def drawing(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return generate_synthetic_fleet(*args, **kwargs)

        def tracked(*args):
            partitions = _fleet(*args)
            refs.append(weakref.ref(partitions.records.features))
            refs.extend(weakref.ref(p.records.features) for p in partitions.values())
            return partitions

        monkeypatch.setattr("fediot.harness.generate_synthetic_fleet", drawing)
        monkeypatch.setattr("fediot.harness._fleet", tracked)
        protocol = {"folds": ["dev-0"], "repetitions": 2, "master_seed": 3}
        run_experiment(tiny_config(protocol=protocol), str(tmp_path))
        assert len(refs) == 8 and alive == [0, 0]

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("approach", ["naive", "federated", "centralized"])
    def test_bounds_read_the_fleet_records_in_place(self, tmp_path, monkeypatch, approach):
        # Each training device's scaling bounds are taken over its train rows
        # of the fleet's record array, not over a gathered copy of them.
        fleets, shared = [], []

        def tracked(*args):
            partitions = _fleet(*args)
            fleets.append(partitions.records.features)
            return partitions

        def bounding(features, rows):
            shared.append(np.shares_memory(features, fleets[-1]))
            return local_min_max(features, rows)

        monkeypatch.setattr("fediot.harness._fleet", tracked)
        monkeypatch.setattr("fediot.harness.local_min_max", bounding)
        run_experiment(tiny_config(approach=approach), str(tmp_path))
        assert shared == [True] * 6  # 3 cells of 2 training devices

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_centralized_pool_holds_only_what_training_reads(self, tmp_path, monkeypatch, mode):
        # The pooled client of each cell reads the fleet's record array
        # itself, and names each distinct train and threshold record of the
        # training devices: no test or unused record, which the cell reads
        # from the devices' own partitions. Building the pool allocates
        # only index arrays, no feature row.
        fleets, distinct, pooled, peaks = [], [], [], []
        pool = Fleet.pool

        def cell(config, partitions, fold, *args):
            fleets.append(partitions.records.features)
            distinct.append(sum(
                np.unique(np.concatenate([p.train] + ([] if p.threshold_sel is None else [p.threshold_sel]))).size
                for device, p in partitions.items()
                if device != fold
            ))
            return _run_cell(config, partitions, fold, *args)

        def pooling(*args):
            tracemalloc.start()
            try:
                partition = pool(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return partition

        def building(partition, *args):
            client = build_client(partition, *args)
            named = np.concatenate([client.train] + ([] if client.thr is None else [client.thr]))
            pooled.append((client.x, np.unique(named).size, partition.unused.size + partition.test.size))
            return client

        monkeypatch.setattr("fediot.harness._run_cell", cell)
        monkeypatch.setattr(Fleet, "pool", pooling)
        monkeypatch.setattr("fediot.harness.build_client", building)
        raw = tiny_dict(approach="centralized", mode=mode)
        raw["data"]["samples_per_device"] = raw["balance"]["samples_per_device"] = 600
        raw["data"]["feature_dim"] = 115  # a feature row is 920 bytes, an index 8
        run_experiment(config_from_dict(raw), str(tmp_path))
        assert len(pooled) == len(peaks) == 3
        for (x, named, others), fleet, want, peak in zip(pooled, fleets, distinct, peaks):
            assert x is fleet and named == want and others == 0
            assert peak < 0.1 * want * x.shape[1] * 8

    @pytest.mark.parametrize("profile, approach, bound", [
        ("unsupervised", "federated", 0.94),
        ("supervised-50", "federated", 1.4),
        ("supervised-50", "centralized", 1.17),
    ], ids=["unsupervised", "supervised-50", "supervised-50-centralized"])
    def test_traced_peak_below_1_4_fleets(self, tmp_path, profile, approach, bound):
        # The fleet is measured dense-equivalent: every part row as one
        # float64 feature row, duplicates included. An op holds each
        # distinct record once, and besides the records only the training
        # buffers and one gathered, scaled test set at a time. Measured:
        # unsupervised 0.88 (its upsampled benign parts repeat records; 1.30
        # when parts held copies, 0.94 when every device's raw stream was
        # drawn before the first was split), supervised-50 1.17 (1.26 when
        # every gather buffered its out array). A centralized cell's pooled
        # client indexes the fleet's record array: 1.11 (1.79 when the pool
        # gathered its devices' train records into an array of its own,
        # 2.49 when each device was compacted before pooling). The
        # unsupervised and centralized bounds are the ratio plus a margin
        # of 0.06. tracemalloc counts Python-level allocations, so the ratio
        # does not depend on how the allocator hands memory back.
        raw = config_to_dict(load_profile(profile))
        raw["approach"] = approach
        raw["data"]["samples_per_device"] = raw["balance"]["samples_per_device"] = 800
        raw["model"]["preset"] = "A"
        raw["algorithm"] = "multi_epoch"
        raw["training"].update(epochs=1, rounds=2, log_rounds=True)
        raw["protocol"] = {"folds": ["dev-0"], "repetitions": 1, "master_seed": 0}
        config = config_from_dict(raw)
        _, partitions, _ = next(_repetitions(config))
        # The dense-equivalent fleet: every part row as one float64 feature row.
        fleet = sum(
            part.size * p.records.features.shape[1] * 8
            for p in partitions.values()
            for part in (p.train, p.unused, p.test, p.threshold_sel)
            if part is not None
        )
        del partitions
        run_experiment(config, str(tmp_path))  # warm caches, as a second op finds them
        tracemalloc.start()
        try:
            run_experiment(config, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / fleet <= bound


class TestSummarize:
    def test_mean_min_max(self):
        rows = [
            {"scope": "known", "accuracy": 0.8, "tpr": 1.0, "tnr": 0.6, "f1": 0.8},
            {"scope": "known", "accuracy": 0.6, "tpr": 0.8, "tnr": 0.4, "f1": 0.6},
        ]
        out = summarize(rows)
        acc = next(r for r in out if r["metric"] == "accuracy")
        assert acc["mean"] == pytest.approx(0.7)
        assert acc["min"] == 0.6
        assert acc["max"] == 0.8
        assert acc["runs"] == 2


class TestAttackSweep:
    def sweep_config(self, **overrides):
        raw = tiny_dict(**overrides)
        raw["data"]["devices"] = 7  # K=6 so TM(2) keeps 2 models
        return config_from_dict(raw)

    def test_row_shape(self, tmp_path):
        result = attack_sweep(self.sweep_config(), [0, 1], str(tmp_path))
        # 5 rules x (1 baseline + 5 attack kinds)
        assert len(result.rows) == 30
        rules = {r["rule"] for r in result.rows}
        assert rules == {"AVG", "MED", "TM(1)", "TM(2)", "2-RS+TM(2)"}
        baseline = [r for r in result.rows if r["f"] == 0]
        assert len(baseline) == 5
        assert all(r["attack"] == "none" for r in baseline)
        assert all(r["min_f1"] <= r["mean_f1"] <= r["max_f1"] for r in result.rows)

    def test_bundle_files(self, tmp_path):
        result = attack_sweep(self.sweep_config(), [0], str(tmp_path))
        assert sorted(os.listdir(result.path)) == ["config.json", "sweep.csv"]

    def test_empty_f_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            attack_sweep(self.sweep_config(), [], str(tmp_path))

    def test_f_at_least_client_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="f=6"):
            attack_sweep(self.sweep_config(), [0, 6], str(tmp_path))

    def test_repeated_f_rejected(self, tmp_path):
        # Accepted, each f=1 cell ran twice and wrote its rows twice.
        with pytest.raises(ConfigError, match="f=1 is listed more than once"):
            attack_sweep(self.sweep_config(), [1, 0, 1], str(tmp_path))

    def test_non_federated_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="federated"):
            attack_sweep(self.sweep_config(approach="centralized"), [0], str(tmp_path))

    def test_unsupervised_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="supervised"):
            attack_sweep(self.sweep_config(mode="unsupervised"), [0], str(tmp_path))

    def test_too_few_clients_for_trim_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="TM"):
            attack_sweep(tiny_config(), [0], str(tmp_path))

    def test_fleet_built_once_per_repetition(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return generate_synthetic_fleet(*args, **kwargs)

        monkeypatch.setattr("fediot.harness.generate_synthetic_fleet", counting)
        config = self.sweep_config(protocol={"folds": ["dev-0"], "repetitions": 2, "master_seed": 3})
        result = attack_sweep(config, [0, 1], str(tmp_path))
        assert all(r["runs"] == 2 for r in result.rows)
        assert calls == [derive_seed(3, 0, "fleet"), derive_seed(3, 1, "fleet")]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_and_dealt(monkeypatch, run, workers=2):
    # run() once with every cell in this process and once dealt to workers.
    monkeypatch.setattr("fediot.harness._workers", lambda: 1)
    serial = run("serial")
    monkeypatch.setattr("fediot.harness._workers", lambda: workers)
    dealt = run("dealt")
    _no_child_left()
    return serial, dealt


def _failing_in(monkeypatch, folds, fail):
    # run_federated calls fail(fold) in the cells that hold out one of folds.
    def training(clients, *args, **kwargs):
        fold = next(f for f in ("dev-0", "dev-1", "dev-2") if f not in {c.client_id for c in clients})
        if fold in folds:
            fail(fold)
        return run_federated(clients, *args, **kwargs)

    monkeypatch.setattr("fediot.harness.run_federated", training)


class TestParallelCells:
    """A repetition's cells dealt across forked workers give the serial bundle."""

    @pytest.fixture(autouse=True)
    def time_bound(self):
        # A caller left waiting on a worker fails the test instead of hanging it.
        def overdue(*_):
            raise TimeoutError("the cell workers did not finish within 120 s")

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_dealt_experiment_bundle_is_the_serial_one(self, tmp_path, monkeypatch, mode):
        raw = tiny_dict(mode=mode, protocol={"folds": "all", "repetitions": 2, "master_seed": 5})
        raw["training"]["log_rounds"] = True

        def run(name):
            bundle = run_experiment(config_from_dict(raw), str(tmp_path / name)).path
            files = _snapshot(bundle)
            del files["timing.json"]
            return files

        serial, dealt = _serial_and_dealt(monkeypatch, run)
        assert len([name for name in serial if name.startswith("rounds/")]) == 6
        assert dealt == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_dealt_sweep_bundle_is_the_serial_one(self, tmp_path, monkeypatch, workers):
        # 4 workers on a host with fewer CPUs share them, and deal 60 jobs unevenly.
        raw = tiny_dict(protocol={"folds": ["dev-0", "dev-3"], "repetitions": 2, "master_seed": 5})
        raw["data"]["devices"] = 7

        def run(name):
            return _snapshot(attack_sweep(config_from_dict(raw), [0, 1], str(tmp_path / name)).path)

        serial, dealt = _serial_and_dealt(monkeypatch, run, workers)
        assert dealt == serial

    def test_failure_in_a_worker_is_the_serial_failure(self, tmp_path, monkeypatch):
        # dev-1's cell is job 1 of 3, dealt to the forked worker.
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        bundle = run_experiment(config_from_dict(raw), str(tmp_path)).path
        before = _snapshot(bundle)

        def fail(fold):
            raise PoisonedUpdateError(f"cell {fold} failed in process {os.getpid()}")

        _failing_in(monkeypatch, {"dev-1"}, fail)
        raw["protocol"]["master_seed"] = 99
        errors = []

        def run(name):
            with pytest.raises(PoisonedUpdateError) as caught:
                run_experiment(config_from_dict(raw), str(tmp_path))
            errors.append(caught.value)
            assert _snapshot(bundle) == before
            assert sorted(os.listdir(tmp_path)) == ["tiny"]

        _serial_and_dealt(monkeypatch, run)
        serial, dealt = (str(e).rsplit(" ", 1) for e in errors)
        assert serial[0] == dealt[0] == "cell dev-1 failed in process"
        assert serial[1] == str(os.getpid()) != dealt[1]  # the dealt one failed in the worker
        assert type(errors[0]) is type(errors[1])

    @pytest.mark.parametrize("folds, first", [({"dev-1", "dev-2"}, "dev-1"), ({"dev-0", "dev-1"}, "dev-0")],
                             ids=["worker-first", "caller-first"])
    def test_lowest_failing_job_wins(self, tmp_path, monkeypatch, two_workers, folds, first):
        # Jobs 0 and 2 run in the calling process, job 1 in the worker.
        def fail(fold):
            raise ConfigError(f"cell {fold} failed")

        _failing_in(monkeypatch, folds, fail)
        with pytest.raises(ConfigError, match=f"^cell {first} failed$"):
            run_experiment(tiny_config(), str(tmp_path))
        _no_child_left()

    def test_killed_worker_raises_naming_its_jobs(self, tmp_path, monkeypatch, two_workers):
        caller = os.getpid()

        def die(fold):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)

        _failing_in(monkeypatch, {"dev-1"}, die)
        with pytest.raises(RuntimeError, match=r"cell worker 1 \(jobs \[1\]\) was killed by SIGKILL"):
            run_experiment(tiny_config(), str(tmp_path))
        _no_child_left()
        assert sorted(os.listdir(tmp_path)) == []

    def test_interrupt_kills_and_reaps_the_workers(self, tmp_path, monkeypatch, two_workers):
        # The caller is interrupted in its own cell while the worker is still
        # busy in dev-1's: the worker is killed, not waited for.
        caller = os.getpid()

        def interrupt(fold):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        _failing_in(monkeypatch, {"dev-0", "dev-1"}, interrupt)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(), str(tmp_path))
        assert time.monotonic() - started < 30
        _no_child_left()
        assert sorted(os.listdir(tmp_path)) == []

    def test_one_cell_runs_in_the_calling_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked for one cell")

        monkeypatch.setattr("os.fork", no_fork)
        run_experiment(tiny_config(protocol={"folds": ["dev-0"], "repetitions": 2}), str(tmp_path))


def test_collapsed_average_holds_no_subnormal_weight(tmp_path, monkeypatch):
    # Under AVG one model canceller drives the global model toward zero
    # through subnormal floats, and every operation on a subnormal takes the
    # CPU's slow path: such a round cost about 15 ms against 1 ms. Each
    # aggregated model now flushes them to zero. Before, 16 of this run's 198
    # rounds held subnormal coordinates, up to 13,455 of 13,456.
    subnormal = []

    def training(clients, config, on_round=None, initial_model=None):
        def counting(info, model):
            w = np.abs(model.flat)
            subnormal.append(int(np.count_nonzero((w > 0) & (w < np.finfo(w.dtype).tiny))))

        return run_federated(clients, config, counting, initial_model)

    monkeypatch.setattr("fediot.harness.run_federated", training)
    raw = config_to_dict(load_profile("adversarial-95"))
    raw["data"].update(samples_per_device=1000, benign_fraction=0.5, benign_spread=0.5, attack_shift=8.0,
                       noise_sigma=0.5)
    raw["balance"] = {"benign_fraction": 0.5, "samples_per_device": 1000}
    raw["training"].update(learning_rate=0.1, batch_size=8, epochs=2)
    raw["protocol"] = {"folds": ["dev-0"], "repetitions": 1, "master_seed": 3}
    result = run_experiment(config_from_dict(raw), str(tmp_path))
    assert len(subnormal) == 198 and max(subnormal) == 0
    assert all(row["f1"] == 0.0 for row in result.rows)  # the canceller still wins


def manifest_config(tmp_path, **overrides):
    """A config reading a 9-device fleet written by `fediot synth`."""
    raw = tiny_dict()
    raw["data"]["devices"] = 9
    source = tmp_path / "fleet.json"
    source.write_text(json.dumps(raw))
    fleet = tmp_path / "fleet"
    assert cli.main(["synth", str(source), "--out", str(fleet)]) == 0
    raw["data"] = {"source": "manifest", "path": str(fleet / "manifest.csv"), "schema": 5}
    return config_from_dict({**raw, **overrides})


class TestManifestFleetSize:
    def test_manifest_files_read_once_for_all_repetitions(self, tmp_path, monkeypatch):
        calls = []

        def counting(path, *args, **kwargs):
            calls.append(path)
            return load_device_csv(path, *args, **kwargs)

        monkeypatch.setattr("fediot.dataset.load_device_csv", counting)
        protocol = {"folds": ["dev-0"], "repetitions": 2, "master_seed": 3}
        result = run_experiment(manifest_config(tmp_path, protocol=protocol), str(tmp_path))
        assert {r["repetition"] for r in result.rows} == {0, 1}
        assert len(calls) == len(set(calls)) == 18

    def test_cost_table_counts_manifest_devices(self, tmp_path):
        rows = cost_table(manifest_config(tmp_path))  # mini_batch B=8, 8 clients
        assert rows[1]["algorithm"] == "multi_epoch"
        assert rows[1]["batch_size"] == 64

    def test_one_device_manifest_rejected_by_run_and_sweep(self, tmp_path):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        (fleet / "benign.csv").write_text("0.1,0.2,0.3,0.4,0.5\n" * 200)
        (fleet / "attack.csv").write_text("0.9,0.8,0.7,0.6,0.5\n" * 200)
        (fleet / "manifest.csv").write_text("dev-0,benign.csv,benign\ndev-0,attack.csv,attack\n")
        raw = tiny_dict(data={"source": "manifest", "path": str(fleet / "manifest.csv"), "schema": 5})
        config = config_from_dict(raw)
        with pytest.raises(ConfigError, match="at least 2 devices"):
            run_experiment(config, str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="at least 2 devices"):
            attack_sweep(config, [0], str(tmp_path / "out"))
        assert not os.path.exists(tmp_path / "out" / "tiny.partial")

    def test_sweep_rejects_f_of_fleet_size_before_training(self, tmp_path, monkeypatch):
        config = manifest_config(tmp_path)

        def fail(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("fediot.harness.run_federated", fail)
        with pytest.raises(ConfigError, match="f=8"):
            attack_sweep(config, [0, 8], str(tmp_path))


class TestCostTable:
    def test_full_scale_supervised_arithmetic(self):
        rows = cost_table(load_profile("full-scale-supervised"))
        mini = next(r for r in rows if r["algorithm"] == "mini_batch")
        multi = next(r for r in rows if r["algorithm"] == "multi_epoch")
        assert mini["transmissions"] == 39500
        assert mini["local_steps"] == 39500
        assert multi["transmissions"] == 30
        assert multi["local_steps"] == 148080
        assert multi["total_bytes"] == 2820000
        assert multi["traffic"] == "2.82 MB"
        assert mini["traffic"] == "3.71 GB"

    def test_full_scale_unsupervised_arithmetic(self):
        rows = cost_table(load_profile("full-scale-unsupervised"))
        mini = next(r for r in rows if r["algorithm"] == "mini_batch")
        multi = next(r for r in rows if r["algorithm"] == "multi_epoch")
        assert mini["transmissions"] == 59280
        assert multi["local_steps"] == 223200
        assert multi["traffic"] == "810 kB"

    def test_batch_sizes_scale_with_client_count(self):
        config = tiny_config()  # mini_batch B=8, 2 clients
        rows = cost_table(config)
        assert rows[0]["batch_size"] == 8
        assert rows[1]["batch_size"] == 16

    def test_measured_model_size_without_override(self):
        # One upload is the float64 parameter vector a round sends.
        archs = [classifier_preset(name) for name in CLASSIFIER_HIDDEN]
        archs += [autoencoder_preset(name) for name in AUTOENCODER_HIDDEN]
        for arch in archs:
            assert model_size_bytes(arch) == 8 * init_model(arch, 0).flat.size
        assert model_size_bytes(archs[0], 94000) == 94000

    def test_human_bytes(self):
        assert human_bytes(999) == "999 B"
        assert human_bytes(810000) == "810 kB"
        assert human_bytes(2820000) == "2.82 MB"
        assert human_bytes(1600560000) == "1.6 GB"
        # A value that rounds to 1000 carries to the next unit.
        assert human_bytes(999_500) == "1 MB"
        assert human_bytes(999_999_999) == "1 GB"


class TestReport:
    def test_markdown_report(self, tmp_path):
        result = run_experiment(tiny_config(), str(tmp_path))
        files = report(result.path, "md")
        assert files == [os.path.join(result.path, "report.md")]
        text = open(files[0]).read()
        assert "Detection metrics" in text
        assert "Per-client cost" in text
        assert "| known | accuracy |" in text

    def test_csv_report(self, tmp_path):
        result = run_experiment(tiny_config(), str(tmp_path))
        files = report(result.path, "csv")
        names = {os.path.basename(f) for f in files}
        assert names == {"metrics.csv", "cost.csv"}

    def test_trajectory_from_round_logs(self, tmp_path):
        raw = tiny_dict()
        raw["training"]["log_rounds"] = True
        raw["protocol"]["folds"] = ["dev-0"]
        result = run_experiment(config_from_dict(raw), str(tmp_path))
        files = report(result.path, "csv")
        trajectory = [f for f in files if f.endswith("trajectory.csv")]
        assert trajectory
        import csv as csv_module
        with open(trajectory[0]) as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 60
        assert rows[0]["fold"] == "dev-0"
        assert float(rows[0]["mean_loss"]) > 0

    def test_sweep_rerun_replaces_rendered_reports(self, tmp_path):
        raw = tiny_dict()
        raw["data"]["devices"] = 7
        raw["protocol"]["folds"] = ["dev-0"]
        bundle = attack_sweep(config_from_dict(raw), [0], str(tmp_path)).path
        report(bundle, "md")
        report(bundle, "csv")
        attack_sweep(config_from_dict(raw), [0], str(tmp_path))
        assert sorted(os.listdir(bundle)) == ["config.json", "sweep.csv"]
        assert sorted(os.listdir(tmp_path)) == ["tiny.sweep"]

    def test_sweep_leaves_a_run_bundle_of_the_same_stem_alone(self, tmp_path):
        raw = tiny_dict(name="tiny-sweep")
        raw["data"]["devices"] = 7
        raw["protocol"]["folds"] = ["dev-0"]
        run = run_experiment(config_from_dict(raw), str(tmp_path))
        before = _snapshot(run.path)
        raw["name"] = "tiny"
        sweep = attack_sweep(config_from_dict(raw), [0], str(tmp_path))
        assert sweep.path != run.path
        assert _snapshot(run.path) == before
        assert sorted(os.listdir(tmp_path)) == ["tiny-sweep", "tiny.sweep"]

    def test_sweep_report(self, tmp_path):
        raw = tiny_dict()
        raw["data"]["devices"] = 7
        result = attack_sweep(config_from_dict(raw), [0], str(tmp_path))
        files = report(result.path, "csv")
        names = {os.path.basename(f) for f in files}
        assert names == {"f1_vs_f.csv", "cost.csv"}
        md = report(result.path, "md")
        assert "F1 by attack" in open(md[0]).read()

    def test_empty_bundle_yields_header_only_tables(self, tmp_path):
        bundle = tmp_path / "empty"
        bundle.mkdir()
        with open(bundle / "config.json", "w") as handle:
            json.dump(config_to_dict(tiny_config()), handle)
        with open(bundle / "summary.csv", "w") as handle:
            handle.write("scope,metric,mean,min,max,runs\n")
        files = report(str(bundle), "csv")
        with open(os.path.join(str(bundle), "metrics.csv")) as handle:
            assert handle.read().strip() == "scope,metric,mean,min,max,runs"

    def test_unknown_format_rejected(self, tmp_path):
        result = run_experiment(tiny_config(), str(tmp_path))
        with pytest.raises(ConfigError, match="format"):
            report(result.path, "pdf")

    def test_non_bundle_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bundle"):
            report(str(tmp_path), "md")
