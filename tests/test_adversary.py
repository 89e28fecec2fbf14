import math

import numpy as np
import pytest

from fediot.adversary import (
    AttackSpec,
    alpha_cancel,
    alpha_gradient,
    cancel_update,
    flip_labels,
    malicious_ids,
)
from fediot.errors import ConfigError, SchemaError
from fediot.neuralnet import ModelParameters, classifier_preset


def labels_of(values):
    return np.asarray(values, dtype=np.int64)


class TestAlphaFactors:
    def test_reference_values_for_eight_clients(self):
        assert alpha_gradient(8, 1) == -15.0
        assert alpha_gradient(8, 2) == -7.0
        assert alpha_gradient(8, 3) == -13.0 / 3.0
        assert alpha_cancel(8, 1) == -7.0
        assert alpha_cancel(8, 2) == -3.0
        assert alpha_cancel(8, 3) == -5.0 / 3.0

    def test_gradient_identity_for_all_small_fleets(self):
        for k in range(2, 65):
            for f in range(1, k):
                alpha = alpha_gradient(k, f)
                aggregated = ((k - f) * 1.0 + f * alpha) / k
                assert abs(aggregated - (-1.0)) <= 1e-12, (k, f)

    def test_cancel_identity_for_all_small_fleets(self):
        for k in range(2, 65):
            for f in range(1, k):
                alpha = alpha_cancel(k, f)
                assert abs((k - f) + f * alpha) <= 1e-12, (k, f)

    def test_bounds_enforced(self):
        with pytest.raises(ConfigError):
            alpha_gradient(8, 0)
        with pytest.raises(ConfigError):
            alpha_gradient(8, 8)
        with pytest.raises(ConfigError):
            alpha_cancel(4, 5)


class TestFlipLabels:
    def test_flip_all_full_poison_inverts_everything(self):
        labels = labels_of([0, 1, 0, 1, 1])
        got = flip_labels(labels, "flip_all", 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(got, [1, 0, 1, 0, 0])
        np.testing.assert_array_equal(labels, [0, 1, 0, 1, 1])  # the input is left as it was

    def test_flip_benign_targets_only_benign(self):
        labels = labels_of([0] * 6 + [1] * 4)
        got = flip_labels(labels, "flip_benign", 0.5, np.random.default_rng(1))
        # floor(0.5 * 6) = 3 benign labels become attack; attacks untouched.
        assert int(np.sum(got[:6])) == 3
        np.testing.assert_array_equal(got[6:], [1, 1, 1, 1])

    def test_flip_attack_targets_only_attacks(self):
        labels = labels_of([0] * 4 + [1] * 6)
        got = flip_labels(labels, "flip_attack", 0.5, np.random.default_rng(2))
        assert int(np.sum(1 - got[4:])) == 3
        np.testing.assert_array_equal(got[:4], [0, 0, 0, 0])

    def test_flip_count_is_floored(self):
        labels = labels_of([0] * 7)
        got = flip_labels(labels, "flip_benign", 0.5, np.random.default_rng(3))
        assert int(np.sum(got)) == math.floor(0.5 * 7)

    def test_deterministic_in_seed(self):
        labels = labels_of([0, 1] * 10)
        a = flip_labels(labels, "flip_all", 0.4, np.random.default_rng(9))
        b = flip_labels(labels, "flip_all", 0.4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_zero_poison_changes_nothing(self):
        labels = labels_of([0, 1, 1, 0])
        got = flip_labels(labels, "flip_all", 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(got, labels)

    def test_contract_errors(self):
        labels = labels_of([0, 1])
        with pytest.raises(ConfigError):
            flip_labels(labels, "model_cancel", 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            flip_labels(labels, "flip_all", 1.5, np.random.default_rng(0))
        with pytest.raises(SchemaError):
            flip_labels(None, "flip_all", 1.0, np.random.default_rng(0))


class TestModelPoisoning:
    def test_cancel_update_scales_global_model(self):
        params = ModelParameters(classifier_preset("A", input_dim=3), np.array([1.0, 2.0, 3.0, 4.0]))
        got = cancel_update(params, -7.0)
        np.testing.assert_array_equal(got.flat, [-7.0, -14.0, -21.0, -28.0])
        assert got.arch == params.arch


class TestAttackSpec:
    def test_defaults(self):
        spec = AttackSpec()
        assert spec.kind == "none" and spec.f == 0

    def test_f_zero_with_attack_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="flip_all", f=0)

    def test_f_with_none_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="none", f=2)

    def test_cancel_requires_collusion(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="model_cancel", f=1, colluding=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="label_swap", f=1)


class TestMaliciousSelection:
    def test_deterministic_and_uniform_subset(self):
        ids = [f"client-{i}" for i in range(8)]
        a = malicious_ids(ids, 3, np.random.default_rng(5))
        b = malicious_ids(ids, 3, np.random.default_rng(5))
        assert a == b and len(a) == 3 and a <= set(ids)

    def test_zero_is_empty(self):
        assert malicious_ids(["a", "b"], 0, np.random.default_rng(0)) == set()

    def test_f_must_leave_honest_majority_possible(self):
        with pytest.raises(ConfigError):
            malicious_ids(["a", "b"], 2, np.random.default_rng(0))
