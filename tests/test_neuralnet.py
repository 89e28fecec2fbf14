import numpy as np
import pytest

from fediot.errors import ConfigError, ModelKindError, PoisonedUpdateError, SchemaError
from fediot.neuralnet import (
    ArchitectureSpec,
    Backprop,
    ModelParameters,
    autoencoder_preset,
    backward,
    classifier_preset,
    classify,
    forward,
    init_model,
    loss,
    mse_per_sample,
    sgd_step,
    _elu_grad,
    _sigmoid,
)


def param_count_oracle(dims):
    total = 0
    for i in range(len(dims) - 1):
        total += dims[i] * dims[i + 1] + dims[i + 1]
    return total


def elu_oracle(z):
    return z if z > 0 else np.exp(z) - 1.0


def forward_oracle(params, x):
    # Independent loop-based dense forward pass.
    layers = params.layers()
    a = x
    for i, (w, b) in enumerate(layers):
        out = np.zeros((a.shape[0], w.shape[1]))
        for r in range(a.shape[0]):
            for c in range(w.shape[1]):
                s = float(b[c])
                for k in range(w.shape[0]):
                    s += a[r, k] * w[k, c]
                out[r, c] = s
        if i < len(layers) - 1:
            out = np.vectorize(elu_oracle)(out)
        a = out
    return a


def numeric_gradient(params, x, y, l2_lambda, coords, eps=1e-5):
    grads = np.zeros(len(coords))
    base = np.array(params.flat)
    for j, c in enumerate(coords):
        plus, minus = base.copy(), base.copy()
        plus[c] += eps
        minus[c] -= eps
        lp = loss(ModelParameters(params.arch, plus), x, y, l2_lambda)
        lm = loss(ModelParameters(params.arch, minus), x, y, l2_lambda)
        grads[j] = (lp - lm) / (2 * eps)
    return grads


def max_relative_error(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestArchitecture:
    def test_preset_parameter_counts(self):
        expected = {
            ("classifier", "A"): param_count_oracle([115, 1]),
            ("classifier", "B"): param_count_oracle([115, 115, 1]),
            ("classifier", "C"): param_count_oracle([115, 115, 58, 1]),
            ("classifier", "D"): param_count_oracle([115, 115, 58, 29, 1]),
            ("autoencoder", "A"): param_count_oracle([115, 29, 115]),
            ("autoencoder", "B"): param_count_oracle([115, 58, 29, 58, 115]),
            ("autoencoder", "C"): param_count_oracle([115, 86, 58, 38, 29, 38, 58, 86, 115]),
        }
        assert classifier_preset("A").n_parameters == expected[("classifier", "A")] == 116
        assert classifier_preset("B").n_parameters == expected[("classifier", "B")]
        assert classifier_preset("C").n_parameters == expected[("classifier", "C")]
        assert classifier_preset("D").n_parameters == expected[("classifier", "D")]
        assert autoencoder_preset("A").n_parameters == expected[("autoencoder", "A")]
        assert autoencoder_preset("B").n_parameters == expected[("autoencoder", "B")]
        assert autoencoder_preset("C").n_parameters == expected[("autoencoder", "C")]

    def test_preset_shapes(self):
        assert classifier_preset("D").layer_dims == (115, 115, 58, 29, 1)
        assert autoencoder_preset("C").layer_dims == (115, 86, 58, 38, 29, 38, 58, 86, 115)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec("classifier", (), 10, 2)
        with pytest.raises(ConfigError):
            ArchitectureSpec("autoencoder", (4,), 10, 9)
        with pytest.raises(ConfigError):
            ArchitectureSpec("regressor", (), 10, 1)
        with pytest.raises(ConfigError):
            classifier_preset("E")


class TestInit:
    def test_bounds_and_zero_biases(self):
        arch = ArchitectureSpec("classifier", (7,), 5, 1)
        params = init_model(arch, seed=0)
        (w1, b1), (w2, b2) = params.layers()
        assert np.all(np.abs(w1) <= np.sqrt(6.0 / (5 + 7)))
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / (7 + 1)))
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)

    def test_deterministic(self):
        arch = autoencoder_preset("A", input_dim=9)
        a = init_model(arch, seed=42)
        b = init_model(arch, seed=42)
        c = init_model(arch, seed=43)
        np.testing.assert_array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, c.flat)


class TestModelParameters:
    def test_flat_is_read_only(self):
        params = init_model(classifier_preset("A", input_dim=3), seed=0)
        with pytest.raises(ValueError):
            params.flat[0] = 1.0

    def test_wrong_length_rejected(self):
        arch = classifier_preset("A", input_dim=3)
        with pytest.raises(SchemaError):
            ModelParameters(arch, np.zeros(3))

    def test_non_finite_rejected(self):
        arch = classifier_preset("A", input_dim=3)
        flat = np.zeros(arch.n_parameters)
        flat[1] = np.inf
        with pytest.raises(PoisonedUpdateError):
            ModelParameters(arch, flat)


class TestForward:
    def rand_model(self, arch, seed=1):
        rng = np.random.default_rng(seed)
        return ModelParameters(arch, rng.normal(scale=0.5, size=arch.n_parameters))

    def test_classifier_matches_loop_oracle(self):
        arch = ArchitectureSpec("classifier", (6, 4), 5, 1)
        params = self.rand_model(arch)
        x = np.random.default_rng(2).uniform(-2, 2, size=(9, 5))
        logits = forward_oracle(params, x)[:, 0]
        expected = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(forward(params, x), expected, rtol=1e-10, atol=1e-12)

    def test_autoencoder_matches_loop_oracle(self):
        arch = ArchitectureSpec("autoencoder", (3,), 5, 5)
        params = self.rand_model(arch)
        x = np.random.default_rng(3).uniform(-2, 2, size=(7, 5))
        np.testing.assert_allclose(
            forward(params, x), forward_oracle(params, x), rtol=1e-10, atol=1e-12
        )

    def test_zero_weight_classifier_says_half(self):
        arch = classifier_preset("B", input_dim=4)
        params = ModelParameters(arch, np.zeros(arch.n_parameters))
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_array_equal(forward(params, x), np.full(6, 0.5))

    def test_zero_weight_autoencoder_reconstruction_error(self):
        arch = ArchitectureSpec("autoencoder", (3,), 4, 4)
        params = ModelParameters(arch, np.zeros(arch.n_parameters))
        x = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_allclose(mse_per_sample(params, x), np.mean(x**2, axis=1))

    def test_wrong_input_width_rejected(self):
        params = self.rand_model(classifier_preset("A", input_dim=4))
        with pytest.raises(SchemaError):
            forward(params, np.zeros((2, 5)))


class TestLoss:
    def test_bce_hand_computed(self):
        arch = classifier_preset("A", input_dim=2)
        # Weights (1, -1), bias 0: logits are x0 - x1.
        params = ModelParameters(arch, np.array([1.0, -1.0, 0.0]))
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        y = np.array([1, 0])
        p = 1.0 / (1.0 + np.exp(-np.array([2.0, -1.0])))
        expected = -np.mean([np.log(p[0]), np.log(1.0 - p[1])])
        assert loss(params, x, y) == pytest.approx(expected, rel=1e-12)

    def test_l2_covers_weights_not_biases(self):
        arch = ArchitectureSpec("classifier", (3,), 2, 1)
        rng = np.random.default_rng(5)
        flat = rng.normal(size=arch.n_parameters)
        params = ModelParameters(arch, flat)
        x = rng.normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        weight_sq = sum(np.sum(w**2) for w, _ in params.layers())
        lam = 1e-3
        assert loss(params, x, y, lam) - loss(params, x, y) == pytest.approx(
            lam * weight_sq, rel=1e-9
        )

    def test_autoencoder_mse(self):
        arch = ArchitectureSpec("autoencoder", (2,), 3, 3)
        params = init_model(arch, seed=0)
        x = np.random.default_rng(2).normal(size=(6, 3))
        out = forward(params, x)
        assert loss(params, x) == pytest.approx(np.mean((out - x) ** 2), rel=1e-12)

    def test_reconstruction_errors_keep_the_input_and_the_bits(self):
        arch = ArchitectureSpec("autoencoder", (2,), 3, 3)
        params = init_model(arch, seed=0)
        x = np.random.default_rng(2).normal(size=(6, 3))
        before = x.copy()
        residual = forward(params, x) - x
        assert loss(params, x) == np.mean(residual**2)
        assert mse_per_sample(params, x).tobytes() == np.mean(residual**2, axis=1).tobytes()
        np.testing.assert_array_equal(x, before)

    def test_label_contract(self):
        clf = init_model(classifier_preset("A", input_dim=3), seed=0)
        ae = init_model(ArchitectureSpec("autoencoder", (2,), 3, 3), seed=0)
        x = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            loss(clf, x)
        with pytest.raises(ConfigError):
            loss(ae, x, np.array([0, 1]))


class TestBackward:
    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-4])
    def test_classifier_gradient_matches_finite_differences(self, l2_lambda):
        arch = ArchitectureSpec("classifier", (6, 4), 5, 1)
        rng = np.random.default_rng(7)
        params = ModelParameters(arch, rng.normal(scale=0.4, size=arch.n_parameters))
        x = rng.uniform(0, 1, size=(8, 5))
        y = rng.integers(0, 2, size=8)
        analytic = backward(params, x, y, l2_lambda)
        coords = np.arange(arch.n_parameters)
        numeric = numeric_gradient(params, x, y, l2_lambda, coords)
        assert max_relative_error(analytic[coords], numeric) < 1e-4

    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-4])
    def test_autoencoder_gradient_matches_finite_differences(self, l2_lambda):
        arch = ArchitectureSpec("autoencoder", (4, 3, 4), 5, 5)
        rng = np.random.default_rng(8)
        params = ModelParameters(arch, rng.normal(scale=0.4, size=arch.n_parameters))
        x = rng.uniform(0, 1, size=(6, 5))
        analytic = backward(params, x, None, l2_lambda)
        coords = np.arange(arch.n_parameters)
        numeric = numeric_gradient(params, x, None, l2_lambda, coords)
        assert max_relative_error(analytic[coords], numeric) < 1e-4


def elu_grad_reference(z):
    # Reference: the derivative written out per branch.
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


def sigmoid_reference(z):
    # Reference: each stable formula applied to its half through a boolean mask.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def activation_inputs():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
               745.0, -745.0, 709.8, -709.8, 1.7e308, -1.7e308, 1.0, -1.0]
    rng = np.random.default_rng(11)
    scaled = [rng.normal(scale=scale, size=4000) for scale in np.logspace(-310, 300, 15)]
    return np.concatenate([special, *scaled])[:60000]


class TestActivations:
    @pytest.mark.parametrize("kernel, reference", [(_elu_grad, elu_grad_reference),
                                                   (_sigmoid, sigmoid_reference)])
    def test_matches_reference_bit_for_bit(self, kernel, reference):
        z = activation_inputs()
        # A 3-d fleet shape as the backward pass feeds it, and a flat one.
        for shaped in (z, z.reshape(-1, 40, 1)):
            got, want = kernel(shaped), reference(shaped)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


PRESETS = [classifier_preset(name) for name in "ABCD"] + [autoencoder_preset(name) for name in "ABC"]


def fleet_case(arch, k, b, seed):
    """k models of arch with nonzero biases, each with its own (b, F) batch
    and, for a classifier, labels."""
    rng = np.random.default_rng(seed)
    params = np.stack([init_model(arch, seed + i).flat for i in range(k)])
    params += rng.normal(0.0, 0.05, params.shape)
    x = rng.uniform(0.0, 1.0, (k, b, arch.input_dim))
    y = rng.integers(0, 2, (k, b)).astype(np.float64) if arch.kind == "classifier" else None
    return params, x, y


def assert_rows_match_backward(arch, params, x, y, l2_lambda, grads):
    for i in range(params.shape[0]):
        want = backward(ModelParameters(arch, params[i]), x[i], None if y is None else y[i], l2_lambda)
        assert grads[i].tobytes() == want.tobytes(), f"row {i}"


class TestBackprop:
    """The bound backprop body against one backward() call per model, bit for
    bit, at the shipped preset widths."""

    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-3])
    @pytest.mark.parametrize("b", [1, 8, 64])
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("arch", PRESETS, ids=lambda a: f"{a.kind}-{len(a.hidden_layers)}")
    def test_rows_match_backward_at_preset_widths(self, arch, k, b, l2_lambda):
        params, x, y = fleet_case(arch, k, b, seed=k * 100 + b)
        before = params.copy(), x.copy()
        grads = np.empty_like(params)
        assert Backprop(arch, params, grads)(x, y, l2_lambda) is grads
        assert_rows_match_backward(arch, params, x, y, l2_lambda, grads)
        # The body writes only the gradient buffer.
        assert params.tobytes() == before[0].tobytes() and x.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("arch", [classifier_preset("D"), autoencoder_preset("C")], ids=["classifier", "autoencoder"])
    def test_binding_follows_rewritten_buffers(self, arch):
        # Bound once to the first rows of larger buffers, as training binds
        # it; the buffer is rewritten in place between calls, so a view
        # built from the first call's values would show.
        k, d = 8, arch.n_parameters
        buffer, grad_buffer = np.zeros((k + 1, d)), np.full((k + 1, d), np.nan)
        step = Backprop(arch, buffer[:k], grad_buffer[:k])
        for seed in (1, 2):
            params, x, y = fleet_case(arch, k, 8, seed)
            buffer[:k] = params
            step(x, y, 1e-3)
            assert_rows_match_backward(arch, params, x, y, 1e-3, grad_buffer)
        assert np.isnan(grad_buffer[k]).all()

    def test_shapes_and_labels_checked(self):
        arch = classifier_preset("B")
        params, x, y = fleet_case(arch, 2, 4, seed=0)
        with pytest.raises(SchemaError):
            Backprop(arch, params, np.empty((3, arch.n_parameters)))
        step = Backprop(arch, params, np.empty_like(params))
        with pytest.raises(SchemaError):
            step(x[:1], y[:1])
        with pytest.raises(ConfigError):
            step(x)


class TestTraining:
    def test_sgd_step_formula(self):
        params = init_model(classifier_preset("A", input_dim=3), seed=1)
        grad = np.arange(4, dtype=np.float64)
        new = sgd_step(params, grad, lr=0.1)
        np.testing.assert_array_equal(new.flat, params.flat - 0.1 * grad)

    def test_non_finite_gradient_aborts(self):
        params = init_model(classifier_preset("A", input_dim=3), seed=1)
        grad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(PoisonedUpdateError):
            sgd_step(params, grad, lr=0.1)

    def test_linearly_separable_toy_set_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(loc=(0.0, 0.0), scale=0.1, size=(10, 2))
        x1 = rng.normal(loc=(3.0, 3.0), scale=0.1, size=(10, 2))
        x = np.vstack([x0, x1])
        y = np.array([0] * 10 + [1] * 10)
        params = init_model(classifier_preset("A", input_dim=2), seed=3)
        for _ in range(200):
            params = sgd_step(params, backward(params, x, y), lr=1.0)
        assert np.array_equal(classify(params, x), y)

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(4)
        arch = ArchitectureSpec("autoencoder", (3,), 5, 5)
        params = init_model(arch, seed=4)
        x = rng.uniform(0, 1, size=(12, 5))
        prev = loss(params, x)
        for _ in range(50):
            params = sgd_step(params, backward(params, x), lr=0.05)
            cur = loss(params, x)
            assert cur <= prev + 1e-12
            prev = cur


class TestKindErrors:
    def test_mse_needs_autoencoder(self):
        params = init_model(classifier_preset("A", input_dim=3), seed=0)
        with pytest.raises(ModelKindError):
            mse_per_sample(params, np.zeros((2, 3)))

    def test_classify_needs_classifier(self):
        params = init_model(ArchitectureSpec("autoencoder", (2,), 3, 3), seed=0)
        with pytest.raises(ModelKindError):
            classify(params, np.zeros((2, 3)))

