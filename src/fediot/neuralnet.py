"""Dense feed-forward networks with manual backpropagation.

Models are plain float64 parameter vectors plus an architecture descriptor,
so federated aggregation can treat them as points in R^d. Hidden layers use
ELU activations with alpha fixed at 1, so ELU'(z) = exp(min(z, 0)) for every
z, exactly 1 for z > 0. Classifiers end in one sigmoid unit trained with
binary cross entropy; autoencoders end in a linear reconstruction trained
with mean squared error. Optional L2 regularization covers weights only,
never biases.

Gradients come from one backpropagation body, Backprop, which binds to a
(rows, d) parameter buffer and a gradient buffer once and then trains
every row on its own batch per call; backward() is its one-row case.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelKindError, PoisonedUpdateError, SchemaError

DECISION_THRESHOLD = 0.5

CLASSIFIER = "classifier"
AUTOENCODER = "autoencoder"

# Hidden layer widths for a 115-feature input, narrowest to deepest.
CLASSIFIER_HIDDEN = {"A": (), "B": (115,), "C": (115, 58), "D": (115, 58, 29)}
AUTOENCODER_HIDDEN = {"A": (29,), "B": (58, 29, 58), "C": (86, 58, 38, 29, 38, 58, 86)}


@dataclass(frozen=True)
class ArchitectureSpec:
    """Shape of a dense network: kind, hidden widths, input and output sizes."""

    kind: str
    hidden_layers: tuple[int, ...]
    input_dim: int
    output_dim: int

    def __post_init__(self) -> None:
        if self.kind not in (CLASSIFIER, AUTOENCODER):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == CLASSIFIER and self.output_dim != 1:
            raise ConfigError("a classifier ends in exactly one unit")
        if self.kind == AUTOENCODER and self.output_dim != self.input_dim:
            raise ConfigError("an autoencoder reconstructs its input size")
        dims = (self.input_dim, *self.hidden_layers, self.output_dim)
        if any(d <= 0 for d in dims):
            raise ConfigError(f"layer sizes must be positive, got {dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)

    @property
    def n_parameters(self) -> int:
        return _layout(self)[-1][2]


def classifier_preset(name: str, input_dim: int = 115) -> ArchitectureSpec:
    if name not in CLASSIFIER_HIDDEN:
        raise ConfigError(f"unknown classifier preset {name!r}")
    return ArchitectureSpec(CLASSIFIER, CLASSIFIER_HIDDEN[name], input_dim, 1)


def autoencoder_preset(name: str, input_dim: int = 115) -> ArchitectureSpec:
    if name not in AUTOENCODER_HIDDEN:
        raise ConfigError(f"unknown autoencoder preset {name!r}")
    return ArchitectureSpec(AUTOENCODER, AUTOENCODER_HIDDEN[name], input_dim, input_dim)


@functools.lru_cache(maxsize=None)
def _layout(arch: ArchitectureSpec) -> tuple[tuple[int, int, int, int, int], ...]:
    # Per layer: (weight offset, bias offset, end offset, fan_in, fan_out).
    layers = []
    offset = 0
    dims = arch.layer_dims
    for fan_in, fan_out in zip(dims, dims[1:]):
        w_off = offset
        b_off = w_off + fan_in * fan_out
        offset = b_off + fan_out
        layers.append((w_off, b_off, offset, fan_in, fan_out))
    return tuple(layers)


@dataclass(frozen=True)
class ModelParameters:
    """An immutable model: architecture plus one flat parameter vector.

    The vector stores, for each layer in input-to-output order, the weight
    matrix in row-major order followed by the bias vector.
    """

    arch: ArchitectureSpec
    flat: np.ndarray

    def __post_init__(self) -> None:
        flat = np.asarray(self.flat, dtype=np.float64)
        if flat.shape != (self.arch.n_parameters,):
            raise SchemaError(
                f"expected {self.arch.n_parameters} parameters, got shape {flat.shape}"
            )
        if not np.isfinite(flat).all():
            raise PoisonedUpdateError("model parameters contain non-finite values")
        if flat.flags.writeable:
            flat = flat.copy()
            flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return (weights, bias) views per layer, read-only."""
        out = []
        for w_off, b_off, end, fan_in, fan_out in _layout(self.arch):
            out.append((self.flat[w_off:b_off].reshape(fan_in, fan_out), self.flat[b_off:end]))
        return out


def init_model(arch: ArchitectureSpec, seed: int) -> ModelParameters:
    """Draw weights uniformly in +-sqrt(6 / (fan_in + fan_out)); biases start at 0."""
    rng = np.random.default_rng(seed)
    pieces = []
    dims = arch.layer_dims
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        pieces.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        pieces.append(np.zeros(fan_out))
    return ModelParameters(arch, np.concatenate(pieces))


def _elu(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def _elu_grad(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.exp(np.minimum(z, 0.0, out=out), out=out)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_input(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise SchemaError(
            f"input shape {x.shape} does not match input_dim {params.arch.input_dim}"
        )
    return x


def _weights(arch: ArchitectureSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    # Per layer, views of a (k, d) parameter array: weights (k, fan_in, fan_out)
    # and biases (k, 1, fan_out), so a writable array gives writable views.
    k = params.shape[0]
    return [
        (params[:, w_off:b_off].reshape(k, fan_in, fan_out), params[:, b_off:end].reshape(k, 1, fan_out))
        for w_off, b_off, end, fan_in, fan_out in _layout(arch)
    ]


def _forward_states(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    # k models on k batches: layers holds _weights() views of a (k, d)
    # parameter array and x is (k, n, F). Returns per-layer inputs and
    # pre-activations; the last pre-activation is the head logits
    # (classifier) or reconstruction (autoencoder). The matmul runs one BLAS
    # call per model, the same call a single (n, F) batch makes.
    inputs = []
    pre_acts = []
    a = x
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        z = np.matmul(a, w)
        z += b
        pre_acts.append(z)
        a = _elu(z) if i < len(layers) - 1 else z
    return inputs, pre_acts


def _head(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    # Last pre-activation of one model on a checked (n, F) batch.
    return _forward_states(_weights(params.arch, params.flat[None]), x[None])[1][-1][0]


def forward(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Run the network on a (n, F) batch.

    Returns attack probabilities of shape (n,) for a classifier, or the
    reconstructed batch of shape (n, F) for an autoencoder.
    """
    x = _check_input(params, x)
    head = _head(params, x)
    if params.arch.kind == CLASSIFIER:
        return _sigmoid(head[:, 0])
    return head


def classify(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Label a batch 0/1 with the fixed 0.5 probability threshold."""
    if params.arch.kind != CLASSIFIER:
        raise ModelKindError("classify needs a classifier model")
    return (forward(params, x) > DECISION_THRESHOLD).astype(np.int64)


def _weight_square_sum(params: ModelParameters) -> float:
    return float(sum(np.sum(w * w) for w, _ in params.layers()))


def loss(
    params: ModelParameters,
    x: np.ndarray,
    y: np.ndarray | None = None,
    l2_lambda: float = 0.0,
) -> float:
    """Mean data loss plus l2_lambda times the squared weight norm.

    Classifiers use binary cross entropy against y in {0, 1}; autoencoders
    use mean squared reconstruction error and take no labels.
    """
    x = _check_input(params, x)
    head = _head(params, x)
    if params.arch.kind == CLASSIFIER:
        if y is None:
            raise ConfigError("classifier loss requires labels")
        y = np.asarray(y, dtype=np.float64)
        z = head[:, 0]
        # BCE in logit form: softplus(z) - y*z, stable for large |z|.
        data = float(np.mean(np.logaddexp(0.0, z) - y * z))
    else:
        if y is not None:
            raise ConfigError("autoencoder loss takes no labels")
        head -= x  # the head is a fresh array: square the residual in it
        data = float(np.mean(np.square(head, out=head)))
    if l2_lambda:
        data += l2_lambda * _weight_square_sum(params)
    return data


class Backprop:
    """The backpropagation body bound to a (rows, d) parameter buffer and a
    (rows, d) gradient buffer of the same architecture.

    The per-layer weight, transposed-weight and gradient views are built
    once, here; they follow every later write to either buffer. A call
    takes x, a (rows, n, F) array holding row i's batch for the model in
    row i of params, and for a classifier y, its (rows, n) labels. It
    writes the gradients of loss() into grads, row i bit for bit what
    backward() returns for that model and batch, and returns grads.
    """

    def __init__(self, arch: ArchitectureSpec, params: np.ndarray, grads: np.ndarray) -> None:
        if params.ndim != 2 or params.shape[1] != arch.n_parameters or grads.shape != params.shape:
            raise SchemaError(
                f"parameters {params.shape} and gradients {grads.shape} do not fit "
                f"{arch.n_parameters} parameters per row"
            )
        self.arch = arch
        self.grads = grads
        self._rows = params.shape[0]
        self._classifier = arch.kind == CLASSIFIER
        self._layers = _weights(arch, params)
        self._transposed = [w.transpose(0, 2, 1) for w, _ in self._layers]
        self._grad_layers = _weights(arch, grads)

    def __call__(self, x: np.ndarray, y: np.ndarray | None = None, l2_lambda: float = 0.0) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self._rows or x.shape[2] != self.arch.input_dim:
            raise SchemaError(
                f"batches {x.shape} do not fit {self._rows} models with input_dim {self.arch.input_dim}"
            )
        n = x.shape[1]
        inputs, pre_acts = _forward_states(self._layers, x)
        # dz is formed in the last pre-activation, which nothing reads again.
        dz = pre_acts[-1]
        if self._classifier:
            if y is None:
                raise ConfigError("classifier gradient requires labels")
            np.subtract(_sigmoid(dz), y[:, :, None], out=dz)
            dz /= n
        else:
            if y is not None:
                raise ConfigError("autoencoder gradient takes no labels")
            dz -= x
            dz *= 2.0
            dz /= n * self.arch.output_dim
        for i in range(len(self._layers) - 1, -1, -1):
            dw, db = self._grad_layers[i]
            np.matmul(inputs[i].transpose(0, 2, 1), dz, out=dw)
            if l2_lambda:
                dw += 2.0 * l2_lambda * self._layers[i][0]
            np.add.reduce(dz, axis=1, keepdims=True, out=db)
            if i > 0:
                dz = np.matmul(dz, self._transposed[i])
                # ELU' is formed in the pre-activation, which nothing reads again.
                dz *= _elu_grad(pre_acts[i - 1], out=pre_acts[i - 1])
        return self.grads


def backward(
    params: ModelParameters,
    x: np.ndarray,
    y: np.ndarray | None = None,
    l2_lambda: float = 0.0,
) -> np.ndarray:
    """Gradient of loss() as one flat vector in parameter order.

    A one-row Backprop: training binds one per buffer instead. This
    one-model form is the tests' oracle and a layer the benchmark tracer
    wraps by name.
    """
    x = _check_input(params, x)
    if y is not None:
        y = np.asarray(y, dtype=np.float64)[None]
    step = Backprop(params.arch, params.flat[None], np.empty((1, params.arch.n_parameters)))
    return step(x[None], y, l2_lambda)[0]


def sgd_step(params: ModelParameters, grad: np.ndarray, lr: float) -> ModelParameters:
    """One plain gradient descent update: w <- w - lr * grad.

    Training updates its buffer rows in place; this form is the tests' oracle
    and a layer the benchmark tracer wraps by name.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.flat.shape:
        raise SchemaError(f"gradient shape {grad.shape} != parameters {params.flat.shape}")
    if not np.isfinite(grad).all():
        raise PoisonedUpdateError("gradient contains non-finite values")
    return ModelParameters(params.arch, params.flat - lr * grad)


def mse_per_sample(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Per-record mean squared reconstruction error, shape (n,)."""
    if params.arch.kind != AUTOENCODER:
        raise ModelKindError("reconstruction error needs an autoencoder model")
    x = _check_input(params, x)
    residual = _head(params, x)
    residual -= x
    return np.mean(np.square(residual, out=residual), axis=1)
