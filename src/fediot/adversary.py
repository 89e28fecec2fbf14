"""Poisoning behaviours for malicious clients.

Data poisoning flips training labels before learning starts. Model poisoning
alters what a malicious client sends back: scaling its gradient, or replying
with a scaled copy of the global model so that the honest contributions
cancel out of a plain average.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ATTACK, BENIGN
from .errors import ConfigError, SchemaError
from .neuralnet import ModelParameters

FLIP_KINDS = ("flip_benign", "flip_attack", "flip_all")
MODEL_ATTACK_KINDS = ("gradient_factor", "model_cancel")
ATTACK_KINDS = ("none",) + FLIP_KINDS + MODEL_ATTACK_KINDS


@dataclass(frozen=True)
class AttackSpec:
    """What the malicious clients do and how many there are.

    p_poison is the flipped share of the targeted labels and only applies to
    flip kinds. Model-cancelling clients need to know f and coordinate on it,
    so they are colluding by definition.
    """

    kind: str = "none"
    f: int = 0
    p_poison: float = 1.0
    colluding: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.kind == "none" and self.f:
            raise ConfigError("attack kind 'none' cannot have malicious clients")
        if self.kind != "none" and self.f < 1:
            raise ConfigError(f"attack {self.kind!r} needs f >= 1 malicious clients")
        if not 0.0 <= self.p_poison <= 1.0:
            raise ConfigError(f"p_poison must be in [0, 1], got {self.p_poison}")
        if self.kind == "model_cancel" and not self.colluding:
            raise ConfigError("model cancelling only works with colluding clients")


def alpha_gradient(k: int, f: int) -> float:
    """Gradient scaling factor making the average gradient step backwards.

    With k clients and f colluding ones each sending alpha times the honest
    gradient g, the aggregate (1/k)((k - f) g + f alpha g) equals -g exactly
    when alpha = (f - 2k) / f.
    """
    if not 1 <= f < k:
        raise ConfigError(f"need 1 <= f < k, got f={f}, k={k}")
    return (f - 2 * k) / f


def alpha_cancel(k: int, f: int) -> float:
    """Model scaling factor zeroing a plain average.

    With k - f honest clients sending w plus a common update and f colluding
    ones sending alpha times w, the sum (k - f) w + f alpha w vanishes when
    alpha = (f - k) / f, dragging the average toward zero.
    """
    if not 1 <= f < k:
        raise ConfigError(f"need 1 <= f < k, got f={f}, k={k}")
    return (f - k) / f


def flip_labels(
    labels: np.ndarray | None, kind: str, p_poison: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip a uniformly chosen share of the targeted labels.

    flip_benign turns benign labels into attack, flip_attack the reverse,
    flip_all inverts both. Exactly floor(p_poison * targeted) labels flip.
    Returns a flipped copy of labels, in their order; None (an unlabeled
    stream) is rejected.
    """
    if kind not in FLIP_KINDS:
        raise ConfigError(f"not a label flip kind: {kind!r}")
    if not 0.0 <= p_poison <= 1.0:
        raise ConfigError(f"p_poison must be in [0, 1], got {p_poison}")
    if labels is None:
        raise SchemaError("label flipping needs a labeled stream")
    if kind == "flip_benign":
        targeted = np.flatnonzero(labels == BENIGN)
    elif kind == "flip_attack":
        targeted = np.flatnonzero(labels == ATTACK)
    else:
        targeted = np.arange(labels.size)
    n_flip = int(p_poison * targeted.size)
    chosen = rng.choice(targeted, size=n_flip, replace=False)
    flipped = labels.copy()
    flipped[chosen] = 1 - flipped[chosen]
    return flipped


def cancel_update(
    global_model: ModelParameters, alpha: float, out: np.ndarray | None = None
) -> ModelParameters:
    """Reply with alpha times the received global model, skipping training.

    With out the product is written there, and the reply is a read-only view
    of out that is valid only until out is next written.
    """
    flat = np.multiply(global_model.flat, alpha, out=out)
    if out is not None:
        flat = flat.view()
        flat.setflags(write=False)
    return ModelParameters(global_model.arch, flat)


def malicious_ids(client_ids: list[str], f: int, rng: np.random.Generator) -> set[str]:
    """Draw which f clients are malicious, uniformly without replacement."""
    if not 0 <= f < len(client_ids):
        raise ConfigError(f"need 0 <= f < {len(client_ids)} clients, got f={f}")
    if f == 0:
        return set()
    return set(rng.choice(np.asarray(client_ids, dtype=object), size=f, replace=False))
