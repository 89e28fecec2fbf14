"""Collaborative min-max normalization without sharing raw records."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError


@dataclass(frozen=True)
class ScalingBounds:
    """Per-feature minimum and maximum used for min-max scaling."""

    x_min: np.ndarray
    x_max: np.ndarray

    def __post_init__(self) -> None:
        if self.x_min.shape != self.x_max.shape or self.x_min.ndim != 1:
            raise SchemaError(
                f"bounds must be two 1-D arrays of equal length, got "
                f"{self.x_min.shape} and {self.x_max.shape}"
            )
        if np.any(self.x_min > self.x_max):
            raise SchemaError("every minimum must be <= its maximum")

    def guarded_span(self) -> tuple[np.ndarray, np.ndarray]:
        """The span x_max - x_min with 1 for constant features, and the constant-feature mask."""
        span = self.x_max - self.x_min
        constant = ~(span > 0)
        return np.where(constant, 1.0, span), constant


def local_min_max(features: np.ndarray) -> ScalingBounds:
    """Compute per-feature bounds over one client's own training records."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise SchemaError(f"need a non-empty (n, F) array, got shape {features.shape}")
    return ScalingBounds(features.min(axis=0), features.max(axis=0))


def merge_bounds(bounds: list[ScalingBounds]) -> ScalingBounds:
    """Combine per-client bounds into fleet-wide bounds.

    The merge keeps the element-wise minimum of minima and maximum of maxima,
    so the result equals the bounds of the concatenated data without any
    client revealing its records.
    """
    if not bounds:
        raise SchemaError("cannot merge zero bounds")
    dims = {b.x_min.shape for b in bounds}
    if len(dims) > 1:
        raise SchemaError(f"bounds disagree on feature count: {sorted(dims)}")
    x_min = np.min([b.x_min for b in bounds], axis=0)
    x_max = np.max([b.x_max for b in bounds], axis=0)
    return ScalingBounds(x_min, x_max)


def scale(features: np.ndarray, bounds: ScalingBounds, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max scale features to [0, 1] relative to the given bounds.

    A feature with max == min maps to 0. Values outside the bounds are not
    clamped, so unseen test records may fall outside [0, 1]. With out, a
    float64 array of the features' shape, the result is written there.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != bounds.x_min.shape[0]:
        raise SchemaError(
            f"features shape {features.shape} does not match {bounds.x_min.shape[0]} bounds"
        )
    span, constant = bounds.guarded_span()
    # One array, shifted, divided and zeroed in place.
    scaled = np.subtract(features, bounds.x_min, out=out)
    scaled /= span
    scaled[:, constant] = 0.0
    return scaled
