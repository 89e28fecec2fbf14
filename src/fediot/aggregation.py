"""Aggregation rules that combine client models into one global model.

Every rule reduces a sequence of k float64 d-vectors, one per client's flat
parameter vector, along the client axis: the rows of a (k, d) array or a
list of row views. Plain averaging is the baseline; coordinate-wise median
and trimmed mean (Yin et al., ICML 2018) drop extreme values per
coordinate, and resampling redraws the k rows before the rule runs.
reduce_rows dispatches one spec over such rows; the training loop hands it
views of its parameter buffer in client order, and aggregate stacks client
models into an array of its own first. The median and the trimmed mean sort
the rows along the client axis with an exact min/max sorting network that
needs one spare row, not a further (k, d) array: it tracks which row holds
each sorted position instead of moving rows back, and leaves the rows
overwritten. The rules add the rows they keep in order and then divide, the
arithmetic of .mean(axis=0) on the stacked rows, so no result bit depends
on how the rows are held.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, SchemaError
from .neuralnet import ModelParameters

AGGREGATION_RULES = ("avg", "med", "tm")


@dataclass(frozen=True)
class AggregationSpec:
    """Server-side aggregation choice.

    rule 'avg' averages, 'med' takes the coordinate-wise median, 'tm' trims
    trim_c values at each end per coordinate before averaging. resample_s
    above 0 applies s-resampling first; it only changes behaviour when the
    following rule is robust, since resampling preserves the plain average.
    """

    rule: str
    trim_c: int = 0
    resample_s: int = 0

    def __post_init__(self) -> None:
        if self.rule not in AGGREGATION_RULES:
            raise ConfigError(f"unknown aggregation rule {self.rule!r}")
        if self.rule == "tm" and self.trim_c < 1:
            raise ConfigError("trimmed mean needs trim_c >= 1")
        if self.rule != "tm" and self.trim_c:
            raise ConfigError(f"trim_c only applies to rule 'tm', got rule {self.rule!r}")
        if self.resample_s < 0:
            raise ConfigError(f"resample_s must be >= 0, got {self.resample_s}")

    @property
    def min_models(self) -> int:
        """Fewest client models the rule accepts: TM(c) must keep one per coordinate."""
        return 2 * self.trim_c + 1

    def describe(self) -> str:
        name = {"avg": "AVG", "med": "MED", "tm": f"TM({self.trim_c})"}[self.rule]
        if self.resample_s:
            name = f"{self.resample_s}-RS+{name}"
        return name


def average(updates: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of the k client rows."""
    return _row_mean(updates)


@functools.lru_cache(maxsize=None)
def _network(k: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort for k rows.

    The network for the next power of two is cut to k rows: a comparator
    reaching past row k - 1 would compare against a +inf pad and never swap.
    """
    n = 1
    while n < k:
        n *= 2
    pairs = []
    p = 1
    while p < n:
        step = p
        while step >= 1:
            for j in range(step % p, n - step, 2 * step):
                for i in range(min(step, n - j - step)):
                    lo, hi = i + j, i + j + step
                    if lo // (2 * p) == hi // (2 * p) and hi < k:
                        pairs.append((lo, hi))
            step //= 2
        p *= 2
    return tuple(pairs)


def sort_rows(updates: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sort every column of k rows; return the k rows in ascending order.

    A comparator network of np.minimum/np.maximum passes puts each column's
    values in ascending order, so the returned rows equal those of
    np.sort(updates, axis=0) except that equal values of opposite sign
    (-0.0, 0.0) may trade places. Each comparator writes its minimum into a
    spare row and its maximum in place, then the spare takes over the
    minimum's slot. Each returned row is one of the input rows or the one new
    spare, and the input rows are left overwritten, neither sorted nor intact.
    """
    rows = list(updates)
    spare = np.empty_like(updates[0])
    for i, j in _network(len(rows)):
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    return rows


def _row_mean(rows: Sequence[np.ndarray]) -> np.ndarray:
    # Adds the rows in order into a new vector, then divides: the sums
    # .mean(axis=0) makes.
    out = rows[0].copy()
    for row in rows[1:]:
        out += row
    out /= len(rows)
    return out


def coordinate_median(updates: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise median; an even count averages the two middle values.

    Overwrites the rows (see sort_rows).
    """
    k = len(updates)
    # The mean of the middle one or two rows, as np.median computes it.
    return _row_mean(sort_rows(updates)[(k - 1) // 2 : k // 2 + 1])


def trimmed_mean(updates: Sequence[np.ndarray], trim_c: int) -> np.ndarray:
    """Mean after removing the trim_c largest and smallest values per coordinate.

    Overwrites the rows (see sort_rows).
    """
    return _row_mean(sort_rows(updates)[trim_c : len(updates) - trim_c])


def s_resample(
    updates: Sequence[np.ndarray], s: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Redraw the k rows, each the mean of s draws, no input used more than s times.

    Every output slot draws uniformly with rejection until it finds a row
    used fewer than s times, so across all k outputs each input is used
    exactly s times. Averaging the outputs therefore reproduces the plain
    average of the inputs; the redraw only dilutes minority outliers before
    a robust rule runs. While a slot is open some row has a use left, so
    each draw succeeds with probability at least 1/k and the loop ends.
    Each output row sums its draws in draw order and all rows are divided
    by s at the end, the arithmetic of a per-row mean. The (k, d) result is
    written to out if given (it must not hold the input rows), else to a new
    array.
    """
    k = len(updates)
    if s < 1:
        raise ConfigError(f"resample_s must be >= 1, got {s}")
    usage = [0] * k
    if out is None:
        out = np.empty((k, len(updates[0])))
    for row in out:
        for draw in range(s):
            while True:
                j = int(rng.integers(0, k))
                if usage[j] < s:
                    break
            usage[j] += 1
            if draw:
                row += updates[j]
            else:
                np.copyto(row, updates[j])
    out /= s
    return out


def reduce_rows(
    updates: Sequence[np.ndarray],
    spec: AggregationSpec,
    rng: np.random.Generator | None = None,
    resample_out: np.ndarray | None = None,
) -> np.ndarray:
    """Reduce k client rows under one spec into a new flat global vector.

    Resamples the rows if the spec says so, into resample_out[:k] when a
    (>= k, d) scratch array is given, then applies the rule, which may
    overwrite the rows it reduces. A scratch array of fewer than k rows is
    rejected with SchemaError.
    """
    k = len(updates)
    if k < spec.min_models:
        raise ConfigError(f"{spec.describe()} needs at least {spec.min_models} models, got {k}")
    if spec.resample_s:
        if rng is None:
            raise ConfigError("resampling needs a seeded random generator")
        if resample_out is not None and len(resample_out) < k:
            raise SchemaError(f"the resampling buffer holds {len(resample_out)} rows, {k} are needed")
        out = None if resample_out is None else resample_out[:k]
        updates = s_resample(updates, spec.resample_s, rng, out=out)
    if spec.rule == "avg":
        return average(updates)
    if spec.rule == "med":
        return coordinate_median(updates)
    return trimmed_mean(updates, spec.trim_c)


def aggregate(
    models: list[ModelParameters],
    spec: AggregationSpec,
    rng: np.random.Generator | None = None,
) -> ModelParameters:
    """Combine the client models under one spec into the new global model.

    Stacks the flat vectors once into a (k, d) array of its own and reduces
    its rows with reduce_rows.
    """
    k = len(models)
    if k < spec.min_models:
        raise ConfigError(f"{spec.describe()} needs at least {spec.min_models} models, got {k}")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise SchemaError(f"architecture mismatch: {sorted({str(m.arch) for m in models})}")
    return ModelParameters(arch, reduce_rows(np.stack([m.flat for m in models]), spec, rng))
