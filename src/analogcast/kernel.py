"""Compactly supported Gaussian analog weights.

Weights follow exp(-d^2 / (2 * theta1)) truncated to the m nearest
candidates and normalized to sum to one.  Distance ties are broken
toward the smaller (earlier) candidate index so the support is unique.
Exponentials are shifted by the smallest squared distance before
normalizing, which is exact after normalization and keeps tiny theta1
from underflowing every weight.

The work splits in two steps so a caller can sort once and weight many
times: ``sort_candidates`` validates a distance matrix and returns the
columns and squared distances of its k nearest candidates per row, in
order; ``sorted_weights`` turns any column prefix of those squared
distances into weights.  ``topk_weights`` is the two in a row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError


def sort_candidates(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and squared distances of the ``k`` nearest candidates per row
    of a (n_rows, n_cand) distance matrix, nearest first, ties to the lower
    column; both (n_rows, min(k, n_cand)).  Excluded candidates are marked
    with +inf distance and sort last."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[1] < 1:
        raise ConfigError("need a 2-d distance matrix with at least one candidate")
    if not (dist >= 0).all():  # also False for NaN
        raise ConfigError("distances must be nonnegative and not NaN")
    cols = np.argsort(dist, axis=1, kind="stable")[:, :k]  # stable: ties keep lower column
    d2 = np.take_along_axis(dist, cols, axis=1) ** 2
    if not np.isfinite(d2[:, 0]).all():
        raise NumericError("some row has no finite-distance candidate")
    return cols, d2


def sorted_weights(d2: np.ndarray, theta1: float) -> np.ndarray:
    """Row-wise Gaussian weights over a column prefix of the squared
    distances ``sort_candidates`` returns.  Their first column is finite,
    so an infinite distance gets exp(-inf) = 0 weight."""
    if not 0.0 < theta1 < math.inf:
        raise ConfigError(f"theta1 must be > 0 and finite, got {theta1}")
    w = np.exp(-(d2 - d2[:, :1]) / (2.0 * theta1))
    w /= w.sum(axis=1, keepdims=True)
    return w


def topk_weights(
    dist: np.ndarray, theta1: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise truncated Gaussian weights for a (n_rows, n_cand) distance
    matrix. Excluded candidates are marked with +inf distance and can never
    carry weight. Returns (weights, columns), both (n_rows, min(m, n_cand)).
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    cols, d2 = sort_candidates(dist, m)
    return sorted_weights(d2, theta1), cols
