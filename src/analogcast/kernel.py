"""Compactly supported Gaussian analog weights.

Weights follow exp(-d^2 / (2 * theta1)) truncated to the m nearest
candidates and normalized to sum to one.  Distance ties are broken
toward the smaller (earlier) candidate index so the support is unique.
Exponentials are shifted by the smallest squared distance before
normalizing, which is exact after normalization and keeps tiny theta1
from underflowing every weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError


def topk_weights(
    dist: np.ndarray, theta1: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise truncated Gaussian weights for a (n_rows, n_cand) distance
    matrix. Excluded candidates are marked with +inf distance and can never
    carry weight. Returns (weights, columns), both (n_rows, min(m, n_cand)).
    """
    if theta1 <= 0.0:
        raise ConfigError(f"theta1 must be > 0, got {theta1}")
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[1] < 1:
        raise ConfigError("need a 2-d distance matrix with at least one candidate")
    if (np.nan_to_num(dist, posinf=0.0) < 0).any():
        raise ConfigError("distances must be nonnegative")
    m_eff = min(m, dist.shape[1])
    order = np.argsort(dist, axis=1, kind="stable")  # stable: ties keep lower column
    cols = order[:, :m_eff]
    d2 = np.take_along_axis(dist, cols, axis=1) ** 2
    if not np.isfinite(d2[:, 0]).all():
        raise NumericError("some row has no finite-distance candidate")
    with np.errstate(invalid="ignore"):
        w = np.exp(-(d2 - d2[:, :1]) / (2.0 * theta1))
    w[~np.isfinite(d2)] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return w, cols

