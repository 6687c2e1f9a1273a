"""Distances between delay-embedding matrices.

The shape-based distance aligns a candidate trajectory to a target with
the best rotation (possibly a reflection) and positive rescaling after
column centering, then reports the residual Frobenius norm divided by
the centered norm of the candidate:

    d(target, cand) = ||T~ - s* C~ R*||_F / ||C~||_F

where C~, T~ are column-centered, R* = U V' from the SVD of the q x q
cross-product C~' T~, and s* = tr(Sigma) / ||C~||_F^2.  The distance is
asymmetric: the candidate is always the aligned side and the normalizer.
It is zero exactly when the candidate equals the target up to rotation,
scale and per-column shifts, and it never exceeds the normalized best
rotation-only residual, so values stay O(1) for any field units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_DEGENERATE_TOL = 1e-300

METRICS = ("euclidean", "procrustes", "combined")
SCALE_NORMS = ("centered", "raw")


def _center_cols(b: np.ndarray) -> np.ndarray:
    return b - b.mean(axis=-2, keepdims=True)


@dataclass(frozen=True)
class ProcrustesFit:
    """Optimal alignment of a candidate embedding onto a target."""

    rotation: np.ndarray  # (q, q) orthogonal
    scale: float  # positive rescaling applied to the candidate
    raw_distance: float  # ||T~ - scale * C~ rotation||_F
    distance: float  # raw_distance / ||C~||_F


def euclidean_distances(targets: np.ndarray, comparisons: np.ndarray) -> np.ndarray:
    """All pairwise Frobenius distances, (n_targets, n_comparisons)."""
    targets = np.asarray(targets, dtype=float)
    comparisons = np.asarray(comparisons, dtype=float)
    if targets.shape[1:] != comparisons.shape[1:]:
        raise ConfigError(
            f"shape mismatch {targets.shape[1:]} vs {comparisons.shape[1:]}"
        )
    t2 = np.einsum("ipq,ipq->i", targets, targets)
    c2 = np.einsum("jpq,jpq->j", comparisons, comparisons)
    cross = np.einsum("ipq,jpq->ij", targets, comparisons)
    d2 = t2[:, None] + c2[None, :] - 2.0 * cross
    return np.sqrt(np.maximum(d2, 0.0))


def procrustes_distance(
    target: np.ndarray, comparison: np.ndarray, scale_norm: str = "centered"
) -> ProcrustesFit:
    """Shape distance of one candidate from one target embedding.

    ``scale_norm`` picks the denominator of the fitted scale: "centered"
    uses ||C~||_F^2 (the same centered matrix the rotation aligns),
    "raw" uses ||C||_F^2 of the uncentered candidate.
    """
    target = np.asarray(target, dtype=float)
    comparison = np.asarray(comparison, dtype=float)
    if target.shape != comparison.shape:
        raise ConfigError(f"shape mismatch {target.shape} vs {comparison.shape}")
    if target.ndim != 2:
        raise ConfigError("embeddings must be 2-d matrices")
    tc = _center_cols(target)
    cc = _center_cols(comparison)
    c_norm2 = float(np.sum(cc * cc))
    if c_norm2 <= _DEGENERATE_TOL:
        raise NumericError(
            "degenerate comparison: centered norm is zero, treat as maximally distant"
        )
    u, sv, vt = np.linalg.svd(cc.T @ tc)
    rotation = u @ vt
    denom = c_norm2 if scale_norm == "centered" else _raw_norm2(comparison, scale_norm)
    scale = float(np.sum(sv)) / denom
    raw = float(np.linalg.norm(tc - scale * (cc @ rotation)))
    return ProcrustesFit(
        rotation=rotation,
        scale=scale,
        raw_distance=raw,
        distance=raw / np.sqrt(c_norm2),
    )


def _raw_norm2(comparison: np.ndarray, scale_norm: str) -> float:
    if scale_norm != "raw":
        raise ConfigError(f"unknown scale_norm {scale_norm!r} (use centered or raw)")
    n2 = float(np.sum(comparison * comparison))
    if n2 <= _DEGENERATE_TOL:
        raise NumericError("degenerate comparison: raw norm is zero")
    return n2


def procrustes_distances(
    targets: np.ndarray, comparisons: np.ndarray, scale_norm: str = "centered"
) -> np.ndarray:
    """All normalized shape distances, (n_targets, n_comparisons).

    Only singular values are needed here: with s = tr(Sigma) the squared
    residual at the optimum is ||T~||^2 - 2 theta s + theta^2 ||C~||^2.
    Degenerate candidates (zero centered norm) give +inf columns instead
    of raising, so callers can rank them as maximally distant.
    """
    if scale_norm not in SCALE_NORMS:
        raise ConfigError(f"unknown scale_norm {scale_norm!r} (use one of {SCALE_NORMS})")
    targets = np.asarray(targets, dtype=float)
    comparisons = np.asarray(comparisons, dtype=float)
    if targets.shape[1:] != comparisons.shape[1:]:
        raise ConfigError(
            f"shape mismatch {targets.shape[1:]} vs {comparisons.shape[1:]}"
        )
    tc = _center_cols(targets)
    cc = _center_cols(comparisons)
    t2 = np.einsum("ipq,ipq->i", tc, tc)
    c2 = np.einsum("jpq,jpq->j", cc, cc)
    ok = c2 > _DEGENERATE_TOL
    cross = np.einsum("jpq,ipr->ijqr", cc, tc)  # (n_t, n_c, q, q) = C~' T~
    s = np.linalg.svd(cross, compute_uv=False).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if scale_norm == "centered":
            theta = s / c2[None, :]
        else:
            raw2 = np.einsum("jpq,jpq->j", comparisons, comparisons)
            ok = ok & (raw2 > _DEGENERATE_TOL)
            theta = s / raw2[None, :]
        d2 = t2[:, None] - 2.0 * theta * s + theta**2 * c2[None, :]
        out = np.sqrt(np.maximum(d2, 0.0)) / np.sqrt(c2)[None, :]
    out[:, ~ok] = np.inf
    return out


def combined_distance(
    d_forcing: np.ndarray, d_response: np.ndarray, gamma: float
) -> np.ndarray:
    """Convex mix gamma * d_forcing + (1 - gamma) * d_response.

    A pair that is infinitely distant on either side (a degenerate
    Procrustes candidate) stays infinitely distant at every gamma,
    including the endpoints where 0 * inf would otherwise give NaN.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    d_forcing = np.asarray(d_forcing, dtype=float)
    d_response = np.asarray(d_response, dtype=float)
    if d_forcing.shape != d_response.shape:
        raise ConfigError(
            f"distance shapes differ: {d_forcing.shape} vs {d_response.shape}"
        )
    if (d_forcing < 0).any() or (d_response < 0).any():
        raise ConfigError("distances must be nonnegative")
    with np.errstate(invalid="ignore"):
        mixed = gamma * d_forcing + (1.0 - gamma) * d_response
    return np.where(np.isfinite(d_forcing) & np.isfinite(d_response), mixed, np.inf)
