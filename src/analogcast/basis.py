"""Spatial basis estimation and projection.

Three reductions are supported for an anomaly field (or a pair of fields):

* EOF: left singular vectors of the (n_loc, n_time) anomaly matrix.
* MEOF: EOFs of two fields standardized by their own total standard
  deviation and stacked row-wise, so neither field dominates.
* CCA: canonical correlation between lagged EOF coefficients of a
  forcing field and a response field; the returned spatial patterns are
  the EOF bases times the canonical weight matrices.

Projection is least squares, so non-orthonormal bases (MEOF blocks, CCA
patterns) are handled the same way as orthonormal EOFs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import FieldSeries, parse_rows, read_meta, read_table, write_table
from .errors import ConfigError, DataError, NumericError

_RANK_TOL = 1e-12
_CCA_RIDGE = 1e-8


@dataclass(frozen=True)
class BasisSet:
    """Spatial patterns as columns of ``matrix`` (n_rows, p).

    ``n_forcing_rows`` marks the row split for stacked (MEOF) bases and
    ``block`` labels a slice taken from such a stack.  ``correlations``
    holds canonical correlations for CCA patterns.  ``ridged`` records
    that a singular within-set covariance needed a diagonal ridge.
    """

    matrix: np.ndarray
    coords: np.ndarray
    kind: str  # "eof" | "meof" | "cca"
    explained_variance: np.ndarray | None = None
    n_forcing_rows: int | None = None
    correlations: np.ndarray | None = None
    ridged: bool = False
    block: str | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        c = np.asarray(self.coords, dtype=float)
        if m.ndim != 2 or m.shape[1] < 1:
            raise DataError("basis matrix must be 2-d with at least one column")
        if c.shape != (m.shape[0], 2):
            raise DataError("basis coords do not match matrix rows")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "coords", c)

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class CoefficientSeries:
    """Basis coefficients over time, one column per time step."""

    values: np.ndarray  # (p, n_time)
    times: np.ndarray
    basis: BasisSet

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        t = np.asarray(self.times, dtype=int)
        if v.ndim != 2 or v.shape[0] != self.basis.p:
            raise DataError("coefficient rows must match basis columns")
        if t.shape != (v.shape[1],):
            raise DataError("coefficient times do not match columns")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "times", t)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n_time(self) -> int:
        return self.values.shape[1]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def _check_p(p: int, n_rows: int, n_time: int) -> None:
    if p < 1:
        raise ConfigError(f"number of patterns must be >= 1, got {p}")
    if p > min(n_rows, n_time):
        raise ConfigError(
            f"p={p} exceeds min(n_rows={n_rows}, n_time={n_time})"
        )


def compute_eof(f: FieldSeries, p: int) -> BasisSet:
    """Leading p EOFs of the anomaly matrix, with explained variance shares.

    The matrix is decomposed exactly as given (no further centering or
    scaling), so pass anomalies.  Warns when the p-th singular value is
    numerically zero relative to the first.
    """
    _check_p(p, f.n_loc, f.n_time)
    u, s, _ = np.linalg.svd(f.values, full_matrices=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        raise NumericError("anomaly matrix is identically zero")
    if s[p - 1] < _RANK_TOL * max(s[0], 1.0):
        warnings.warn(
            f"anomaly matrix is rank deficient: pattern {p} has ~zero variance",
            stacklevel=2,
        )
    return BasisSet(
        matrix=_fix_signs(u[:, :p]),
        coords=f.coords,
        kind="eof",
        explained_variance=s[:p] ** 2 / total,
    )


def compute_meof(forcing: FieldSeries, response: FieldSeries, p: int) -> BasisSet:
    """Joint EOFs of two fields standardized by their own total std and stacked."""
    if not np.array_equal(forcing.times, response.times):
        raise DataError("MEOF inputs must share the same time axis")
    n_rows = forcing.n_loc + response.n_loc
    _check_p(p, n_rows, forcing.n_time)
    sd_f = float(forcing.values.std())
    sd_r = float(response.values.std())
    if sd_f == 0.0 or sd_r == 0.0:
        raise NumericError("cannot standardize a zero-variance field for MEOF")
    stacked = np.vstack([forcing.values / sd_f, response.values / sd_r])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    if s[p - 1] < _RANK_TOL * max(s[0], 1.0):
        warnings.warn(
            f"stacked anomaly matrix is rank deficient: pattern {p} has ~zero variance",
            stacklevel=2,
        )
    return BasisSet(
        matrix=_fix_signs(u[:, :p]),
        coords=np.vstack([forcing.coords, response.coords]),
        kind="meof",
        explained_variance=s[:p] ** 2 / float(np.sum(s**2)),
        n_forcing_rows=forcing.n_loc,
    )


def split_block(b: BasisSet, which: str) -> BasisSet:
    """Slice the forcing or response rows out of a stacked (MEOF) basis.

    The slice is generally not orthonormal; projection handles that.
    """
    if b.n_forcing_rows is None:
        raise ConfigError("basis has no row split to slice")
    if which == "forcing":
        rows = slice(0, b.n_forcing_rows)
    elif which == "response":
        rows = slice(b.n_forcing_rows, b.matrix.shape[0])
    else:
        raise ConfigError(f"unknown block {which!r} (use forcing or response)")
    return BasisSet(
        matrix=b.matrix[rows],
        coords=b.coords[rows],
        kind=b.kind,
        block=which,
    )


@dataclass(frozen=True)
class CCAResult:
    forcing_basis: BasisSet
    response_basis: BasisSet
    correlations: np.ndarray
    ridged: bool


def _inv_sqrt_psd(c: np.ndarray, label: str) -> tuple[np.ndarray, bool]:
    """Inverse matrix square root, adding a diagonal ridge when singular."""
    ridged = False
    evals, evecs = np.linalg.eigh(c)
    if evals.min() < _RANK_TOL * max(evals.max(), 1.0):
        warnings.warn(
            f"singular within-set covariance for {label}; applying ridge {_CCA_RIDGE}",
            stacklevel=3,
        )
        ridged = True
        evals, evecs = np.linalg.eigh(c + _CCA_RIDGE * np.eye(c.shape[0]))
    if evals.min() <= 0.0:
        raise NumericError(f"within-set covariance for {label} is not positive definite")
    return (evecs / np.sqrt(evals)) @ evecs.T, ridged


def cca_from_coefficients(
    bx: np.ndarray, ay: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """CCA between paired coefficient samples (columns are observations).

    Returns (weights_x, weights_y, correlations, ridged).  Weight columns
    are deterministic: each pair is flipped so the largest-magnitude
    entry of the x-side weight vector is positive.
    """
    bx = np.asarray(bx, dtype=float)
    ay = np.asarray(ay, dtype=float)
    if bx.shape[1] != ay.shape[1]:
        raise DataError("coefficient samples must be paired")
    n = bx.shape[1]
    if n < 3:
        raise DataError(f"need at least 3 paired samples for CCA, got {n}")
    if p > min(bx.shape[0], ay.shape[0]):
        raise ConfigError(
            f"p={p} exceeds coefficient dimensions ({bx.shape[0]}, {ay.shape[0]})"
        )
    xc = bx - bx.mean(axis=1, keepdims=True)
    yc = ay - ay.mean(axis=1, keepdims=True)
    cxx = xc @ xc.T / (n - 1)
    cyy = yc @ yc.T / (n - 1)
    cxy = xc @ yc.T / (n - 1)
    wxx, r1 = _inv_sqrt_psd(cxx, "x")
    wyy, r2 = _inv_sqrt_psd(cyy, "y")
    u, s, vt = np.linalg.svd(wxx @ cxy @ wyy)
    wx = wxx @ u[:, :p]
    wy = wyy @ vt[:p].T
    idx = np.argmax(np.abs(wx), axis=0)
    signs = np.sign(wx[idx, np.arange(p)])
    signs[signs == 0] = 1.0
    return wx * signs, wy * signs, np.clip(s[:p], 0.0, 1.0), r1 or r2


def compute_cca(
    forcing: FieldSeries,
    response: FieldSeries,
    lead: int,
    p_pre: int,
    p: int,
) -> CCAResult:
    """Lagged CCA patterns: forcing at t paired with response at t + lead.

    Both fields are first reduced to p_pre EOF coefficients; the returned
    patterns are each EOF basis times its canonical weight matrix.
    """
    if lead < 0:
        raise ConfigError(f"lead must be >= 0, got {lead}")
    if not np.array_equal(forcing.times, response.times):
        raise DataError("CCA inputs must share the same time axis")
    if forcing.n_time - lead < 3:
        raise DataError("not enough lagged pairs for CCA")
    eof_f = compute_eof(forcing, p_pre)
    eof_r = compute_eof(response, p_pre)
    bx = project(forcing, eof_f).values
    ay = project(response, eof_r).values
    n_pairs = forcing.n_time - lead
    wx, wy, corrs, ridged = cca_from_coefficients(
        bx[:, :n_pairs], ay[:, lead:], p
    )
    return CCAResult(
        forcing_basis=BasisSet(
            matrix=eof_f.matrix @ wx,
            coords=forcing.coords,
            kind="cca",
            correlations=corrs,
            ridged=ridged,
        ),
        response_basis=BasisSet(
            matrix=eof_r.matrix @ wy,
            coords=response.coords,
            kind="cca",
            correlations=corrs,
            ridged=ridged,
        ),
        correlations=corrs,
        ridged=ridged,
    )


def project(f: FieldSeries, b: BasisSet) -> CoefficientSeries:
    """Least-squares coefficients of every time step on the basis columns."""
    if f.n_loc != b.matrix.shape[0]:
        raise DataError(
            f"field has {f.n_loc} locations but basis has {b.matrix.shape[0]} rows"
        )
    coeffs, _, rank, _ = np.linalg.lstsq(b.matrix, f.values, rcond=None)
    if rank < b.p:
        raise NumericError(
            f"basis columns are linearly dependent (rank {rank} < p {b.p})"
        )
    return CoefficientSeries(values=coeffs, times=f.times, basis=b)


def reconstruct(c: CoefficientSeries) -> FieldSeries:
    """Map coefficients back to the field grid of their basis."""
    return FieldSeries(
        values=c.basis.matrix @ c.values,
        coords=c.basis.coords,
        times=c.times,
    )


def save_basis(b: BasisSet, path: str) -> None:
    """Write patterns as wide-csv (lon,lat,b1..bp) plus a JSON sidecar."""
    meta = {
        "kind": b.kind,
        "explained_variance": None
        if b.explained_variance is None
        else [repr(float(v)) for v in b.explained_variance],
        "n_forcing_rows": b.n_forcing_rows,
        "correlations": None
        if b.correlations is None
        else [repr(float(v)) for v in b.correlations],
        "ridged": b.ridged,
        "block": b.block,
    }
    header = ["lon", "lat"] + [f"b{j + 1}" for j in range(b.p)]
    write_table(path, header, np.column_stack([b.coords, b.matrix]).tolist(), meta)


def load_basis(path: str) -> BasisSet:
    header, pairs = read_table(path)
    if header[:2] != ["lon", "lat"]:
        raise DataError(f"{path}:1: unexpected basis header")
    values = np.asarray(
        parse_rows(path, pairs, lambda row: [float(v) for v in row]), dtype=float
    ).reshape(-1, len(header))
    meta = read_meta(path)
    ev = meta.get("explained_variance")
    corrs = meta.get("correlations")
    return BasisSet(
        matrix=np.ascontiguousarray(values[:, 2:]),
        coords=np.ascontiguousarray(values[:, :2]),
        kind=meta["kind"],
        explained_variance=None if ev is None else np.asarray([float(v) for v in ev]),
        n_forcing_rows=meta.get("n_forcing_rows"),
        correlations=None if corrs is None else np.asarray([float(v) for v in corrs]),
        ridged=bool(meta.get("ridged", False)),
        block=meta.get("block"),
    )
