"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (scalar
arithmetic, exhaustive grids, textbook linear algebra) so a mismatch
points at the production code, not at a shared shortcut.
"""

from __future__ import annotations

import math

import numpy as np

from analogcast.basis import BasisSet, CoefficientSeries
from analogcast.data import FieldSeries
from analogcast.embedding import EmbeddingLibrary
from analogcast.kernel import topk_weights
from analogcast.metric import combined_distance, euclidean_distances, procrustes_distances


def identity_series(values: np.ndarray) -> CoefficientSeries:
    """Wrap a raw (p, T) array as a coefficient series, read as the
    coefficients of an identity basis."""
    return CoefficientSeries(np.asarray(values, dtype=float))


def reconstruct(c: CoefficientSeries, basis: BasisSet, times) -> FieldSeries:
    """Map coefficients back to the field grid of ``basis`` at ``times``."""
    return FieldSeries(values=basis.matrix @ c.values, coords=basis.coords, times=times)


def embedding_at(lib: EmbeddingLibrary, t: int) -> np.ndarray:
    """The library's (p, q) embedding matrix at 1-based position t."""
    assert lib.first_valid <= t <= lib.n_time, f"position {t} outside the library"
    return lib.stack[t - lib.first_valid]


def weight_oracle(candidate_ids, distances, theta1: float, m: int):
    """Truncated Gaussian kernel weights by plain scalar arithmetic.

    Returns (weights aligned with the input order, support ids).  Ties in
    distance are broken toward the smaller candidate id.
    """
    pairs = sorted(zip(distances, candidate_ids))
    m_eff = min(m, len(pairs))
    support = pairs[:m_eff]
    raw = {}
    for d, cid in support:
        raw[cid] = math.exp(-(d * d) / (2.0 * theta1))
    total = sum(raw.values())
    weights = [raw.get(cid, 0.0) / total for cid in candidate_ids]
    return np.asarray(weights), [cid for _, cid in support]


def analog_mean(state, lib, responses, t_initial: int, tau: int, candidates,
                metric: str = "procrustes", aux_lib=None) -> np.ndarray:
    """Forecast mean for one initial condition, written out candidate by
    candidate: distances from the embedding at ``t_initial`` to each
    candidate embedding at the state's q, a scalar gamma mix for the
    combined metric (infinite on either side stays infinite), scalar
    kernel weights, then the weighted sum of the responses tau steps
    after each candidate."""
    q = state.q
    candidates = [int(t) for t in candidates]

    def dists(library, fn):
        tgt = embedding_at(library, t_initial)[None, :, :q]
        comps = np.stack([embedding_at(library, t)[:, :q] for t in candidates])
        return [float(d) for d in fn(tgt, comps)[0]]

    dist = dists(lib, euclidean_distances if metric == "euclidean" else procrustes_distances)
    if metric == "combined":
        g = state.gamma
        dist = [
            g * d_b + (1.0 - g) * d_a if math.isfinite(d_b) and math.isfinite(d_a) else math.inf
            for d_b, d_a in zip(dist, dists(aux_lib, procrustes_distances))
        ]
    weights, _ = weight_oracle(candidates, dist, state.theta1, state.m)
    mean = np.zeros(responses.p)
    for w, t in zip(weights, candidates):
        if w > 0.0:
            mean += w * responses.values[:, t + tau - 1]
    return mean


def full_distances(state, lib, index, t_initial=None, metric="procrustes",
                   aux_lib=None) -> np.ndarray:
    """The whole (rows x candidates) distance matrix at the state's q, built
    from scratch: every training period with its own exclusions at +inf when
    ``t_initial`` is None, else the one initial condition against the full
    pool."""
    q = state.q
    if t_initial is None:
        rows = index.training_periods - lib.first_valid
    else:
        rows = np.asarray([t_initial - lib.first_valid])
    comps = index.candidates - lib.first_valid

    def pairwise(library):
        t, c = library.stack[rows][:, :, :q], library.stack[comps][:, :, :q]
        if metric == "euclidean":
            return euclidean_distances(t, c)
        return procrustes_distances(t, c)

    dist = pairwise(lib)
    if metric == "combined":
        dist = combined_distance(dist, pairwise(aux_lib), state.gamma)
    if t_initial is None:
        dist = np.where(index.exclusion_mask(), np.inf, dist)
    return dist


def full_sort_means(state, lib, responses, index, t_initial=None, metric="procrustes",
                    aux_lib=None) -> np.ndarray:
    """(rows, p) analog means with a full row sort on every call: the whole
    distance matrix, ``topk_weights`` over it, then the weighted sum of
    candidate responses.  The engine's sorted views must equal it bit for
    bit."""
    dist = full_distances(state, lib, index, t_initial, metric, aux_lib)
    w, cols = topk_weights(dist, state.theta1, state.m)
    picked = responses.values[:, index.candidates[cols] + index.tau - 1]  # (p, rows, m)
    return np.einsum("nm,pnm->np", w, picked)


def full_sort_ssr(state, lib, responses, index, metric="procrustes", aux_lib=None) -> float:
    """Total squared residual of ``full_sort_means`` over the training periods."""
    targets = responses.values[:, index.training_periods + index.tau - 1].T
    resid = targets - full_sort_means(state, lib, responses, index, None, metric, aux_lib)
    return float(np.sum(resid * resid))


def procrustes_oracle_q2(target: np.ndarray, comparison: np.ndarray,
                         n_angles: int = 1440) -> float:
    """Brute-force normalized Procrustes distance for q = 2.

    Minimizes ||T~ - theta * C~ R(phi, reflect)||_F over a grid of
    rotation angles and both reflection flags, with a golden-section
    search on the positive scale at every angle, then refines the best
    angle on ever finer grids around it.  Each pass is vectorized over its
    angles; nothing is solved in closed form.  Returns the residual divided
    by ||C~||_F.
    """
    t = np.asarray(target, dtype=float)
    c = np.asarray(comparison, dtype=float)
    tc = t - t.mean(axis=0, keepdims=True)
    cc = c - c.mean(axis=0, keepdims=True)
    c_norm = float(np.linalg.norm(cc))
    t_norm = float(np.linalg.norm(tc))
    theta_hi = 5.0 * (t_norm / c_norm + 1.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def resid(phis: np.ndarray, reflect: bool, iters: int) -> np.ndarray:
        """Residual at each angle, at the scale a golden-section search
        finds for it; vectorized over the angles."""
        cos, sin = np.cos(phis), np.sin(phis)
        if reflect:
            rows = [np.stack([cos, sin], axis=-1), np.stack([sin, -cos], axis=-1)]
        else:
            rows = [np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)]
        cr = np.einsum("pk,akr->apr", cc, np.stack(rows, axis=-2))  # (n_angles, p, 2)
        # The search compares ||T~ - x C~R||^2 - ||T~||^2 = x (x b - 2 a).
        a = np.einsum("pr,apr->a", tc, cr)
        b = np.einsum("apr,apr->a", cr, cr)
        lo = np.zeros(len(phis))
        hi = np.full(len(phis), theta_hi)
        for _ in range(iters):
            x1 = hi - inv_phi * (hi - lo)
            x2 = lo + inv_phi * (hi - lo)
            take1 = x1 * (x1 * b - 2.0 * a) < x2 * (x2 * b - 2.0 * a)
            hi = np.where(take1, x2, hi)
            lo = np.where(take1, lo, x1)
        d = tc[None] - 0.5 * (lo + hi)[:, None, None] * cr
        return np.sqrt(np.einsum("apr,apr->a", d, d))

    # Coarse pass over the whole angle grid, both reflection flags.
    best = (math.inf, 0.0, False)
    grid = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    for reflect in (False, True):
        res = resid(grid, reflect, 40)
        k = int(np.argmin(res))
        if res[k] < best[0]:
            best = (float(res[k]), float(grid[k]), reflect)

    # Fine pass: 201 angles across two grid steps either side of the best
    # one, then again across two of those finer steps, three times over.
    res_best, phi, reflect = best
    half = 2.0 * (2.0 * math.pi / n_angles)
    for _ in range(3):
        phis = np.linspace(phi - half, phi + half, 201)
        res = resid(phis, reflect, 60)
        k = int(np.argmin(res))
        res_best, phi = min(res_best, float(res[k])), float(phis[k])
        half = 2.0 * (phis[1] - phis[0])
    return res_best / c_norm


def brute_training_index(lag: int, q_max: int, t_start: int, t_end: int,
                         tau: int, radius: int = 0):
    """Enumerate training periods and per-period candidate pools directly."""
    base_lo = lag * (q_max - 1) + 1
    periods = list(range(t_start, t_end + 1))
    pools = {}
    for t in periods:
        pool = [
            ell
            for ell in range(base_lo, t_end + 1)
            if ell + tau <= t_end and abs(ell - t) > radius
        ]
        pools[t] = pool
    return periods, pools


def normal_equations_fit(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Textbook (X'X)^-1 X'Y solve."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    return np.linalg.solve(x.T @ x, x.T @ y)
