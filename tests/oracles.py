"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (scalar
arithmetic, exhaustive grids, textbook linear algebra) so a mismatch
points at the production code, not at a shared shortcut.
"""

from __future__ import annotations

import math

import numpy as np

from analogcast.basis import BasisSet, CoefficientSeries
from analogcast.kernel import topk_weights
from analogcast.metric import combined_distance, euclidean_distances, procrustes_distances


def identity_series(values: np.ndarray, times=None) -> CoefficientSeries:
    """Wrap a raw (p, T) array as a coefficient series on an identity basis."""
    values = np.asarray(values, dtype=float)
    p, T = values.shape
    basis = BasisSet(
        matrix=np.eye(p),
        coords=np.column_stack([np.arange(p, dtype=float), np.zeros(p)]),
        kind="eof",
    )
    if times is None:
        times = np.arange(1, T + 1)
    return CoefficientSeries(values=values, times=np.asarray(times), basis=basis)


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
        tgt = library.matrix_at(t_initial)[None, :, :q]
        comps = np.stack([library.matrix_at(t)[:, :q] for t in candidates])
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


def _golden_min(f, lo: float, hi: float, iters: int = 60):
    """Scalar golden-section minimum of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _rot2(phi: float, reflect: bool) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    if reflect:
        return np.array([[c, s], [s, -c]])
    return np.array([[c, -s], [s, c]])


def procrustes_oracle_q2(target: np.ndarray, comparison: np.ndarray,
                         n_angles: int = 1440) -> float:
    """Brute-force normalized Procrustes distance for q = 2.

    Minimizes ||T~ - theta * C~ R(phi, reflect)||_F over a grid of
    rotation angles, both reflection flags, and a golden-section search
    on the positive scale, then refines the best angle with a nested
    golden-section pass.  Returns the residual divided by ||C~||_F.
    """
    t = np.asarray(target, dtype=float)
    c = np.asarray(comparison, dtype=float)
    tc = t - t.mean(axis=0, keepdims=True)
    cc = c - c.mean(axis=0, keepdims=True)
    c_norm = float(np.linalg.norm(cc))
    t_norm = float(np.linalg.norm(tc))
    theta_hi = 5.0 * (t_norm / c_norm + 1.0)

    def resid_at(phi: float, reflect: bool):
        cr = cc @ _rot2(phi, reflect)

        def f(theta: float) -> float:
            return float(np.linalg.norm(tc - theta * cr))

        _, val = _golden_min(f, 0.0, theta_hi)
        return val

    best = (math.inf, 0.0, False)
    grid = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    for reflect in (False, True):
        # Coarse pass: analytic-free residual at a golden-optimal scale
        # per angle, vectorized over the whole grid.
        cos, sin = np.cos(grid), np.sin(grid)
        if reflect:
            rots = np.stack(
                [np.stack([cos, sin], axis=-1), np.stack([sin, -cos], axis=-1)],
                axis=-2,
            )
        else:
            rots = np.stack(
                [np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)],
                axis=-2,
            )
        cr = np.einsum("pk,akr->apr", cc, rots)  # (n_angles, p, 2)
        lo = np.zeros(len(grid))
        hi = np.full(len(grid), theta_hi)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(40):
            x1 = hi - inv_phi * (hi - lo)
            x2 = lo + inv_phi * (hi - lo)
            r1 = np.linalg.norm(tc[None] - x1[:, None, None] * cr, axis=(1, 2))
            r2 = np.linalg.norm(tc[None] - x2[:, None, None] * cr, axis=(1, 2))
            take1 = r1 < r2
            hi = np.where(take1, x2, hi)
            lo = np.where(take1, lo, x1)
        theta = 0.5 * (lo + hi)
        res = np.linalg.norm(tc[None] - theta[:, None, None] * cr, axis=(1, 2))
        k = int(np.argmin(res))
        if res[k] < best[0]:
            best = (float(res[k]), float(grid[k]), reflect)

    # Fine pass: golden-section on the angle around the best grid point,
    # re-optimizing the scale inside.
    _, phi0, reflect = best
    step = 2.0 * math.pi / n_angles

    def angle_obj(phi: float) -> float:
        return resid_at(phi, reflect)

    _, res_fine = _golden_min(angle_obj, phi0 - 2.0 * step, phi0 + 2.0 * step)
    return min(best[0], res_fine) / c_norm


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
