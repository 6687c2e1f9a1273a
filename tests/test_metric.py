import numpy as np
import pytest

from analogcast.errors import ConfigError, NumericError
from analogcast.metric import (
    combined_distance,
    euclidean_distances,
    procrustes_distance,
    procrustes_distances,
)

from oracles import procrustes_oracle_q2


def _euclid(a, b) -> float:
    """One pair through the batched distance."""
    return float(euclidean_distances(np.asarray(a)[None], np.asarray(b)[None])[0, 0])


def test_euclidean_matches_direct_summation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        direct = np.sqrt(sum((a[i, j] - b[i, j]) ** 2 for i in range(3) for j in range(4)))
        assert abs(_euclid(a, b) - direct) < 1e-12


def test_euclidean_identity_and_shape_error():
    a = np.eye(2)
    assert _euclid(a, a) == 0.0
    assert abs(_euclid(a, np.zeros((2, 2))) - np.sqrt(2.0)) < 1e-15
    with pytest.raises(ConfigError):
        euclidean_distances(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))


def test_euclidean_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 4, 5))
        assert _euclid(a, c) <= _euclid(a, b) + _euclid(b, c) + 1e-12


def test_euclidean_batch_matches_scalar():
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(4, 5, 3))
    comps = rng.normal(size=(6, 5, 3))
    batch = euclidean_distances(targets, comps)
    for i in range(4):
        for j in range(6):
            assert abs(batch[i, j] - np.linalg.norm(targets[i] - comps[j])) < 1e-12


def test_procrustes_self_distance_zero():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = rng.normal(size=(5, 3))
        fit = procrustes_distance(b, b)
        assert fit.distance < 1e-10
        assert fit.raw_distance < 1e-10


def test_procrustes_rotation_is_orthogonal_and_scale_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.normal(size=(6, 3))
        c = rng.normal(size=(6, 3))
        fit = procrustes_distance(t, c)
        r = fit.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert fit.scale > 0


def test_procrustes_matches_brute_force_oracle_q2():
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = rng.normal(size=(3, 2))
        c = rng.normal(size=(3, 2))
        d = procrustes_distance(t, c).distance
        d_oracle = procrustes_oracle_q2(t, c)
        assert abs(d - d_oracle) < 1e-5


def test_procrustes_absorbs_scaled_rotated_target():
    # comparison = c * (target @ Q) is a perfect analog: distance 0.
    rng = np.random.default_rng(7)
    t = rng.normal(size=(5, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    fit = procrustes_distance(t, 2.7 * (t @ q))
    assert fit.distance < 1e-10


def test_procrustes_invariances_of_comparison():
    # The aligned residual ignores orthogonal right-multiplication and
    # positive rescaling of the comparison; the normalized distance keeps
    # the orthogonal invariance but scales inversely with the comparison
    # norm (its denominator), so scale invariance is asserted on raw.
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = rng.normal(size=(6, 3))
        c = rng.normal(size=(6, 3))
        base = procrustes_distance(t, c)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = procrustes_distance(t, c @ q)
        assert abs(rot.distance - base.distance) < 1e-8
        assert abs(rot.raw_distance - base.raw_distance) < 1e-8
        scale = rng.uniform(0.2, 5.0)
        sc = procrustes_distance(t, scale * c)
        assert abs(sc.raw_distance - base.raw_distance) < 1e-8
        assert abs(sc.distance - base.distance / scale) < 1e-8


def test_procrustes_asymmetry_witness():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 2))
    b = 3.0 * rng.normal(size=(4, 2))
    d_ab = procrustes_distance(a, b).distance
    d_ba = procrustes_distance(b, a).distance
    assert abs(d_ab - d_ba) > 1e-3


def test_procrustes_batch_matches_scalar():
    rng = np.random.default_rng(10)
    targets = rng.normal(size=(5, 4, 3))
    comps = rng.normal(size=(7, 4, 3))
    for norm in ("centered", "raw"):
        batch = procrustes_distances(targets, comps, scale_norm=norm)
        for i in range(5):
            for j in range(7):
                d = procrustes_distance(targets[i], comps[j], scale_norm=norm).distance
                assert abs(batch[i, j] - d) < 1e-10


def test_column_prefix_of_a_batch_is_bit_identical():
    # Engines read their candidate pool as a column prefix of a matrix
    # built for a wider pool.  Euclidean distances against a single column
    # may differ in the last bit, so prefixes start at two columns there.
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(60, 5, 8))
    stack[20:24] = 0.3  # degenerate embeddings: +inf Procrustes columns
    targets = stack[10:50]
    cases = [(euclidean_distances, 2, {})] + [
        (procrustes_distances, 1, {"scale_norm": norm}) for norm in ("centered", "raw")
    ]
    for fn, narrowest, kwargs in cases:
        for q in (2, 5, 8):
            full = fn(targets[:, :, :q], stack[:, :, :q], **kwargs)
            for width in (59, 41, 23, narrowest):
                part = fn(targets[:, :, :q], stack[:width, :, :q], **kwargs)
                assert np.array_equal(part, full[:, :width]), (fn.__name__, q, width)


def test_procrustes_random_pairs_stay_in_guard_band():
    # The normalizer gives no hard upper bound; empirically the value
    # stays under 1.2 at the operative embedding shape (12 patterns, 12
    # delays).  Smaller matrices can exceed it via norm-ratio spread.
    rng = np.random.default_rng(11)
    targets = rng.normal(size=(100, 12, 12))
    comps = rng.normal(size=(100, 12, 12))
    d = procrustes_distances(targets, comps)
    assert d.shape == (100, 100)
    assert d.min() >= 0.0
    assert d.max() <= 1.2


def test_procrustes_degenerate_comparison():
    t = np.random.default_rng(12).normal(size=(4, 2))
    flat = np.ones((4, 2))  # zero once column-centered
    with pytest.raises(NumericError):
        procrustes_distance(t, flat)
    batch = procrustes_distances(t[None], np.stack([flat, t]))
    assert np.isinf(batch[0, 0])
    # The batched identity relies on cancellation of norm terms, so it is
    # looser than the scalar path's direct subtraction.
    assert batch[0, 1] < 1e-6


def test_procrustes_scale_norm_variants_agree_on_centered_input():
    rng = np.random.default_rng(13)
    t = rng.normal(size=(6, 3))
    c = rng.normal(size=(6, 3))
    c -= c.mean(axis=0, keepdims=True)  # already centered: raw == centered
    a = procrustes_distance(t, c, scale_norm="centered")
    b = procrustes_distance(t, c, scale_norm="raw")
    assert abs(a.distance - b.distance) < 1e-12
    shifted = c + 5.0  # nonzero column means separate the two conventions
    a2 = procrustes_distance(t, shifted, scale_norm="centered")
    b2 = procrustes_distance(t, shifted, scale_norm="raw")
    assert abs(a2.scale - b2.scale) > 1e-6
    with pytest.raises(ConfigError):
        procrustes_distance(t, c, scale_norm="bogus")


def test_combined_distance_arithmetic_and_bounds():
    assert combined_distance(np.array([0.4]), np.array([0.8]), 0.25)[0] == pytest.approx(0.7)
    d_f = np.array([0.3, 0.6])
    d_r = np.array([0.9, 0.1])
    assert np.allclose(combined_distance(d_f, d_r, 1.0), d_f)
    assert np.allclose(combined_distance(d_f, d_r, 0.0), d_r)
    # An infinite (degenerate) distance on either side stays infinite at
    # every gamma, the endpoints included: never 0 * inf = NaN.
    for gamma, mid in ((0.0, 0.3), (0.5, 0.25), (1.0, 0.2)):
        got = combined_distance(np.array([np.inf, 0.2, 0.4]), np.array([0.5, 0.3, np.inf]), gamma)
        assert np.isinf(got[0]) and np.isinf(got[2]) and not np.isnan(got).any()
        assert got[1] == pytest.approx(mid)
    with pytest.raises(ConfigError):
        combined_distance(d_f, d_r, 1.5)
    with pytest.raises(ConfigError):
        combined_distance(d_f, np.array([0.9]), 0.5)
    with pytest.raises(ConfigError):
        combined_distance(np.array([-0.1, 0.2]), d_r, 0.5)
