import math

import numpy as np
import pytest

from analogcast.errors import ConfigError, NumericError
from analogcast.kernel import topk_weights

from oracles import weight_oracle


def _pool_weights(distances, theta1, m):
    """topk_weights for one candidate pool, scattered back to pool order:
    (weights, support columns nearest first)."""
    distances = np.asarray(distances, dtype=float)
    w, cols = topk_weights(distances[None, :], theta1, m)
    full = np.zeros(distances.size)
    full[cols[0]] = w[0]
    return full, cols[0]


def test_two_candidate_example_matches_scalar_oracle():
    # distances {0.1, 0.2, 0.3} with theta1 = 0.5 and m = 2: the support is
    # the two nearest, weights proportional to exp(-0.005) and exp(-0.02).
    ids = np.array([1, 2, 3])
    d = np.array([0.1, 0.2, 0.3])
    w, cols = _pool_weights(d, theta1=0.5, m=2)
    expected, support = weight_oracle(ids, d, 0.5, 2)
    assert np.abs(w - expected).max() < 1e-12
    assert list(ids[cols]) == support == [1, 2]
    assert w[2] == 0.0
    a = math.exp(-0.1 ** 2 / 1.0)
    b = math.exp(-0.2 ** 2 / 1.0)
    assert w[0] == pytest.approx(a / (a + b), abs=1e-12)
    assert w[0] > w[1] > 0.49


def test_random_pools_match_oracle():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ids = rng.permutation(1000)[:n]
        d = rng.uniform(0.0, 3.0, size=n)
        theta1 = float(rng.uniform(0.05, 5.0))
        m = int(rng.integers(1, 20))
        w, cols = _pool_weights(d, theta1, m)
        expected, support = weight_oracle(ids, d, theta1, m)
        assert np.abs(w - expected).max() < 1e-12
        assert list(ids[cols]) == support
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.count_nonzero(w) == cols.size == min(m, n)


def test_weights_monotone_in_distance_within_support():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        d = rng.uniform(0.0, 2.0, size=n)
        w, _ = _pool_weights(d, float(rng.uniform(0.1, 2.0)), 5)
        inside = w > 0
        order = np.argsort(d[inside])
        w_sorted = w[inside][order]
        assert np.all(np.diff(w_sorted) <= 1e-15)


def test_h_max_is_mth_squared_distance():
    # The support ends at the m-th nearest candidate: the bandwidth edge
    # h_max is its squared distance, and everything farther gets zero.
    d = np.array([0.5, 1.5, 1.0, 2.0])
    w, cols = _pool_weights(d, 1.0, 3)
    assert d[cols[-1]] ** 2 == pytest.approx(1.5 ** 2)
    assert w[3] == 0.0


def test_tiny_theta1_concentrates_on_unique_minimum():
    d = np.array([0.4, 0.9, 1.3])
    w, _ = _pool_weights(d, theta1=1e-8, m=3)
    assert w[0] > 1.0 - 1e-6
    assert abs(w.sum() - 1.0) < 1e-12


def test_distance_ties_break_to_smaller_id():
    # Candidate ids are the columns, ascending, as in every training pool.
    d = np.array([0.7, 0.7, 0.7])
    w, cols = _pool_weights(d, 1.0, 2)
    assert list(cols) == [0, 1]
    assert w[2] == 0.0  # the last column lost the tie


def test_topk_rows_share_nothing():
    rng = np.random.default_rng(22)
    dist = rng.uniform(0.1, 2.0, size=(6, 15))
    w, cols = topk_weights(dist, 0.5, 4)
    assert w.shape == cols.shape == (6, 4)
    for i in range(6):
        expected, _ = weight_oracle(np.arange(15), dist[i], 0.5, 4)
        assert np.abs(np.sort(w[i]) - np.sort(expected[expected > 0])).max() < 1e-12


def test_topk_infinite_distances_are_excluded():
    dist = np.array([[0.5, np.inf, 0.2, np.inf]])
    w, cols = topk_weights(dist, 1.0, 3)
    picked = dict(zip(cols[0], w[0]))
    assert picked.get(1, 0.0) == 0.0 and picked.get(3, 0.0) == 0.0
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(NumericError):
        topk_weights(np.array([[np.inf, np.inf]]), 1.0, 1)


def test_validation_errors():
    with pytest.raises(ConfigError):
        topk_weights(np.array([[0.5]]), theta1=0.0, m=1)
    with pytest.raises(ConfigError):
        topk_weights(np.array([[0.5]]), theta1=1.0, m=0)
    with pytest.raises(ConfigError):
        topk_weights(np.zeros((1, 0)), theta1=1.0, m=1)
    with pytest.raises(ConfigError):
        topk_weights(np.array([[-0.1, 0.5]]), 1.0, 1)
    with pytest.raises(ConfigError):
        topk_weights(np.array([[np.nan, 0.5, 0.7]]), 1.0, 2)
    with pytest.raises(ConfigError):
        topk_weights(np.array([0.5, 0.2]), 1.0, 1)  # 1-d, not (rows, cands)
