import numpy as np
import pytest

from analogcast.embedding import build_library, build_training_index
from analogcast.errors import ConfigError

from oracles import brute_training_index, embedding_at, identity_series


def test_library_example_lag2_q3():
    # lag 2, q 3, T 10: first valid position is 2*2 + 1 = 5, six entries.
    series = identity_series(np.arange(20, dtype=float).reshape(2, 10))
    lib = build_library(series, lag=2, q=3)
    assert lib.first_valid == 5
    assert lib.stack.shape == (6, 2, 3)
    # Columns at position t are the coefficients at t, t-2, t-4.
    m = embedding_at(lib, 7)
    assert np.array_equal(m[:, 0], series.values[:, 6])
    assert np.array_equal(m[:, 1], series.values[:, 4])
    assert np.array_equal(m[:, 2], series.values[:, 2])


def test_library_column_prefix_property():
    rng = np.random.default_rng(30)
    series = identity_series(rng.normal(size=(3, 40)))
    full = build_library(series, lag=2, q=8)
    small = build_library(series, lag=2, q=3)
    # Every embedding at a smaller q is the column prefix of the larger one.
    for t in range(full.first_valid, full.n_time + 1):
        assert np.array_equal(embedding_at(full, t)[:, :3], embedding_at(small, t))


def test_library_rebuild_is_bit_identical():
    rng = np.random.default_rng(31)
    series = identity_series(rng.normal(size=(4, 30)))
    a = build_library(series, lag=1, q=5)
    b = build_library(series, lag=1, q=5)
    assert np.array_equal(a.stack, b.stack)
    assert a.first_valid == b.first_valid


def test_library_lag_zero_repeats_current():
    series = identity_series(np.random.default_rng(32).normal(size=(2, 6)))
    lib = build_library(series, lag=0, q=4)
    assert lib.first_valid == 1
    m = embedding_at(lib, 3)
    for j in range(4):
        assert np.array_equal(m[:, j], series.values[:, 2])


def test_library_errors():
    series = identity_series(np.zeros((2, 10)))
    with pytest.raises(ConfigError):
        build_library(series, lag=1, q=0)
    with pytest.raises(ConfigError):
        build_library(series, lag=-1, q=2)
    with pytest.raises(ConfigError):
        build_library(series, lag=5, q=4)  # first valid 16 > 10


def test_training_index_matches_brute_force_enumeration():
    rng = np.random.default_rng(33)
    series = identity_series(rng.normal(size=(2, 87)))
    lib = build_library(series, lag=1, q=24)
    idx = build_training_index(lib, t_start=24, t_end=87 - 6, tau=6)
    periods, pools = brute_training_index(
        lag=1, q_max=24, t_start=24, t_end=81, tau=6
    )
    assert idx.training_periods.tolist() == periods
    mask = idx.exclusion_mask()
    for i, t in enumerate(periods):
        got = idx.candidates[~mask[i]].tolist()
        assert got == pools[t]
        # No leakage: candidate responses stay inside the training window
        # and the period itself is never its own analog.
        assert all(ell + 6 <= 81 for ell in got)
        assert t not in got
    # Same reasoning at every q: the pool never depends on q because its
    # lower bound is pinned at the largest embedding extent.
    assert max(t - 1 for t in periods) >= 24


def test_training_index_exclusion_radius():
    series = identity_series(np.zeros((2, 60)))
    lib = build_library(series, lag=1, q=5)
    idx = build_training_index(lib, 10, 50, tau=2, exclusion_radius=3)
    _, pools = brute_training_index(1, 5, 10, 50, 2, radius=3)
    mask = idx.exclusion_mask()
    assert mask.shape == (idx.n_train, idx.candidates.size)
    for i, t in enumerate(idx.training_periods):
        assert idx.candidates[~mask[i]].tolist() == pools[int(t)]
    for i, t in enumerate(idx.training_periods):
        assert np.array_equal(mask[i], np.abs(idx.candidates - t) <= 3)


def test_training_index_pool_size_constant_across_periods_interior():
    series = identity_series(np.zeros((2, 87)))
    lib = build_library(series, lag=1, q=24)
    idx = build_training_index(lib, 24, 81, tau=6)
    # Periods inside the candidate range lose exactly one entry (itself).
    n_cand = idx.candidates.size
    mask = idx.exclusion_mask()
    for i, t in enumerate(idx.training_periods):
        lost = 1 if idx.candidates[0] <= t <= idx.candidates[-1] else 0
        assert np.count_nonzero(~mask[i]) == n_cand - lost


def test_training_index_errors():
    series = identity_series(np.zeros((2, 40)))
    lib = build_library(series, lag=1, q=6)
    with pytest.raises(ConfigError):
        build_training_index(lib, 3, 30, tau=1)  # below lag*(q-1)+1
    with pytest.raises(ConfigError):
        build_training_index(lib, 10, 40, tau=1)  # t_end + tau past the end
    with pytest.raises(ConfigError):
        build_training_index(lib, 10, 9, tau=1)
    with pytest.raises(ConfigError):
        build_training_index(lib, 10, 30, tau=0)
    with pytest.raises(ConfigError):
        build_training_index(lib, 6, 8, tau=2)  # lone candidate is period 6 itself
    lib2 = build_library(series, lag=1, q=6)
    with pytest.raises(ConfigError):
        build_training_index(lib2, 6, 8, tau=1, exclusion_radius=5)
