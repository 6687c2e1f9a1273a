import warnings

import numpy as np
import pytest

from analogcast.baselines import (
    BASELINE_LABELS,
    ar_forecast,
    climatology,
    constructed_analog,
    fit_predict_linear,
    persistence_aux,
    persistence_previous,
)
from analogcast.errors import ConfigError, DataError
from oracles import normal_equations_fit


def test_linear_regression_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 60))
    y = rng.normal(size=(2, 60))
    train = np.arange(1, 41)
    test = np.array([45, 48, 50])
    tau = 3
    got = fit_predict_linear(x, y, train, test, tau)
    design = np.column_stack([x[:, train - 1].T, np.ones(train.size)])
    coef = normal_equations_fit(design, y[:, train + tau - 1].T)
    want = (np.column_stack([x[:, test - 1].T, np.ones(test.size)]) @ coef).T
    assert np.allclose(got, want, atol=1e-8)
    assert got.shape == (2, 3)


def test_constructed_analog_equals_regression_when_full_rank():
    # With more library states than predictor dimensions the analog
    # weights span the same affine family as the regression fit, so the
    # two baselines must agree.
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 80))
    y = rng.normal(size=(3, 80))
    lib = np.arange(5, 61)
    test = np.array([65, 70, 74])
    m2, weights = constructed_analog(x, y, lib, test, tau=4)
    m1 = fit_predict_linear(x, y, lib, test, tau=4)
    assert np.abs(m2 - m1).max() < 1e-6
    assert weights.shape == (56, 3)  # one weight per library state


def test_constructed_analog_recovers_exact_library_state():
    # A test state that IS a library state reconstructs as a one-hot
    # weight vector whenever the library columns, each with its constant
    # coordinate, are independent (here a 7 x 5 design of full rank).
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 30))
    y = rng.normal(size=(2, 30))
    lib = np.array([3, 7, 12, 18, 22])
    test = np.array([12])
    fc, weights = constructed_analog(x, y, lib, test, tau=2)
    want = np.zeros(5)
    want[2] = 1.0
    assert np.allclose(weights[:, 0], want, atol=1e-8)
    assert np.allclose(fc[:, 0], y[:, 12 + 2 - 1], atol=1e-8)


def _ar1_series(phi=0.6, c=0.4, n=500, sd=0.5, seed=3):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[0] = c / (1 - phi)
    for t in range(1, n):
        y[t] = c + phi * y[t - 1] + sd * rng.normal()
    return y[None, :]


def test_ar1_recovers_coefficient_and_iterates_consistently():
    values = _ar1_series()
    window = (1, 400)
    targets = np.array([430, 460])
    one = ar_forecast(values, window, targets, steps=1, order=1)
    # The 1-step forecast is affine in the anchor value: back out the
    # fitted coefficient from two anchors and check it against the truth.
    y0, y1 = values[0, 429 - 1], values[0, 459 - 1]
    phi_hat = (one[0, 1] - one[0, 0]) / (y1 - y0)
    c_hat = one[0, 0] - phi_hat * y0
    assert abs(phi_hat - 0.6) < 0.1
    # Multi-step output equals the hand-iterated recursion exactly.
    three = ar_forecast(values, window, targets, steps=3, order=1)
    for j, s in enumerate(targets):
        v = values[0, s - 3 - 1]
        for _ in range(3):
            v = c_hat + phi_hat * v
        assert np.isclose(three[0, j], v, atol=1e-8)


def test_ar2_matches_hand_recursion():
    rng = np.random.default_rng(4)
    n = 400
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 0.3 + 0.5 * y[t - 1] - 0.3 * y[t - 2] + 0.4 * rng.normal()
    values = y[None, :]
    window = (1, 350)
    probes = np.array([360, 370, 380])
    one = ar_forecast(values, window, probes, steps=1, order=2)
    design = np.column_stack(
        [values[0, probes - 2], values[0, probes - 3], np.ones(3)]
    )
    a1, a2, c = np.linalg.solve(design, one[0])
    assert abs(a1 - 0.5) < 0.15 and abs(a2 + 0.3) < 0.15
    two = ar_forecast(values, window, probes, steps=2, order=2)
    for j, s in enumerate(probes):
        first = c + a1 * values[0, s - 3] + a2 * values[0, s - 4]
        second = c + a1 * first + a2 * values[0, s - 3]
        assert np.isclose(two[0, j], second, atol=1e-8)


def test_ar_degenerate_fit_falls_back_to_window_mean():
    values = np.vstack([np.full(60, 2.5), np.random.default_rng(5).normal(size=60)])
    with pytest.warns(UserWarning, match="degenerate"):
        out = ar_forecast(values, (1, 40), np.array([50, 55]), steps=2, order=1)
    assert np.allclose(out[0], 2.5)
    assert np.isfinite(out[1]).all()


def test_climatology_is_window_mean():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(4, 50))
    out = climatology(values, (10, 30), 3)
    want = values[:, 9:30].mean(axis=1)
    assert out.shape == (4, 3)
    assert np.allclose(out, want[:, None], atol=1e-12)
    with pytest.raises(ConfigError):
        climatology(values, (30, 10), 3)


def test_persistence_baselines_read_the_right_columns():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(3, 40))
    aux = rng.normal(size=(2, 40))
    targets = np.array([20, 30, 40])
    # The latest same-phase value at or before the initial condition
    # target - lead: target - period * ceil(lead / period).
    for lead, period, back in ((1, 1, 1), (3, 1, 3), (3, 2, 4), (6, 6, 6), (1, 12, 12)):
        got = persistence_previous(values, targets, lead, period)
        assert np.array_equal(got, values[:, targets - 1 - back]), (lead, period)
    with pytest.raises(ConfigError):
        persistence_previous(values, np.array([1]), 1)  # nothing before period 1
    with pytest.raises(ConfigError):
        persistence_previous(values, np.array([3]), 3)  # the value would sit at 0
    with pytest.raises(ConfigError):
        persistence_previous(values, targets, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = persistence_aux(aux, targets, tau=1)
    assert np.array_equal(out, aux[:, targets - 1])
    with pytest.warns(UserWarning, match="already known"):
        persistence_aux(aux, targets, tau=6)


def test_baselines_never_read_outside_their_windows():
    # Poison every column a method has no business touching; the output
    # must not move by a single bit.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 60))
    y = rng.normal(size=(2, 60))
    train = np.arange(5, 41)
    test = np.array([48, 52])
    tau = 2

    m1 = fit_predict_linear(x, y, train, test, tau)
    m2, _ = constructed_analog(x, y, train, test, tau)
    xp, yp = x.copy(), y.copy()
    touched_x = np.union1d(train, test) - 1
    touched_y = train + tau - 1
    xp[:, np.setdiff1d(np.arange(60), touched_x)] = 1e6
    yp[:, np.setdiff1d(np.arange(60), touched_y)] = -1e6
    assert np.array_equal(fit_predict_linear(xp, yp, train, test, tau), m1)
    assert np.array_equal(constructed_analog(xp, yp, train, test, tau)[0], m2)

    values = rng.normal(size=(2, 60))
    window, steps, order = (1, 40), 3, 2
    targets = np.array([50, 57])
    base = ar_forecast(values, window, targets, steps, order)
    touched = np.union1d(
        np.arange(window[0], window[1] + 1),
        np.concatenate([targets - steps, targets - steps - 1]),
    )
    vp = values.copy()
    vp[:, np.setdiff1d(np.arange(60), touched - 1)] = 1e6
    assert np.array_equal(ar_forecast(vp, window, targets, steps, order), base)

    clim = climatology(values, window, 2)
    vp2 = values.copy()
    vp2[:, 40:] = 1e6  # beyond the window
    assert np.array_equal(climatology(vp2, window, 2), clim)

    # M6 reads nothing after the initial condition, target - lead.
    ic = 45
    vp3 = values.copy()
    vp3[:, ic:] = 1e6  # every column after the initial condition
    for lead, period in ((1, 1), (3, 1), (3, 2), (6, 6)):
        target = np.array([ic + lead])
        m6 = persistence_previous(values, target, lead, period)
        assert np.array_equal(persistence_previous(vp3, target, lead, period), m6)


def test_labels_and_validation_errors():
    assert set(BASELINE_LABELS) == {f"M{i}" for i in range(1, 8)}
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 30))
    y = rng.normal(size=(2, 30))
    with pytest.raises(ConfigError):
        fit_predict_linear(x, y, np.array([], dtype=int), np.array([5]), 1)
    with pytest.raises(ConfigError):
        fit_predict_linear(x, y, np.array([29]), np.array([5]), 2)  # train past end
    with pytest.raises(ConfigError):
        fit_predict_linear(x, y, np.array([5]), np.array([10]), 0)
    with pytest.raises(DataError):
        fit_predict_linear(x, y[:, :20], np.array([5]), np.array([10]), 1)
    with pytest.raises(ConfigError):
        ar_forecast(x, (1, 30), np.array([3]), steps=5, order=1)  # anchor < 1
    with pytest.raises(DataError):
        ar_forecast(x, (1, 3), np.array([10]), steps=1, order=2)  # window too short
    with pytest.raises(ConfigError):
        ar_forecast(x, (1, 30), np.array([10]), steps=1, order=3)
