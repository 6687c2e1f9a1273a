"""Reference forecast methods the analog model is compared against.

Labels follow the comparison tables produced by the CLI:

* M1 linear regression of future response coefficients on current
  forcing coefficients, with a constant term.
* M2 constructed analog: reconstruct the current forcing coefficients as
  a least-squares combination of library states and carry the weights
  forward.  With the same constant coordinate in its design, M2
  reproduces M1 exactly on full-rank problems.
* M3 / M4 per-location AR(1) / AR(2) fits, iterated over the lead.
* M5 per-location training-window mean (climatology).
* M6 previous-period persistence: the latest observed value of the
  target's phase at or before the initial condition, target -
  period * ceil(lead / period) with ``period`` the anomaly by_period.
* M7 persistence of an auxiliary series read at the target period
  (realistic only at very short leads).
* M8 (random forest) is not provided; the compare stage warns on stderr
  when it is requested and scores the other methods.

All row/column indices are 1-based time positions, matching the rest of
the package.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, DataError, NumericError

BASELINE_LABELS = {
    "M1": "linear regression on forcing coefficients",
    "M2": "constructed analog",
    "M3": "per-location AR(1)",
    "M4": "per-location AR(2)",
    "M5": "climatology (training mean)",
    "M6": "previous-period persistence",
    "M7": "auxiliary-series persistence",
}


def _check_positions(pos: np.ndarray, lo: int, hi: int, what: str) -> np.ndarray:
    pos = np.asarray(pos, dtype=int)
    if pos.size == 0:
        raise ConfigError(f"empty {what}")
    if pos.min() < lo or pos.max() > hi:
        raise ConfigError(f"{what} outside [{lo}, {hi}]")
    return pos


def fit_predict_linear(
    predictors: np.ndarray,
    responses: np.ndarray,
    train_ics: np.ndarray,
    test_ics: np.ndarray,
    tau: int,
) -> np.ndarray:
    """M1: ordinary least squares, with a constant term, from predictors
    at t to responses at t + tau.

    ``predictors`` is (p_x, T), ``responses`` is (p_y, T); returns
    (p_y, n_test) forecasts for the test initial conditions.
    """
    predictors = np.asarray(predictors, dtype=float)
    responses = np.asarray(responses, dtype=float)
    T = predictors.shape[1]
    if responses.shape[1] != T:
        raise DataError("predictors and responses cover different time spans")
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    train_ics = _check_positions(train_ics, 1, T - tau, "training periods")
    test_ics = _check_positions(test_ics, 1, T - tau, "test periods")
    design = np.column_stack([predictors[:, train_ics - 1].T, np.ones(train_ics.size)])
    targets = responses[:, train_ics + tau - 1].T
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        warnings.warn(
            f"rank-deficient regression design (rank {rank} < {design.shape[1]}); "
            "using the minimum-norm solution",
            stacklevel=2,
        )
    test_design = np.column_stack([predictors[:, test_ics - 1].T, np.ones(test_ics.size)])
    return (test_design @ coef).T


def constructed_analog(
    predictors: np.ndarray,
    responses: np.ndarray,
    library_ics: np.ndarray,
    test_ics: np.ndarray,
    tau: int,
) -> tuple[np.ndarray, np.ndarray]:
    """M2: least-squares reconstruction weights over library states.

    Each test state is expressed as a minimum-norm least-squares
    combination of the library predictor states (plus a constant
    coordinate, so the affine family matches M1); the same weights are
    applied to the library responses tau steps ahead.
    Returns (forecasts (p_y, n_test), weights (n_lib, n_test)).
    """
    predictors = np.asarray(predictors, dtype=float)
    responses = np.asarray(responses, dtype=float)
    T = predictors.shape[1]
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    library_ics = _check_positions(library_ics, 1, T - tau, "library periods")
    test_ics = _check_positions(test_ics, 1, T, "test periods")
    lib = np.vstack([predictors[:, library_ics - 1], np.ones(library_ics.size)])
    tgt = np.vstack([predictors[:, test_ics - 1], np.ones(test_ics.size)])
    weights, _, rank, _ = np.linalg.lstsq(lib, tgt, rcond=None)
    if rank < min(lib.shape):
        warnings.warn(
            f"rank-deficient analog library (rank {rank}); "
            "using minimum-norm weights",
            stacklevel=2,
        )
    forecasts = responses[:, library_ics + tau - 1] @ weights
    return forecasts, weights


def ar_forecast(
    values: np.ndarray,
    train_window: tuple[int, int],
    test_targets: np.ndarray,
    steps: int,
    order: int = 1,
) -> np.ndarray:
    """M3/M4: per-location AR(order) OLS fit iterated ``steps`` periods.

    The recursion starts from the observed values at target - steps, so a
    forecast never touches data at or after its own anchor + 1 ... target
    range beyond what the recursion itself generates.  Locations whose
    fit is degenerate fall back to the training-window mean.
    """
    values = np.asarray(values, dtype=float)
    n_loc, T = values.shape
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    w_lo, w_hi = train_window
    if not 1 <= w_lo <= w_hi <= T:
        raise ConfigError(f"bad training window ({w_lo}, {w_hi}) for length {T}")
    if w_hi - w_lo + 1 < order + 2:
        raise DataError(
            f"training window too short for AR({order}): {w_hi - w_lo + 1} periods"
        )
    test_targets = _check_positions(test_targets, 1, T, "test targets")
    anchors = test_targets - steps
    if anchors.min() - (order - 1) < 1:
        raise ConfigError("AR anchor (target - steps) reaches before the series start")

    rows = np.arange(w_lo + order, w_hi + 1)  # regression target positions
    coef = np.empty((n_loc, order + 1))
    fallback = values[:, w_lo - 1 : w_hi].mean(axis=1)
    n_degenerate = 0
    for i in range(n_loc):
        y = values[i, rows - 1]
        design = np.column_stack(
            [values[i, rows - 1 - k] for k in range(1, order + 1)]
            + [np.ones(rows.size)]
        )
        sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < order + 1 or not np.all(np.isfinite(sol)):
            n_degenerate += 1
            coef[i] = 0.0
            coef[i, -1] = fallback[i]
        else:
            coef[i] = sol
    if n_degenerate:
        warnings.warn(
            f"{n_degenerate} locations had degenerate AR fits; "
            "using the training mean there",
            stacklevel=2,
        )

    out = np.empty((n_loc, test_targets.size))
    for j, s in enumerate(test_targets):
        hist = [values[:, s - steps - 1 - k] for k in range(order)]  # newest first
        for _ in range(steps):
            nxt = coef[:, order].copy()
            for k in range(order):
                nxt += coef[:, k] * hist[k]
            hist = [nxt] + hist[: order - 1]
        out[:, j] = hist[0]
    return out


def climatology(
    values: np.ndarray, train_window: tuple[int, int], n_test: int
) -> np.ndarray:
    """M5: per-location mean over the training window, repeated."""
    values = np.asarray(values, dtype=float)
    w_lo, w_hi = train_window
    if not 1 <= w_lo <= w_hi <= values.shape[1]:
        raise ConfigError(f"bad training window ({w_lo}, {w_hi})")
    mean = values[:, w_lo - 1 : w_hi].mean(axis=1)
    return np.repeat(mean[:, None], n_test, axis=1)


def persistence_previous(
    values: np.ndarray, test_targets: np.ndarray, lead: int, period: int = 1
) -> np.ndarray:
    """M6: the latest observed value of each target's phase at or before
    its initial condition, target - period * ceil(lead / period).

    ``period`` is one cycle in time steps (the anomaly by_period), so
    yearly data forecast a year ahead reads the same phase a cycle before.
    """
    if period < 1:
        raise ConfigError(f"period must be >= 1, got {period}")
    if lead < 1:
        raise ConfigError(f"lead must be >= 1, got {lead}")
    back = period * -(-lead // period)
    values = np.asarray(values, dtype=float)
    test_targets = _check_positions(
        test_targets, back + 1, values.shape[1], "test targets"
    )
    return values[:, test_targets - 1 - back]


def persistence_aux(
    aux_values: np.ndarray, test_targets: np.ndarray, tau: int
) -> np.ndarray:
    """M7: the auxiliary series read at the target period itself.

    The auxiliary value for the target period must already be observed
    when the forecast is issued, which only holds at very short leads;
    longer leads get a warning rather than a hard error so comparison
    tables can still include the column.
    """
    aux_values = np.asarray(aux_values, dtype=float)
    test_targets = _check_positions(test_targets, 1, aux_values.shape[1], "test targets")
    if tau > 1:
        warnings.warn(
            f"auxiliary persistence at lead {tau} assumes the auxiliary value "
            "for the target period is already known",
            stacklevel=2,
        )
    return aux_values[:, test_targets - 1]

