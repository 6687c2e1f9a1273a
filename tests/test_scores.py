import numpy as np
import pytest

from analogcast.errors import ConfigError, DataError, NumericError
from analogcast.scores import (
    ScoreCard,
    ScoreRow,
    anomaly_correlation,
    mse,
    score_forecasts,
)


def _pair(seed=0, shape=(7, 11)):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape), rng.normal(size=shape)


def test_anomaly_correlation_identities_are_exact():
    y, _ = _pair()
    assert anomaly_correlation(y, y) == 1.0
    assert anomaly_correlation(y, -y) == -1.0


def test_anomaly_correlation_scale_invariance():
    y, p = _pair(1)
    base = anomaly_correlation(y, p)
    # A power-of-two factor rescales every intermediate exactly.
    assert anomaly_correlation(y, 2.0 * p) == base
    assert anomaly_correlation(0.25 * y, p) == base
    assert abs(anomaly_correlation(y, 1.7 * p) - base) < 1e-12
    assert -1.0 - 1e-12 <= base <= 1.0 + 1e-12


def test_uncorrected_form_divides_by_energies():
    y, p = _pair(2)
    num = float((y * p).sum())
    lit = anomaly_correlation(y, p, corrected=False)
    assert np.isclose(lit, num / ((y * y).sum() * (p * p).sum()), atol=1e-14)
    # Without the square root the statistic shrinks when the forecast
    # amplitude grows: that is the defect the corrected form removes.
    assert np.isclose(anomaly_correlation(y, 2.0 * p, corrected=False), lit / 2.0)


def test_mse_matches_direct_summation():
    y, p = _pair(3, shape=(5, 9))
    total = 0.0
    for i in range(5):
        for j in range(9):
            total += (y[i, j] - p[i, j]) ** 2
    assert abs(mse(y, p) - total / 45.0) < 1e-12
    assert mse(y, y) == 0.0


def test_score_inputs_validated():
    y, p = _pair(4)
    with pytest.raises(NumericError):
        anomaly_correlation(y, np.zeros_like(y))
    with pytest.raises(NumericError):
        anomaly_correlation(np.zeros_like(y), p)
    with pytest.raises(ConfigError):
        mse(y, p[:, :5])
    with pytest.raises(ConfigError):
        mse(np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(ConfigError):
        anomaly_correlation(y.ravel(), p.ravel())


def test_scorecard_flags_mark_group_winners_and_ties():
    rows = [
        ScoreRow(1, "BA1", 3, mse=0.5, ac=0.9, n_targets=10),
        ScoreRow(1, "M1", 3, mse=0.7, ac=0.6, n_targets=10),
        ScoreRow(1, "M5", 3, mse=0.7, ac=0.9, n_targets=10),  # ties BA1 on ac
        ScoreRow(2, "BA1", 3, mse=1.0, ac=0.2, n_targets=10),
        ScoreRow(2, "M1", 3, mse=0.4, ac=0.8, n_targets=10),
    ]
    flags = ScoreCard(rows).flags()
    assert flags[(1, "BA1", 3)] == (True, True)
    assert flags[(1, "M1", 3)] == (False, False)
    assert flags[(1, "M5", 3)] == (False, True)  # shared best ac flagged too
    assert flags[(2, "M1", 3)] == (True, True)
    assert flags[(2, "BA1", 3)] == (False, False)


def test_scorecard_round_trip_and_errors(tmp_path):
    y, p = _pair(5)
    rows = [
        score_forecasts(1, "BA1", 6, y, p),
        score_forecasts(1, "M5", 6, y, np.full_like(p, 1e-3)),
        score_forecasts(2, "BA1", 6, p, y),
    ]
    card = ScoreCard(rows)
    path = str(tmp_path / "scorecard.csv")
    card.save(path)
    loaded = ScoreCard.load(path)
    assert loaded.rows == card.sorted_rows()
    assert loaded.flags() == card.flags()
    # Saving the loaded card reproduces the file byte for byte.
    path2 = str(tmp_path / "again.csv")
    loaded.save(path2)
    assert open(path).read() == open(path2).read()

    with pytest.raises(DataError, match="file not found"):
        ScoreCard.load(str(tmp_path / "missing.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty.csv: empty file"):
        ScoreCard.load(str(empty))
    bad = tmp_path / "bad.csv"
    bad.write_text("region,model\n")
    with pytest.raises(DataError, match="header"):
        ScoreCard.load(str(bad))
    mangled = tmp_path / "mangled.csv"
    mangled.write_text(
        "region,model,lead,mse,ac,n_targets,is_best_mse,is_best_ac\n"
        "1,BA1,three,0.5,0.9,10,1,1\n"
    )
    with pytest.raises(DataError, match="mangled.csv:2"):
        ScoreCard.load(str(mangled))


def test_score_forecasts_counts_targets():
    y, p = _pair(6, shape=(4, 13))
    row = score_forecasts(3, "M2", 1, y, p)
    assert row.n_targets == 13
    assert row.region == 3 and row.model == "M2" and row.lead == 1
    assert np.isclose(row.mse, mse(y, p))
    assert np.isclose(row.ac, anomaly_correlation(y, p))
