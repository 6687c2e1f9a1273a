"""Forecast verification scores and comparison tables.

MSE averages squared errors over every (location, target) cell.  The
anomaly correlation is uncentered: the sum over targets of the spatial
inner products between forecast and realized anomalies, divided by the
square root of the product of the two total energies (so it is scale
invariant and equals 1 for a perfect forecast).  The historical form
without the square root in the denominator is kept behind
``corrected=False`` for comparison with older tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import parse_rows, read_table, write_table
from .errors import ConfigError, DataError, NumericError


def _paired(actual: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 2:
        raise ConfigError(f"need equal 2-d shapes, got {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ConfigError("empty score inputs")
    return a, p


def mse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean squared error over all locations and targets."""
    a, p = _paired(actual, predicted)
    d = a - p
    return float(np.sum(d * d) / d.size)


def anomaly_correlation(
    actual: np.ndarray, predicted: np.ndarray, corrected: bool = True
) -> float:
    """Uncentered anomaly correlation over (n_loc, n_targets) anomalies."""
    a, p = _paired(actual, predicted)
    num = float(np.sum(p * a))
    e_p = float(np.sum(p * p))
    e_a = float(np.sum(a * a))
    if e_p == 0.0 or e_a == 0.0:
        raise NumericError("anomaly correlation undefined for an all-zero side")
    if corrected:
        return num / math.sqrt(e_p * e_a)
    return num / (e_p * e_a)


@dataclass(frozen=True)
class ScoreRow:
    region: int
    model: str
    lead: int
    mse: float
    ac: float
    n_targets: int


_SCORECARD_HEADER = ["region", "model", "lead", "mse", "ac", "n_targets"]


@dataclass
class ScoreCard:
    """Scores per (region, model, lead) with best-in-group flags."""

    rows: list[ScoreRow]

    def sorted_rows(self) -> list[ScoreRow]:
        return sorted(self.rows, key=lambda r: (r.region, r.lead, r.model))

    def flags(self) -> dict[tuple[int, str, int], tuple[bool, bool]]:
        """(is_best_mse, is_best_ac) per row, best within each (region, lead)."""
        groups: dict[tuple[int, int], list[ScoreRow]] = {}
        for r in self.rows:
            groups.setdefault((r.region, r.lead), []).append(r)
        out = {}
        for rows in groups.values():
            best_mse = min(r.mse for r in rows)
            best_ac = max(r.ac for r in rows)
            for r in rows:
                out[(r.region, r.model, r.lead)] = (r.mse == best_mse, r.ac == best_ac)
        return out

    def save(self, path: str) -> None:
        flags = self.flags()
        rows = []
        for r in self.sorted_rows():
            bm, ba = flags[(r.region, r.model, r.lead)]
            rows.append([r.region, r.model, r.lead, r.mse, r.ac, r.n_targets, int(bm), int(ba)])
        write_table(path, _SCORECARD_HEADER + ["is_best_mse", "is_best_ac"], rows)

    @staticmethod
    def load(path: str) -> "ScoreCard":
        header, pairs = read_table(path)
        if header[:6] != _SCORECARD_HEADER:
            raise DataError(f"{path}:1: unexpected scorecard header")
        rows = parse_rows(
            path, pairs,
            lambda r: ScoreRow(int(r[0]), r[1], int(r[2]), float(r[3]), float(r[4]), int(r[5])),
        )
        return ScoreCard(rows)


def score_forecasts(
    region: int,
    model: str,
    lead: int,
    actual: np.ndarray,
    predicted: np.ndarray,
    corrected_ac: bool = True,
) -> ScoreRow:
    """Bundle both scores for one (region, model, lead) block."""
    return ScoreRow(
        region=region,
        model=model,
        lead=lead,
        mse=mse(actual, predicted),
        ac=anomaly_correlation(actual, predicted, corrected=corrected_ac),
        n_targets=np.asarray(actual).shape[1],
    )
