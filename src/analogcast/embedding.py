"""Delay embedding of coefficient series and training index bookkeeping.

Positions are 1-based along the coefficient series.  The embedding at
position t is the (p, q) matrix whose columns are the coefficients at
t, t - lag, ..., t - lag*(q-1), so it exists for t >= lag*(q-1) + 1.

An ``EmbeddingLibrary`` stacks every valid embedding, the first at
position ``first_valid``.  A library built at the largest q under
consideration contains every smaller embedding as a column prefix, which
is what the sampler slices while it moves across q.  Candidate analog
sets always start at lag*(q_max - 1) + 1 so their size does not depend
on the current q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CoefficientSeries
from .errors import ConfigError


@dataclass(frozen=True)
class EmbeddingLibrary:
    """All valid delay-embedding matrices of one coefficient series."""

    stack: np.ndarray  # (n_entries, p, q); entry i is the embedding at first_valid + i
    first_valid: int  # 1-based position of the first entry
    lag: int
    n_time: int

    @property
    def q(self) -> int:
        return self.stack.shape[2]


def build_library(c: CoefficientSeries, lag: int, q: int) -> EmbeddingLibrary:
    """Stack every valid (p, q) delay embedding of the series.

    With lag 0 all q columns repeat the current coefficients and every
    position from 1 on is valid.
    """
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if lag < 0:
        raise ConfigError(f"lag must be >= 0, got {lag}")
    first = lag * (q - 1) + 1
    if first > c.n_time:
        raise ConfigError(
            f"series too short: first valid position {first} exceeds length {c.n_time}"
        )
    positions = np.arange(first, c.n_time + 1)
    # Column j of the embedding at position t holds the coefficients at
    # t - lag*j (positions are 1-based, array columns 0-based).
    col_idx = (positions[:, None] - 1) - lag * np.arange(q)[None, :]
    stack = c.values[:, col_idx].transpose(1, 0, 2)
    return EmbeddingLibrary(
        stack=np.ascontiguousarray(stack),
        first_valid=first,
        lag=lag,
        n_time=c.n_time,
    )


@dataclass(frozen=True)
class TrainingIndex:
    """Training periods and their analog candidate sets.

    Each training period t is an initial-condition time whose realized
    response sits tau steps ahead.  Candidates run from
    lag*(q_max - 1) + 1 through t_end - tau, t_end being the last
    training period: the lower bound keeps the pool size identical for
    every q up to q_max, the upper bound keeps every candidate's
    response inside the training window.  The period itself (plus any
    neighbor within ``exclusion_radius``) is dropped from its own pool,
    since its response is the prediction target.
    """

    training_periods: np.ndarray  # (n_train,) 1-based positions
    candidates: np.ndarray  # (n_cand,) shared base pool, ascending
    tau: int
    lag: int
    q_max: int
    exclusion_radius: int = 0

    @property
    def n_train(self) -> int:
        return self.training_periods.size

    def exclusion_mask(self) -> np.ndarray:
        """(n_train, n_cand) boolean array, True where a candidate is excluded."""
        diff = np.abs(self.candidates[None, :] - self.training_periods[:, None])
        return diff <= self.exclusion_radius


def candidate_pool_size(lag: int, q_max: int, t_end: int, tau: int) -> int:
    """Size of the shared candidate pool, positions lag*(q_max - 1) + 1
    through t_end - tau; it shrinks as the lead tau grows."""
    return t_end - tau - lag * (q_max - 1)


def build_training_index(
    lib: EmbeddingLibrary,
    t_start: int,
    t_end: int,
    tau: int,
    exclusion_radius: int = 0,
) -> TrainingIndex:
    """Enumerate training periods and candidate pools for a q_max library."""
    if tau < 1:
        raise ConfigError(f"lead tau must be >= 1, got {tau}")
    if exclusion_radius < 0:
        raise ConfigError(f"exclusion_radius must be >= 0, got {exclusion_radius}")
    base_lo = lib.lag * (lib.q - 1) + 1
    if t_start < base_lo:
        raise ConfigError(
            f"t_start={t_start} must be >= lag*(q_max-1)+1 = {base_lo} "
            "so every training period embeds at the largest q"
        )
    if t_start > t_end:
        raise ConfigError(f"t_start={t_start} exceeds t_end={t_end}")
    if t_end + tau > lib.n_time:
        raise ConfigError(
            f"t_end={t_end} + tau={tau} runs past the series end {lib.n_time}"
        )
    n_cand = candidate_pool_size(lib.lag, lib.q, t_end, tau)
    if n_cand < 1:
        raise ConfigError(
            f"no candidates: t_end - tau = {t_end - tau} is below {base_lo}"
        )
    index = TrainingIndex(
        training_periods=np.arange(t_start, t_end + 1),
        candidates=np.arange(base_lo, base_lo + n_cand),
        tau=tau,
        lag=lib.lag,
        q_max=lib.q,
        exclusion_radius=exclusion_radius,
    )
    if index.exclusion_mask().all(axis=1).any():
        raise ConfigError(
            "exclusion radius leaves an empty candidate pool for some training period"
        )
    return index
