"""Posterior sampling for the analog forecasting model.

The forecast rule is a kernel-weighted sum of historical responses: the
response coefficients tau steps after time t are modeled as Gaussian
around sum_l w(B_t, B_l) * alpha_{l + tau}, where B are delay embeddings
of forcing coefficients and w is the truncated Gaussian kernel over the
m nearest candidates.  Tuning parameters (theta1, m, q, noise variance,
and optionally the distance mix gamma) get a Metropolis-within-Gibbs
sampler: the noise variance has a conjugate inverse-gamma draw, theta1
moves by a random walk on its log, m and q take reflected unit steps,
gamma a reflected uniform step.

Likelihood evaluations reduce to one cached (train x candidate) distance
matrix per q: embeddings at smaller q are column prefixes of the q_max
library, and distances never depend on theta1 or m.

A ``Chain`` keeps its trace by column, one array per sampled parameter
over all iterations (gamma only when the state carries one), and
``save_chain`` writes it as one CSV row per iteration.  ``Chain.retained``
rebuilds ``ModelState``s where the engine needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSet, CoefficientSeries
from .data import parse_rows, read_meta, read_table, write_table
from .embedding import EmbeddingLibrary, TrainingIndex
from .errors import ConfigError, DataError, NumericError
from .kernel import topk_weights
from .metric import METRICS, combined_distance, euclidean_distances, procrustes_distances


@dataclass(frozen=True)
class PriorConfig:
    """Prior hyperparameters for the sampled tuning parameters.

    Defaults: m ~ DU(1, 15), q ~ DU(2, 24), theta1 ~ IG(2, 1), noise
    variance ~ IG(0.001, 0.001), and a Uniform(0, 1) distance mix when
    ``with_gamma`` is on.
    """

    m_min: int = 1
    m_max: int = 15
    q_min: int = 2
    q_max: int = 24
    theta1_shape: float = 2.0
    theta1_rate: float = 1.0
    sigma2_shape: float = 0.001
    sigma2_rate: float = 0.001
    with_gamma: bool = False

    def __post_init__(self):
        if not 1 <= self.m_min <= self.m_max:
            raise ConfigError(f"bad m range [{self.m_min}, {self.m_max}]")
        if not 1 <= self.q_min <= self.q_max:
            raise ConfigError(f"bad q range [{self.q_min}, {self.q_max}]")
        for name in ("theta1_shape", "theta1_rate", "sigma2_shape", "sigma2_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")


@dataclass(frozen=True)
class ModelState:
    """One point in the tuning-parameter space."""

    theta1: float
    m: int
    q: int
    sigma2: float
    gamma: float | None = None

    def __post_init__(self):
        if self.theta1 <= 0:
            raise ConfigError(f"theta1 must be > 0, got {self.theta1}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.m < 1 or self.q < 1:
            raise ConfigError("m and q must be >= 1")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class SamplerConfig:
    """Proposal tuning for the Metropolis sub-steps."""

    theta1_prop_sd: float = 1.2  # random-walk sd on log(theta1)
    gamma_prop_width: float = 0.2  # half-width of the reflected uniform step
    mq_proposal: str = "walk"  # "walk" (reflected +-1) or "uniform" (full support)

    def __post_init__(self):
        if self.theta1_prop_sd <= 0 or self.gamma_prop_width <= 0:
            raise ConfigError("proposal scales must be > 0")
        if self.mq_proposal not in ("walk", "uniform"):
            raise ConfigError(f"unknown mq_proposal {self.mq_proposal!r}")


def ig_logpdf(x: float, shape: float, rate: float) -> float:
    """Log density of the inverse gamma with pdf ~ x^-(a+1) exp(-b/x)."""
    if x <= 0:
        return -math.inf
    return (
        shape * math.log(rate)
        - math.lgamma(shape)
        - (shape + 1.0) * math.log(x)
        - rate / x
    )


def gaussian_loglik(ssr: float, n_terms: int, sigma2: float) -> float:
    """Sum of independent N(mean, sigma2) log densities with total squared
    residual ``ssr`` over ``n_terms`` scalar terms."""
    if n_terms == 0:
        return 0.0
    if sigma2 <= 0:
        raise NumericError("noise variance must be > 0 in the likelihood")
    return -0.5 * n_terms * math.log(2.0 * math.pi * sigma2) - ssr / (2.0 * sigma2)


class AnalogEngine:
    """Caches distances and evaluates residuals for one training setup.

    Parameters
    ----------
    lib : EmbeddingLibrary
        Forcing embeddings built at the largest q the sampler may visit.
    responses : CoefficientSeries
        Response coefficients on the same 1-based time axis.
    index : TrainingIndex
        Training periods and candidate pools (built from ``lib``).
    metric : str
        "procrustes", "euclidean", or "combined" (needs ``aux_lib``).
    aux_lib : EmbeddingLibrary, optional
        Response-side embeddings for the combined distance, built with the
        same lag and q as ``lib``.
    """

    def __init__(
        self,
        lib: EmbeddingLibrary,
        responses: CoefficientSeries,
        index: TrainingIndex,
        metric: str = "procrustes",
        scale_norm: str = "centered",
        aux_lib: EmbeddingLibrary | None = None,
    ):
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r} (use one of {METRICS})")
        if index.q_max != lib.q or index.lag != lib.lag:
            raise ConfigError("training index was not built from this library")
        if responses.n_time != lib.n_time:
            raise DataError("responses and embeddings cover different time spans")
        if metric == "combined":
            if aux_lib is None:
                raise ConfigError("combined metric needs an auxiliary library")
            if aux_lib.q != lib.q or aux_lib.lag != lib.lag:
                raise ConfigError("auxiliary library must share lag and q_max")
            if aux_lib.n_time != lib.n_time:
                raise DataError("auxiliary library covers a different time span")
        elif aux_lib is not None:
            raise ConfigError(f"metric {metric!r} does not use an auxiliary library")
        self.lib = lib
        self.responses = responses
        self.index = index
        self.metric = metric
        self.scale_norm = scale_norm
        self.aux_lib = aux_lib
        self.n_terms = index.n_train * responses.p
        resp_cols = index.training_periods + index.tau - 1
        self._targets = responses.values[:, resp_cols].T  # (n_train, p)
        self._cand_resp_cols = index.candidates + index.tau - 1
        self._excl = index.exclusion_mask()
        self._train_rows = index.training_periods - lib.first_valid
        self._cand_rows = index.candidates - lib.first_valid
        self._train_cache: dict[int, tuple] = {}
        self._oos_cache: dict[tuple[int, int], tuple] = {}

    def _pairwise(self, lib: EmbeddingLibrary, rows: np.ndarray, q: int) -> np.ndarray:
        targets = lib.stack[rows][:, :, :q]
        comps = lib.stack[self._cand_rows][:, :, :q]
        if self.metric == "euclidean":
            return euclidean_distances(targets, comps)
        return procrustes_distances(targets, comps, scale_norm=self.scale_norm)

    def _distances(self, cache: dict, key, rows: np.ndarray, state: ModelState) -> np.ndarray:
        """Distances from the embeddings at ``rows`` to every candidate at the
        state's q, computed once per ``key`` and mixed at the state's gamma."""
        combined = self.metric == "combined"
        if key not in cache:
            main = self._pairwise(self.lib, rows, state.q)
            cache[key] = (main, self._pairwise(self.aux_lib, rows, state.q) if combined else None)
        main, aux = cache[key]
        return combined_distance(main, aux, state.gamma) if combined else main

    def _weighted_means(self, dist: np.ndarray, state: ModelState) -> np.ndarray:
        """(n_rows, p) kernel-weighted candidate responses, one row per
        distance row."""
        w, cols = topk_weights(dist, state.theta1, state.m)
        picked = self.responses.values[:, self._cand_resp_cols[cols]]  # (p, n_rows, m)
        return np.einsum("nm,pnm->np", w, picked)

    def ssr(self, state: ModelState) -> float:
        """Total squared residual of the analog means at this state."""
        self._check_state(state)
        dist = self._distances(self._train_cache, state.q, self._train_rows, state)
        dist = np.where(self._excl, np.inf, dist)
        resid = self._targets - self._weighted_means(dist, state)
        return float(np.sum(resid * resid))

    def predictive_mean(self, state: ModelState, t_initial: int) -> np.ndarray:
        """Analog mean forecast from initial condition ``t_initial`` using
        only candidates whose responses fall inside the training window."""
        self._check_state(state)
        row = np.asarray([t_initial - self.lib.first_valid])
        if row[0] < 0:
            raise ConfigError(f"initial condition {t_initial} has no embedding at q_max")
        dist = self._distances(self._oos_cache, (state.q, t_initial), row, state)
        return self._weighted_means(dist, state)[0]

    def _check_state(self, state: ModelState) -> None:
        if state.q > self.lib.q:
            raise ConfigError(f"state q={state.q} exceeds library q_max={self.lib.q}")
        if self.metric == "combined" and state.gamma is None:
            raise ConfigError("combined metric needs gamma in the state")


# --- Metropolis-within-Gibbs sub-steps -------------------------------------


def draw_sigma2(rng: np.random.Generator, priors: PriorConfig, n_terms: int, ssr: float) -> float:
    """Conjugate inverse-gamma draw for the noise variance."""
    shape = priors.sigma2_shape + 0.5 * n_terms
    rate = priors.sigma2_rate + 0.5 * ssr
    g = float(rng.gamma(shape))
    if g == 0.0:
        # Gamma draws underflow with high probability when shape is tiny
        # (vague prior, no data terms); clamp so the draw stays finite.
        g = float(np.finfo(float).tiny)
    return rate / g


def _accept(rng: np.random.Generator, log_ratio: float) -> bool:
    return rng.random() < math.exp(min(log_ratio, 0.0))


def update_sigma2(state, ssr, rng, priors, ssr_fn, n_terms):
    new = draw_sigma2(rng, priors, n_terms, ssr)
    return replace(state, sigma2=new), ssr, True


def update_theta1(state, ssr, rng, priors, ssr_fn, n_terms, prop_sd=1.2):
    """Random walk on log(theta1); the Jacobian term log(theta1'/theta1)
    keeps the move targeting the posterior of theta1 itself."""
    prop_val = math.exp(math.log(state.theta1) + prop_sd * rng.standard_normal())
    prop = replace(state, theta1=prop_val)
    ssr_p = ssr_fn(prop)
    log_ratio = (
        gaussian_loglik(ssr_p, n_terms, state.sigma2)
        - gaussian_loglik(ssr, n_terms, state.sigma2)
        + ig_logpdf(prop_val, priors.theta1_shape, priors.theta1_rate)
        - ig_logpdf(state.theta1, priors.theta1_shape, priors.theta1_rate)
        + math.log(prop_val)
        - math.log(state.theta1)
    )
    if _accept(rng, log_ratio):
        return prop, ssr_p, True
    return state, ssr, False


def _reflect_int(x: int, lo: int, hi: int) -> int:
    if lo == hi:
        return lo  # a one-value support has nowhere to step to
    if x < lo:
        return 2 * lo - x
    if x > hi:
        return 2 * hi - x
    return x


def _propose_int(cur: int, lo: int, hi: int, rng, how: str) -> int:
    if how == "uniform":
        return int(rng.integers(lo, hi + 1))
    step = 1 if rng.random() < 0.5 else -1
    return _reflect_int(cur + step, lo, hi)


def _update_int(state, ssr, rng, priors, ssr_fn, n_terms, attr, lo, hi, how):
    prop_val = _propose_int(getattr(state, attr), lo, hi, rng, how)
    if prop_val == getattr(state, attr):
        return state, ssr, True  # reflected onto itself, a sure self-move
    prop = replace(state, **{attr: prop_val})
    ssr_p = ssr_fn(prop)
    log_ratio = gaussian_loglik(ssr_p, n_terms, state.sigma2) - gaussian_loglik(
        ssr, n_terms, state.sigma2
    )  # flat prior and symmetric proposal cancel
    if _accept(rng, log_ratio):
        return prop, ssr_p, True
    return state, ssr, False


def update_m(state, ssr, rng, priors, ssr_fn, n_terms, how="walk"):
    return _update_int(state, ssr, rng, priors, ssr_fn, n_terms, "m", priors.m_min, priors.m_max, how)


def update_q(state, ssr, rng, priors, ssr_fn, n_terms, how="walk"):
    return _update_int(state, ssr, rng, priors, ssr_fn, n_terms, "q", priors.q_min, priors.q_max, how)


def _reflect_unit(x: float) -> float:
    x = abs(x)
    return 2.0 - x if x > 1.0 else x


def update_gamma(state, ssr, rng, priors, ssr_fn, n_terms, width=0.2):
    prop_val = _reflect_unit(state.gamma + rng.uniform(-width, width))
    prop = replace(state, gamma=prop_val)
    ssr_p = ssr_fn(prop)
    log_ratio = gaussian_loglik(ssr_p, n_terms, state.sigma2) - gaussian_loglik(
        ssr, n_terms, state.sigma2
    )
    if _accept(rng, log_ratio):
        return prop, ssr_p, True
    return state, ssr, False


def mwg_step(
    state: ModelState,
    rng: np.random.Generator,
    priors: PriorConfig,
    ssr_fn,
    n_terms: int,
    config: SamplerConfig = SamplerConfig(),
    ssr: float | None = None,
):
    """One full sweep over sigma2, theta1, m, q (and gamma when sampled).

    ``ssr_fn(state) -> float`` supplies the total squared residual; pass a
    constant function to sample the priors.  Returns the new state, its
    residual, and a dict of per-parameter acceptance flags.
    """
    if ssr is None:
        ssr = ssr_fn(state)
    acc = {}
    state, ssr, acc["sigma2"] = update_sigma2(state, ssr, rng, priors, ssr_fn, n_terms)
    state, ssr, acc["theta1"] = update_theta1(
        state, ssr, rng, priors, ssr_fn, n_terms, config.theta1_prop_sd
    )
    state, ssr, acc["m"] = update_m(state, ssr, rng, priors, ssr_fn, n_terms, config.mq_proposal)
    state, ssr, acc["q"] = update_q(state, ssr, rng, priors, ssr_fn, n_terms, config.mq_proposal)
    if priors.with_gamma:
        if state.gamma is None:
            raise ConfigError("with_gamma priors need a state with gamma set")
        state, ssr, acc["gamma"] = update_gamma(
            state, ssr, rng, priors, ssr_fn, n_terms, config.gamma_prop_width
        )
    return state, ssr, acc


def log_posterior(state: ModelState, ssr: float, n_terms: int, priors: PriorConfig) -> float:
    lp = gaussian_loglik(ssr, n_terms, state.sigma2)
    lp += ig_logpdf(state.theta1, priors.theta1_shape, priors.theta1_rate)
    lp += ig_logpdf(state.sigma2, priors.sigma2_shape, priors.sigma2_rate)
    lp -= math.log(priors.m_max - priors.m_min + 1)
    lp -= math.log(priors.q_max - priors.q_min + 1)
    return lp


@dataclass
class Chain:
    """Full sampler trace stored by column.

    ``draws`` maps theta1, m, q, sigma2 (and gamma when the state carries
    one), in ``ModelState`` field order, to arrays over all iterations;
    ``arrays()`` and ``retained()`` drop the burn-in prefix.
    """

    draws: dict[str, np.ndarray]
    log_posts: np.ndarray
    burn_in: int
    accept_rates: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        n = len(self.log_posts)
        if self.burn_in < 0 or self.burn_in >= n:
            raise ConfigError(f"burn_in={self.burn_in} must lie in [0, iterations={n})")

    def retained(self, thin: int = 1) -> list[ModelState]:
        """Every ``thin``-th state after the burn-in, as ``ModelState``s."""
        cols = [v[self.burn_in :: thin].tolist() for v in self.draws.values()]
        return [ModelState(*values) for values in zip(*cols)]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v[self.burn_in :] for k, v in self.draws.items()}

    def mode_mq(self) -> tuple[int, int]:
        """Most frequent retained (m, q) pair; ties go to the smallest pair."""
        r = self.arrays()
        pairs, counts = np.unique(np.column_stack([r["m"], r["q"]]), axis=0, return_counts=True)
        m, q = pairs[np.argmax(counts)]
        return int(m), int(q)


def default_init(priors: PriorConfig) -> ModelState:
    """Deterministic mid-prior starting point."""
    return ModelState(
        theta1=1.0,
        m=(priors.m_min + priors.m_max) // 2,
        q=(priors.q_min + priors.q_max) // 2,
        sigma2=1.0,
        gamma=0.5 if priors.with_gamma else None,
    )


def run_chain(
    lib: EmbeddingLibrary,
    responses: CoefficientSeries,
    index: TrainingIndex,
    priors: PriorConfig,
    iterations: int = 5000,
    burn_in: int = 500,
    seed: int = 0,
    metric: str = "procrustes",
    scale_norm: str = "centered",
    aux_lib: EmbeddingLibrary | None = None,
    config: SamplerConfig = SamplerConfig(),
    init: ModelState | None = None,
    ssr_fn=None,
    n_terms: int | None = None,
) -> Chain:
    """Run the Metropolis-within-Gibbs sampler and keep the whole trace.

    ``ssr_fn``/``n_terms`` default to the analog engine on the given data;
    tests may override them (e.g. constants) to sample the priors alone.
    """
    if iterations <= burn_in:
        raise ConfigError(
            f"iterations={iterations} must exceed burn_in={burn_in}"
        )
    if priors.q_max > lib.q:
        raise ConfigError(
            f"priors allow q up to {priors.q_max} but library has q_max={lib.q}"
        )
    if ssr_fn is None:
        engine = AnalogEngine(lib, responses, index, metric, scale_norm, aux_lib)
        ssr_fn = engine.ssr
        n_terms = engine.n_terms
    elif n_terms is None:
        raise ConfigError("custom ssr_fn needs an explicit n_terms")
    rng = np.random.default_rng(seed)
    state = default_init(priors) if init is None else init
    if priors.with_gamma and state.gamma is None:
        state = replace(state, gamma=0.5)
    ssr = ssr_fn(state)
    names = ("theta1", "m", "q", "sigma2") + (() if state.gamma is None else ("gamma",))
    draws = {k: np.empty(iterations, dtype=int if k in ("m", "q") else float) for k in names}
    log_posts = np.empty(iterations)
    counts: dict[str, int] = {}
    for it in range(iterations):
        state, ssr, acc = mwg_step(state, rng, priors, ssr_fn, n_terms, config, ssr)
        for k, ok in acc.items():
            counts[k] = counts.get(k, 0) + int(ok)
        for k, col in draws.items():
            col[it] = getattr(state, k)
        log_posts[it] = log_posterior(state, ssr, n_terms, priors)
    rates = {k: v / iterations for k, v in sorted(counts.items())}
    return Chain(draws=draws, log_posts=log_posts, burn_in=burn_in, accept_rates=rates, seed=seed)


@dataclass(frozen=True)
class ForecastDistribution:
    """Posterior predictive draws for one initial condition.

    Field draws are the coefficient draws pushed through the response
    basis, so the field-space mean is the basis times the coefficient
    mean by linearity.
    """

    initial_time: int
    target_time: int
    coeff_draws: np.ndarray  # (n_draws, p)
    field_draws: np.ndarray  # (n_draws, n_loc)
    coeff_mean: np.ndarray
    coeff_lo: np.ndarray
    coeff_hi: np.ndarray
    field_mean: np.ndarray
    field_lo: np.ndarray
    field_hi: np.ndarray


def posterior_predict(
    chain: Chain,
    lib: EmbeddingLibrary,
    responses: CoefficientSeries,
    index: TrainingIndex,
    t_initial: int,
    basis: BasisSet,
    n_draws: int | None = None,
    thin: int = 5,
    seed: int = 0,
    metric: str = "procrustes",
    scale_norm: str = "centered",
    aux_lib: EmbeddingLibrary | None = None,
    engine: AnalogEngine | None = None,
    level: float = 0.95,
) -> ForecastDistribution:
    """Posterior predictive for the response ``index.tau`` steps after
    ``t_initial``: one Gaussian draw around the analog mean per retained
    (thinned) state, cycling over states when ``n_draws`` asks for more."""
    if thin < 1:
        raise ConfigError(f"thin must be >= 1, got {thin}")
    if engine is None:
        engine = AnalogEngine(lib, responses, index, metric, scale_norm, aux_lib)
    kept = chain.retained(thin)
    if not kept:
        raise ConfigError("no retained states to predict from")
    if n_draws is None:
        n_draws = len(kept)
    if n_draws < 1:
        raise ConfigError(f"n_draws must be >= 1, got {n_draws}")
    rng = np.random.default_rng(seed)
    p = responses.p
    draws = np.empty((n_draws, p))
    mean_cache: dict = {}
    for i in range(n_draws):
        s = kept[i % len(kept)]
        key = (s.theta1, s.m, s.q, s.gamma)
        if key not in mean_cache:
            mean_cache[key] = engine.predictive_mean(s, t_initial)
        draws[i] = mean_cache[key] + math.sqrt(s.sigma2) * rng.standard_normal(p)
    field = draws @ basis.matrix.T
    alpha = 0.5 * (1.0 - level)
    return ForecastDistribution(
        initial_time=t_initial,
        target_time=t_initial + index.tau,
        coeff_draws=draws,
        field_draws=field,
        coeff_mean=draws.mean(axis=0),
        coeff_lo=np.quantile(draws, alpha, axis=0),
        coeff_hi=np.quantile(draws, 1.0 - alpha, axis=0),
        field_mean=field.mean(axis=0),
        field_lo=np.quantile(field, alpha, axis=0),
        field_hi=np.quantile(field, 1.0 - alpha, axis=0),
    )


_CHAIN_HEADER = ["iter", "theta1", "m", "q", "sigma2", "gamma", "log_post"]


def save_chain(chain: Chain, path: str, extra_meta: dict | None = None) -> None:
    """Write the full trace as CSV plus a JSON sidecar with burn-in,
    acceptance rates, seed, and any caller metadata (e.g. a config hash).
    The gamma column is empty when the chain carries no gamma."""
    d = chain.draws
    n = len(chain.log_posts)
    gammas = d["gamma"].tolist() if "gamma" in d else [None] * n
    rows = zip(
        range(1, n + 1), d["theta1"].tolist(), d["m"].tolist(), d["q"].tolist(),
        d["sigma2"].tolist(), gammas, chain.log_posts.tolist(),
    )
    meta = {
        "burn_in": chain.burn_in,
        "accept_rates": chain.accept_rates,
        "seed": chain.seed,
        **(extra_meta or {}),
    }
    write_table(path, _CHAIN_HEADER, rows, meta)


def _chain_row(row: list[str]) -> tuple:
    return (
        float(row[1]), int(row[2]), int(row[3]), float(row[4]),
        float(row[5]) if row[5] else math.nan, float(row[6]),
    )


def load_chain(path: str) -> tuple[Chain, dict]:
    """Read a chain CSV plus sidecar; returns (chain, sidecar metadata)."""
    meta = read_meta(path)
    header, pairs = read_table(path)
    if header[:7] != _CHAIN_HEADER:
        raise DataError(f"{path}:1: unexpected chain header")
    theta1, m, q, sigma2, gamma, log_posts = (
        np.asarray(parse_rows(path, pairs, _chain_row), dtype=float).reshape(-1, 6).T.copy()
    )
    draws = {"theta1": theta1, "m": m.astype(int), "q": q.astype(int), "sigma2": sigma2}
    if not np.isnan(gamma).all():
        draws["gamma"] = gamma
    g = draws.get("gamma", np.zeros(0))
    if not (
        (draws["theta1"] > 0).all() and (draws["sigma2"] >= 0).all()
        and (draws["m"] >= 1).all() and (draws["q"] >= 1).all()
        and ((g >= 0) & (g <= 1)).all()
    ):
        raise DataError(f"{path}: chain values lie outside the parameter space")
    chain = Chain(
        draws=draws,
        log_posts=log_posts,
        burn_in=int(meta["burn_in"]),
        accept_rates=meta.get("accept_rates", {}),
        seed=meta.get("seed"),
    )
    return chain, meta
