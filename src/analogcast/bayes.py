"""Posterior sampling for the analog forecasting model.

The forecast rule is a kernel-weighted sum of historical responses: the
response coefficients tau steps after time t are modeled as Gaussian
around sum_l w(B_t, B_l) * alpha_{l + tau}, where B are delay embeddings
of forcing coefficients and w is the truncated Gaussian kernel over the
m nearest candidates.  Tuning parameters (theta1, m, q, noise variance,
and optionally the distance mix gamma) get a Metropolis-within-Gibbs
sampler: the noise variance has a conjugate inverse-gamma draw, and one
Metropolis accept rule judges every other move: a random walk on log
theta1, for m and q one of two proposals (a reflected +-1 step or a
uniform draw over the prior range), and a reflected uniform gamma step.

Distances never depend on theta1 or m.  A ``DistanceStore`` owns the raw
distance matrices, built on first use (embeddings at smaller q are column
prefixes of the q_max library) and keyed by library content and an
engine's training block, the library's entries through its last training
period, which hold every training period and every pool.  Per (q, metric,
scale norm) it holds one matrix within the block, whose Procrustes build
computes each unordered pair once, and one per forecast row against it;
each engine slices its own rows and pool, so chains over one library and
one training span share every matrix.  The pipeline makes one store per
part of a stage's tasks; it keeps only the most recently used library of
each role (main, and the combined metric's auxiliary side), and an engine
built without a store makes its own.

``AnalogEngine`` sorts each matrix once per q, or per (q, gamma) under the
combined metric: the view keeps the squared distances and candidate
responses of the m_max nearest candidates of each training period, its
own exclusions folded in.  A residual is then an exp and a weighted sum
over the first m columns; the state and the distances are checked once,
when the view is built.  Gamma is continuous, so under the combined
metric only the current and the last proposed views are kept.  Forecasts
from one initial condition go through the same views, keyed by (q, gamma,
initial time), and their distances are single-row matrices.

``run_chain`` only samples: its residual is any ``ssr_fn``, by default a
Procrustes engine's on the given data; the pipeline passes the ``ssr`` of
the engine it built for the task, with the task's metric and store.
``posterior_predict`` calls the engine's ``predictive_mean`` once per
retained state (a repeated state hits the engine's sorted view, so it
keeps no cache of its own), draws once around each mean, and reports the
mean and the central ``LEVEL`` band.

A ``Chain`` keeps its trace by column, one array per sampled parameter
over all iterations (gamma only when the state carries one), and
``save_chain`` writes it as one CSV row per iteration.  ``Chain.retained``
builds the ``ModelState``s the engine needs once per thinning step, so
the forecasts from every initial condition of a task share them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSet, CoefficientSeries
from .data import parse_rows, read_meta, read_table, write_table
from .embedding import EmbeddingLibrary, TrainingIndex
from .errors import ConfigError, DataError, NumericError
from .kernel import sort_candidates, sorted_weights
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
        for name in ("m", "q"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if not 1 <= lo <= hi:
                raise ConfigError(
                    f"{name}_min={lo} and {name}_max={hi} must satisfy 1 <= {name}_min <= {name}_max"
                )
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
        for name in ("theta1_prop_sd", "gamma_prop_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
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


def _library_digest(lib: EmbeddingLibrary) -> bytes:
    stack = np.ascontiguousarray(lib.stack)
    return hashlib.sha256(repr((stack.dtype.str, stack.shape)).encode() + stack.tobytes()).digest()


class DistanceStore:
    """Raw distance matrices shared by the engines of one part of a stage.

    A matrix is keyed by role ("main", or "aux" for the combined metric's
    response side), a digest of the library's values, and (n_block, entry,
    q, kind, scale norm), never by (region, lead), so libraries that differ
    in any value never share a matrix.  The block is the library's first
    ``n_block`` entries, through an engine's last training period; it holds
    every training period and every pool, which starts at the first entry
    and ends before that period.  ``entry`` None is the block against itself
    (one call, so a Procrustes build computes each unordered pair once); an
    integer ``entry`` is that one entry (a forecast row) against the block.
    Engines slice their rows and pool from it, so a shared and a private
    store give the same bits.  Only the most recently used library of each
    role keeps its matrices.
    """

    def __init__(self):
        self._held: dict[str, tuple[bytes, dict]] = {}  # role -> (library digest, matrices)

    # Private, like `AnalogEngine._build_view`, so that a trace puts each
    # build under the engine call (``ssr`` or ``predictive_mean``) that
    # needed it.
    def _matrix(
        self, role: str, lib: EmbeddingLibrary, digest: bytes, n_block: int,
        entry: int | None, q: int, kind: str, scale_norm: str,
    ) -> np.ndarray:
        held, matrices = self._held.get(role, (None, None))
        if held != digest:
            matrices = {}
            self._held[role] = (digest, matrices)
        key = (n_block, entry, q, kind, scale_norm)
        if key not in matrices:
            block = lib.stack[:n_block, :, :q]
            targets = block if entry is None else lib.stack[entry : entry + 1, :, :q]
            if kind == "euclidean":
                matrices[key] = euclidean_distances(targets, block)
            else:
                matrices[key] = procrustes_distances(targets, block, scale_norm=scale_norm)
        return matrices[key]


class AnalogEngine:
    """Sorts candidates once per distance key and evaluates residuals for
    one training setup.

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
    m_max : int, optional
        Largest m a state may ask for, at most the candidate pool size (the
        default); each sorted view keeps that many columns.
    store : DistanceStore, optional
        Where the raw distance matrices live (default: a store of the
        engine's own).
    """

    def __init__(
        self,
        lib: EmbeddingLibrary,
        responses: CoefficientSeries,
        index: TrainingIndex,
        metric: str = "procrustes",
        scale_norm: str = "centered",
        aux_lib: EmbeddingLibrary | None = None,
        m_max: int | None = None,
        store: DistanceStore | None = None,
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
        n_cand = index.candidates.size
        if m_max is None:
            m_max = n_cand
        if not 1 <= m_max <= n_cand:
            raise ConfigError(
                f"m_max={m_max} must lie in [1, {n_cand}], the size of the candidate pool"
            )
        if index.candidates[0] != lib.first_valid:
            raise ConfigError("candidate pool does not start at the library's first entry")
        self.lib = lib
        self.responses = responses
        self.index = index
        self.metric = metric
        self.scale_norm = scale_norm
        self.aux_lib = aux_lib
        self.m_max = m_max
        self.n_terms = index.n_train * responses.p
        resp_cols = index.training_periods + index.tau - 1
        self._targets = responses.values[:, resp_cols].T  # (n_train, p)
        self._cand_resp_cols = index.candidates + index.tau - 1
        self._excl = index.exclusion_mask()
        self._train_rows = index.training_periods - lib.first_valid
        self._n_block = int(self._train_rows[-1]) + 1
        self._store = DistanceStore() if store is None else store
        self._libs = {  # role -> (library, digest of its values)
            role: (source, _library_digest(source))
            for role, source in (("main", lib), ("aux", aux_lib))
            if source is not None
        }
        self._views: dict[tuple, tuple] = {}  # (q, gamma, t_initial) -> sorted view

    def _distances(self, role: str, entry: int | None, q: int) -> np.ndarray:
        """Raw distances to this engine's candidate pool from its training
        periods (``entry`` None) or from one library entry, sliced from the
        store's matrix over the engine's block."""
        kind = "euclidean" if self.metric == "euclidean" else "procrustes"
        args = (*self._libs[role], self._n_block, entry, q, kind, self.scale_norm)
        rows = self._train_rows if entry is None else [0]
        return self._store._matrix(role, *args)[rows, : self.index.candidates.size]

    def _view(self, state: ModelState, t_initial: int | None) -> tuple:
        """Sorted view for the training periods (``t_initial`` None) or for
        one initial condition, built on the first use of its key."""
        combined = self.metric == "combined"
        key = (state.q, state.gamma if combined else None, t_initial)
        view = self._views.pop(key, None)  # re-inserted below, so dict order is recency
        if view is None:
            view = self._build_view(state, t_initial)
            if combined:
                # gamma is continuous: keep only the most recently used entry
                # one proposal away (the current state's) next to the new one.
                near = [k for k in self._views if sum(a != b for a, b in zip(k, key)) == 1]
                self._views = {k: self._views[k] for k in near[-1:]}
        self._views[key] = view
        return view

    def _build_view(self, state: ModelState, t_initial: int | None) -> tuple:
        """(squared distances, candidate responses) of the m_max nearest
        candidates per row, nearest first: (n_rows, k) and (p, n_rows, k).
        Training rows exclude their own neighbourhood; a forecast row uses
        the full pool."""
        combined = self.metric == "combined"
        if state.q > self.lib.q:
            raise ConfigError(f"state q={state.q} exceeds library q_max={self.lib.q}")
        if combined and state.gamma is None:
            raise ConfigError("combined metric needs gamma in the state")
        if t_initial is None:
            entry, excl = None, self._excl
        else:
            lo, hi = self.lib.first_valid, self.lib.n_time
            if not lo <= t_initial <= hi:
                raise ConfigError(
                    f"initial condition {t_initial} lies outside the embedded span [{lo}, {hi}]"
                )
            entry, excl = t_initial - lo, None
        dist = self._distances("main", entry, state.q)
        if combined:
            dist = combined_distance(dist, self._distances("aux", entry, state.q), state.gamma)
        if excl is not None:
            dist = np.where(excl, np.inf, dist)
        cols, d2 = sort_candidates(dist, self.m_max)
        return d2, self.responses.values[:, self._cand_resp_cols[cols]]

    def _weighted_means(self, state: ModelState, t_initial: int | None = None) -> np.ndarray:
        """(n_rows, p) kernel-weighted candidate responses, one row per
        training period or one for ``t_initial``."""
        if state.m > self.m_max:
            raise ConfigError(f"state m={state.m} exceeds the engine's m_max={self.m_max}")
        d2, picked = self._view(state, t_initial)
        m = state.m
        w = sorted_weights(d2[:, :m], state.theta1)
        return np.einsum("nm,pnm->np", w, picked[:, :, :m])

    def ssr(self, state: ModelState) -> float:
        """Total squared residual of the analog means at this state."""
        resid = self._targets - self._weighted_means(state)
        return float(np.sum(resid * resid))

    def predictive_mean(self, state: ModelState, t_initial: int) -> np.ndarray:
        """Analog mean forecast from initial condition ``t_initial`` using
        only candidates whose responses fall inside the training window."""
        return self._weighted_means(state, t_initial)[0]


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


def _metropolis(state, prop, ssr, rng, ssr_fn, n_terms, log_prior_ratio=0.0):
    """Accept ``prop`` with the Gaussian likelihood ratio times
    exp(``log_prior_ratio``), the prior and proposal terms that do not
    cancel.  Returns the kept state, its residual and whether it moved."""
    ssr_p = ssr_fn(prop)
    log_ratio = (
        gaussian_loglik(ssr_p, n_terms, state.sigma2)
        - gaussian_loglik(ssr, n_terms, state.sigma2)
        + log_prior_ratio
    )
    if rng.random() < math.exp(min(log_ratio, 0.0)):
        return prop, ssr_p, True
    return state, ssr, False


def update_theta1(state, ssr, rng, priors, ssr_fn, n_terms, prop_sd):
    """Random walk on log(theta1); the Jacobian term log(theta1'/theta1)
    keeps the move targeting the posterior of theta1 itself."""
    prop_val = math.exp(math.log(state.theta1) + prop_sd * rng.standard_normal())
    log_prior_ratio = (
        ig_logpdf(prop_val, priors.theta1_shape, priors.theta1_rate)
        - ig_logpdf(state.theta1, priors.theta1_shape, priors.theta1_rate)
        + math.log(prop_val)
        - math.log(state.theta1)
    )
    prop = replace(state, theta1=prop_val)
    return _metropolis(state, prop, ssr, rng, ssr_fn, n_terms, log_prior_ratio)


def _propose_int(cur: int, lo: int, hi: int, rng, how: str) -> int:
    """A uniform draw over [lo, hi], or a +-1 step reflected at the bounds."""
    if how == "uniform":
        return int(rng.integers(lo, hi + 1))
    x = cur + (1 if rng.random() < 0.5 else -1)
    if lo == hi:
        return lo  # a one-value support has nowhere to step to
    return 2 * lo - x if x < lo else 2 * hi - x if x > hi else x


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
    if priors.with_gamma and state.gamma is None:
        raise ConfigError("with_gamma priors need a state with gamma set")
    if ssr is None:
        ssr = ssr_fn(state)
    state = replace(state, sigma2=draw_sigma2(rng, priors, n_terms, ssr))
    acc = {"sigma2": True}  # a Gibbs draw
    state, ssr, acc["theta1"] = update_theta1(
        state, ssr, rng, priors, ssr_fn, n_terms, config.theta1_prop_sd
    )
    # m, q and gamma have flat priors and symmetric proposals, which cancel.
    for name in ("m", "q"):
        cur = getattr(state, name)
        lo, hi = getattr(priors, f"{name}_min"), getattr(priors, f"{name}_max")
        prop_val = _propose_int(cur, lo, hi, rng, config.mq_proposal)
        if prop_val == cur:
            acc[name] = True  # a sure self-move
        else:
            prop = replace(state, **{name: prop_val})
            state, ssr, acc[name] = _metropolis(state, prop, ssr, rng, ssr_fn, n_terms)
    if priors.with_gamma:
        width = config.gamma_prop_width
        g = abs(state.gamma + rng.uniform(-width, width))
        prop = replace(state, gamma=2.0 - g if g > 1.0 else g)  # reflected into [0, 1]
        state, ssr, acc["gamma"] = _metropolis(state, prop, ssr, rng, ssr_fn, n_terms)
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
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.log_posts)
        if self.burn_in < 0 or self.burn_in >= n:
            raise ConfigError(f"burn_in={self.burn_in} must lie in [0, iterations={n})")

    def retained(self, thin: int = 1) -> list[ModelState]:
        """Every ``thin``-th state after the burn-in, as ``ModelState``s,
        built on the first call for each ``thin``."""
        if thin not in self._kept:
            cols = [v[self.burn_in :: thin].tolist() for v in self.draws.values()]
            self._kept[thin] = tuple(ModelState(*values) for values in zip(*cols))
        return list(self._kept[thin])

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
    config: SamplerConfig = SamplerConfig(),
    init: ModelState | None = None,
    ssr_fn=None,
    n_terms: int | None = None,
) -> Chain:
    """Run the Metropolis-within-Gibbs sampler and keep the whole trace.

    ``ssr_fn``/``n_terms`` default to a Procrustes engine on the given
    data; pass an engine's ``ssr`` and ``n_terms`` for any other metric or
    a shared store, or constants to sample the priors alone.
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
        engine = AnalogEngine(lib, responses, index, m_max=priors.m_max)
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


LEVEL = 0.95  # probability inside a forecast's (lo, hi) band


def central_band(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the central ``LEVEL`` band of ``draws`` along axis 0."""
    alpha = 0.5 * (1.0 - LEVEL)
    return np.quantile(draws, alpha, axis=0), np.quantile(draws, 1.0 - alpha, axis=0)


@dataclass(frozen=True)
class ForecastDistribution:
    """Posterior predictive draws for one initial condition.

    Field draws are the coefficient draws pushed through the response
    basis, so the field-space mean is the basis times the coefficient
    mean by linearity.
    """

    target_time: int
    coeff_draws: np.ndarray  # (n_draws, p)
    field_draws: np.ndarray  # (n_draws, n_loc)
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
    thin: int = 5,
    seed: int = 0,
    engine: AnalogEngine | None = None,
) -> ForecastDistribution:
    """Posterior predictive for the response ``index.tau`` steps after
    ``t_initial``: one Gaussian draw around the analog mean per retained
    (thinned) state, summarized by its mean and central ``LEVEL`` band.
    ``engine`` defaults to a Procrustes engine on the given data."""
    if thin < 1:
        raise ConfigError(f"thin must be >= 1, got {thin}")
    if engine is None:
        engine = AnalogEngine(lib, responses, index)
    kept = chain.retained(thin)
    if not kept:
        raise ConfigError("no retained states to predict from")
    rng = np.random.default_rng(seed)
    p = responses.p
    draws = np.empty((len(kept), p))
    for i, s in enumerate(kept):
        noise = math.sqrt(s.sigma2) * rng.standard_normal(p)
        draws[i] = engine.predictive_mean(s, t_initial) + noise
    field = draws @ basis.matrix.T
    coeff_lo, coeff_hi = central_band(draws)
    field_lo, field_hi = central_band(field)
    return ForecastDistribution(
        target_time=t_initial + index.tau,
        coeff_draws=draws,
        field_draws=field,
        coeff_lo=coeff_lo,
        coeff_hi=coeff_hi,
        field_mean=field.mean(axis=0),
        field_lo=field_lo,
        field_hi=field_hi,
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
        int(row[0]), float(row[1]), int(row[2]), int(row[3]), float(row[4]),
        float(row[5]) if row[5] else math.nan, float(row[6]),
    )


def load_chain(path: str) -> tuple[Chain, dict]:
    """Read a chain CSV plus sidecar; returns (chain, sidecar metadata).
    A chain cut at a row boundary raises DataError."""
    meta = read_meta(path, burn_in=int)
    header, pairs = read_table(path)
    if header[:7] != _CHAIN_HEADER:
        raise DataError(f"{path}:1: unexpected chain header")
    iters, theta1, m, q, sigma2, gamma, log_posts = (
        np.asarray(parse_rows(path, pairs, _chain_row), dtype=float).reshape(-1, 7).T.copy()
    )
    n = iters.size
    if not np.array_equal(iters, np.arange(1, n + 1)):
        raise DataError(f"{path}: the iter column is not 1..{n}")
    if not 0 <= meta["burn_in"] < n:
        raise DataError(f"{path}: burn_in={meta['burn_in']} must lie in [0, {n}), its row count")
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
        burn_in=meta["burn_in"],
        accept_rates=meta.get("accept_rates", {}),
        seed=meta.get("seed"),
    )
    return chain, meta
