import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from analogcast import bayes
from analogcast.basis import BasisSet
from analogcast.bayes import (
    AnalogEngine,
    Chain,
    DistanceStore,
    ModelState,
    PriorConfig,
    SamplerConfig,
    draw_sigma2,
    gaussian_loglik,
    ig_logpdf,
    load_chain,
    mwg_step,
    posterior_predict,
    run_chain,
    save_chain,
    update_theta1,
)
from analogcast.embedding import build_library, build_training_index
from analogcast.errors import ConfigError, DataError, NumericError
from oracles import (
    analog_mean,
    full_distances,
    full_sort_means,
    full_sort_ssr,
    identity_series,
)


def _setup(seed=0, T=60, p_x=3, p_y=3, lag=1, q_max=4, tau=2):
    rng = np.random.default_rng(seed)
    forcing = identity_series(rng.normal(size=(p_x, T)))
    responses = identity_series(rng.normal(size=(p_y, T)))
    lib = build_library(forcing, lag, q_max)
    index = build_training_index(lib, lib.first_valid, T - tau, tau)
    return forcing, responses, lib, index


def test_gaussian_loglik_matches_density_summation():
    rng = np.random.default_rng(0)
    resid = 0.8 * rng.normal(size=37)
    sigma2 = 0.53
    want = stats.norm.logpdf(resid, scale=math.sqrt(sigma2)).sum()
    got = gaussian_loglik(float((resid**2).sum()), resid.size, sigma2)
    assert abs(got - want) < 1e-10
    assert gaussian_loglik(0.0, 0, 0.7) == 0.0
    with pytest.raises(NumericError):
        gaussian_loglik(1.0, 5, 0.0)


def test_ig_logpdf_matches_scipy():
    for x in (0.05, 0.6, 1.0, 4.2):
        for a, b in ((2.0, 1.0), (0.001, 0.001), (3.5, 0.2)):
            want = stats.invgamma.logpdf(x, a, scale=b)
            assert abs(ig_logpdf(x, a, b) - want) < 1e-10
    assert ig_logpdf(0.0, 2.0, 1.0) == -math.inf
    assert ig_logpdf(-1.0, 2.0, 1.0) == -math.inf


def test_theta1_step_acceptance_matches_jacobian_oracle():
    # Flat likelihood (n_terms=0): a log random-walk step from a fixed
    # theta1 accepts with probability E_z[min(1, prior ratio * Jacobian)].
    # Quadrature over the proposal gives the oracle; a missing Jacobian
    # term would shift the rate by several sigma.
    priors = PriorConfig()
    theta0, sd = 0.8, 1.2
    z = np.linspace(-8 * sd, 8 * sd, 40001)
    log_ratio = (
        np.array([ig_logpdf(theta0 * math.exp(v), 2.0, 1.0) for v in z])
        - ig_logpdf(theta0, 2.0, 1.0)
        + z
    )
    weights = stats.norm.pdf(z, scale=sd)
    oracle = np.trapezoid(weights * np.minimum(1.0, np.exp(log_ratio)), z)
    state = ModelState(theta1=theta0, m=3, q=4, sigma2=1.0)
    rng = np.random.default_rng(42)
    n = 30000
    hits = sum(
        update_theta1(state, 5.0, rng, priors, lambda s: 5.0, 0, prop_sd=sd)[2]
        for _ in range(n)
    )
    assert abs(hits / n - oracle) < 0.012


def test_flat_likelihood_chain_recovers_theta1_prior():
    _, responses, lib, index = _setup()
    chain = run_chain(
        lib, responses, index,
        PriorConfig(q_max=4, sigma2_shape=2.0, sigma2_rate=1.0),
        iterations=6000, burn_in=500, seed=1,
        ssr_fn=lambda s: 3.0, n_terms=0,
    )
    th = chain.arrays()["theta1"]
    for pr, tol in ((0.25, 0.08), (0.5, 0.1), (0.75, 0.15)):
        want = stats.invgamma.ppf(pr, 2.0, scale=1.0)
        assert abs(np.quantile(th, pr) - want) < tol


def test_sigma2_gibbs_matches_analytic_conditional():
    # Constant SSR makes the sigma2 full conditional a fixed inverse
    # gamma; the Gibbs draws must line up with its quantile function.
    _, responses, lib, index = _setup()
    ssr, n_terms = 7.3, 40
    priors = PriorConfig(q_max=4, sigma2_shape=0.5, sigma2_rate=0.25)
    chain = run_chain(
        lib, responses, index, priors,
        iterations=3000, burn_in=100, seed=2,
        ssr_fn=lambda s: ssr, n_terms=n_terms,
    )
    sig = np.sort(chain.arrays()["sigma2"])
    pp = (np.arange(1, sig.size + 1) - 0.5) / sig.size
    want = stats.invgamma.ppf(pp, 0.5 + n_terms / 2, scale=0.25 + ssr / 2)
    assert np.corrcoef(sig, want)[0, 1] > 0.999
    # Direct draws agree in expectation too: IG mean = rate / (shape - 1).
    rng = np.random.default_rng(3)
    draws = [draw_sigma2(rng, priors, n_terms, ssr) for _ in range(4000)]
    want_mean = (0.25 + ssr / 2) / (0.5 + n_terms / 2 - 1)
    assert abs(np.mean(draws) - want_mean) < 0.02


# (metric, gamma): every metric the engine supports, with the combined
# mix at both endpoints, where 0 * inf would give NaN, and inside.
_METRIC_CASES = [
    ("procrustes", None),
    ("euclidean", None),
    ("combined", 0.0),
    ("combined", 0.4),
    ("combined", 1.0),
]


def _engine(metric, seed, T, radius=0, m_max=None):
    """Engine on random data with one constant forcing stretch, so the
    embedding at position 14 (and its column prefixes near it) is
    degenerate and Procrustes puts it at infinite distance.  The forcing
    has three rows: a centered 2-row embedding has rank 1, so any two
    align up to rounding and their distances would order candidates by
    noise."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(3, T))
    values[:, 10:14] = 0.7
    forcing = identity_series(values)
    responses = identity_series(rng.normal(size=(3, T)))
    lib = build_library(forcing, 1, 4)
    index = build_training_index(lib, lib.first_valid, T - 2, 2, radius)
    aux_lib = build_library(responses, 1, 4) if metric == "combined" else None
    eng = AnalogEngine(lib, responses, index, metric, aux_lib=aux_lib, m_max=m_max)
    return eng, lib, responses, index


def test_engine_ssr_decomposes_over_training_periods():
    # The data's Procrustes distances sit far above rounding, so the
    # candidates are ranked by shape, not by noise.
    _, lib, _, index = _engine("procrustes", seed=5, T=40)
    for q in range(1, lib.q + 1):
        dist = full_distances(ModelState(theta1=1.0, m=1, q=q, sigma2=1.0), lib, index)
        assert np.median(dist[np.isfinite(dist)]) > 0.1, q
    for metric, gamma in _METRIC_CASES:
        eng, lib, responses, index = _engine(metric, seed=5, T=40)
        mask = index.exclusion_mask()
        for state in (
            ModelState(theta1=0.5, m=4, q=4, sigma2=1.0, gamma=gamma),
            ModelState(theta1=2.0, m=7, q=3, sigma2=1.0, gamma=gamma),  # q below q_max
        ):
            total = 0.0
            for i, t in enumerate(index.training_periods):
                mean = analog_mean(
                    state, lib, responses, int(t), index.tau, index.candidates[~mask[i]],
                    metric, eng.aux_lib,
                )
                resid = responses.values[:, t + index.tau - 1] - mean
                total += float(resid @ resid)
            assert np.isclose(eng.ssr(state), total, rtol=1e-10), (metric, gamma)
        assert eng.n_terms == index.n_train * responses.p


def test_predictive_mean_uses_full_candidate_pool():
    for metric, gamma in _METRIC_CASES:
        eng, lib, responses, index = _engine(metric, seed=6, T=50)
        state = ModelState(theta1=0.9, m=5, q=3, sigma2=1.0, gamma=gamma)
        t_end = int(index.training_periods[-1])
        for t_init in (t_end, 14):  # furthest initial condition; the degenerate one
            want = analog_mean(
                state, lib, responses, t_init, index.tau, index.candidates, metric, eng.aux_lib
            )
            got = eng.predictive_mean(state, t_init)
            assert np.allclose(got, want, atol=1e-12), (metric, gamma, t_init)
        with pytest.raises(ConfigError):
            eng.predictive_mean(replace(state, q=9), t_end)
        for t_init in (lib.first_valid - 1, lib.n_time + 1, lib.n_time + 10):
            with pytest.raises(ConfigError, match="initial condition"):
                eng.predictive_mean(state, t_init)


def test_sorted_views_match_the_full_sort_oracle_bit_for_bit():
    # Random states in random order, so views are built, hit and (under
    # the combined metric) evicted; every residual and forecast must equal
    # the full-sort path exactly, also where m reaches m_max or covers
    # every finite candidate and the rest of the support is at +inf.
    rng = np.random.default_rng(21)
    checked = 0
    for metric in ("procrustes", "euclidean", "combined"):
        for radius in (0, 2):
            for m_max in (6, None):  # None: the whole candidate pool
                eng, lib, responses, index = _engine(metric, 22, 40, radius, m_max)
                t_end = int(index.training_periods[-1])
                for _ in range(45):
                    gamma = float(rng.choice([0.0, 0.4, 1.0, rng.random()]))
                    state = ModelState(
                        theta1=math.exp(rng.normal(0.0, 1.5)), m=1, q=int(rng.integers(1, 5)),
                        sigma2=1.0, gamma=gamma if metric == "combined" else None,
                    )
                    m_choices = [eng.m_max, int(rng.integers(1, eng.m_max + 1))]
                    if m_max is None:  # every finite candidate of the sparsest row
                        dist = full_distances(state, lib, index, None, metric, eng.aux_lib)
                        m_choices.append(int(np.isfinite(dist).sum(axis=1).min()))
                    state = replace(state, m=int(rng.choice(m_choices)))
                    t_init = int(rng.choice([14, t_end, rng.integers(lib.first_valid, 41)]))
                    args = (lib, responses, index)
                    assert eng.ssr(state) == full_sort_ssr(state, *args, metric, eng.aux_lib)
                    assert np.array_equal(
                        eng.predictive_mean(state, t_init),
                        full_sort_means(state, *args, t_init, metric, eng.aux_lib)[0],
                    )
                    checked += 1
    assert checked >= 500


def test_engine_cache_bounds():
    # An m_max above the candidate pool would make every larger m the
    # whole pool, a flat stretch of the m prior.
    _, lib, responses, index = _engine("procrustes", 23, 40)
    n_cand = index.candidates.size
    assert AnalogEngine(lib, responses, index, m_max=n_cand).m_max == n_cand
    with pytest.raises(ConfigError, match=f"m_max={n_cand + 1} .*{n_cand}"):
        AnalogEngine(lib, responses, index, m_max=n_cand + 1)
    eng, lib, responses, index = _engine("procrustes", 23, 40, m_max=5)
    state = ModelState(theta1=0.8, m=5, q=3, sigma2=1.0)
    eng.ssr(state)
    for bad in (replace(state, m=6), replace(state, q=lib.q + 1)):
        for _ in range(2):  # a failed build is not cached, so it fails again
            with pytest.raises(ConfigError):
                eng.ssr(bad)
            with pytest.raises(ConfigError):
                eng.predictive_mean(bad, int(index.training_periods[-1]))
    # A BA4 chain moves gamma continuously; the engine keeps the current
    # (q, gamma) view and the last proposed one, so a sweep builds at most
    # two views (the q and gamma proposals) and the theta1 and m steps hit.
    eng, lib, responses, index = _engine("combined", 24, 40, m_max=6)
    builds = []
    build = eng._build_view
    eng._build_view = lambda *a: builds.append(a) or build(*a)
    priors = PriorConfig(m_max=6, q_max=4, with_gamma=True)
    chain = run_chain(
        lib, responses, index, priors, iterations=200, burn_in=20, seed=25,
        ssr_fn=eng.ssr, n_terms=eng.n_terms,
    )
    assert len(eng._views) <= 2
    assert len(builds) <= 1 + 2 * 200
    fresh = AnalogEngine(lib, responses, index, "combined", aux_lib=eng.aux_lib, m_max=6)
    own = run_chain(
        lib, responses, index, priors, iterations=200, burn_in=20, seed=25,
        ssr_fn=fresh.ssr, n_terms=fresh.n_terms,
    )
    assert all(np.array_equal(chain.draws[k], own.draws[k]) for k in chain.draws)


def _count_builds(monkeypatch) -> list:
    """Record the targets, the shapes and the metric of every distance
    matrix the engines build from now on."""
    builds = []
    for name in ("procrustes_distances", "euclidean_distances"):
        fn = getattr(bayes, name)

        def counted(targets, comps, *args, _fn=fn, _name=name, **kwargs):
            builds.append((targets.tobytes(), targets.shape, comps.shape, _name))
            return _fn(targets, comps, *args, **kwargs)

        monkeypatch.setattr(bayes, name, counted)
    return builds


def test_shared_store_equals_private_engines_bit_for_bit(monkeypatch):
    # Chains at two leads share the training periods and the forcing
    # library; the lead-1 pool is the wider one.  Through one store, in
    # either order, every chain and forecast equals the one a private
    # engine gives, and each (library, q, entry) matrix is built once.
    # Every build, training rows or a forecast row, for every metric, is
    # against the block of entries through the last training period.
    rng = np.random.default_rng(31)
    values = rng.normal(size=(3, 44))
    values[:, 10:14] = 0.7  # degenerate embeddings at +inf Procrustes distance
    forcing = identity_series(values)
    responses = identity_series(rng.normal(size=(3, 44)))
    lib = build_library(forcing, 1, 4)
    indexes = {tau: build_training_index(lib, lib.first_valid, 41, tau) for tau in (1, 3)}
    width = indexes[1].candidates.size
    assert indexes[3].candidates.size < width
    union = int(indexes[1].training_periods[-1]) - lib.first_valid + 1
    assert union > width
    sampler = SamplerConfig(mq_proposal="uniform")
    priors = PriorConfig(m_max=6, q_max=4)
    for metric, gamma in _METRIC_CASES:
        aux_lib = build_library(responses, 1, 4) if metric == "combined" else None
        init = ModelState(theta1=1.0, m=3, q=3, sigma2=1.0, gamma=gamma)

        def chains_and_means(tau, store=None):
            index = indexes[tau]
            sampled = AnalogEngine(
                lib, responses, index, metric, aux_lib=aux_lib, m_max=priors.m_max, store=store
            )
            chain = run_chain(
                lib, responses, index, priors, iterations=40, burn_in=5, seed=tau,
                config=sampler, init=init, ssr_fn=sampled.ssr, n_terms=sampled.n_terms,
            )
            eng = AnalogEngine(lib, responses, index, metric, aux_lib=aux_lib, store=store)
            means = [eng.predictive_mean(s, t) for s in chain.retained(7) for t in (14, 41, 42)]
            return chain, means

        private = {tau: chains_and_means(tau) for tau in (1, 3)}
        for order in ((3, 1), (1, 3)):
            builds = _count_builds(monkeypatch)
            store = DistanceStore()
            for tau in order:
                chain, means = chains_and_means(tau, store)
                want_chain, want_means = private[tau]
                for k, col in want_chain.draws.items():
                    assert np.array_equal(chain.draws[k], col), (metric, gamma, order, k)
                assert np.array_equal(chain.log_posts, want_chain.log_posts)
                assert all(np.array_equal(a, b) for a, b in zip(means, want_means))
            assert len(builds) == len(set(builds)), (metric, gamma, order)
            assert {b[2][0] for b in builds} == {union}
            monkeypatch.undo()


def test_distance_store_keys_by_content_and_keeps_one_library_per_role(monkeypatch):
    _, responses, lib_a, index = _setup(seed=12, T=40)
    _, _, lib_b, _ = _setup(seed=13, T=40)
    copy_a = replace(lib_a, stack=lib_a.stack.copy())
    state = ModelState(theta1=0.7, m=4, q=3, sigma2=1.0)
    want = {
        name: AnalogEngine(lib, responses, index).ssr(state)
        for name, lib in (("a", lib_a), ("b", lib_b))
    }
    builds = _count_builds(monkeypatch)
    store = DistanceStore()
    for name, lib, built in (("a", lib_a, 1), ("a", copy_a, 1), ("b", lib_b, 2), ("a", lib_a, 3)):
        assert AnalogEngine(lib, responses, index, store=store).ssr(state) == want[name]
        assert len(builds) == built, name  # an equal copy hits; a new library evicts the old
        assert len(store._held) == 1
    # The combined metric holds one library per role.
    aux_lib = build_library(responses, 1, 4)
    eng = AnalogEngine(lib_a, responses, index, "combined", aux_lib=aux_lib, store=store)
    eng.ssr(replace(state, gamma=0.5))
    assert set(store._held) == {"main", "aux"} and len(builds) == 4
    # A pool that does not start at the library's first entry is refused.
    late = replace(index, candidates=index.candidates[1:])
    with pytest.raises(ConfigError, match="first entry"):
        AnalogEngine(lib_a, responses, late, store=store)


def test_one_distance_build_peaks_below_8_mb():
    # The 124-entry training block against itself at q = 24 and p = 12, the
    # default run's largest build.  The whole (124, 124, 24, 24) cross
    # tensor alone would take 70 MB.
    rng = np.random.default_rng(15)
    lib = build_library(identity_series(rng.normal(size=(12, 147))), 1, 24)
    store = DistanceStore()
    tracemalloc.start()
    try:
        dist = store._matrix("main", lib, b"lib", 124, None, 24, "procrustes", "centered")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.shape == (124, 124)
    assert peak < 8e6, peak


def test_run_chain_mechanics_and_reproducibility():
    _, responses, lib, index = _setup(seed=7, T=40)
    priors = PriorConfig(m_max=6, q_max=4)
    a = run_chain(lib, responses, index, priors, iterations=30, burn_in=10, seed=3)
    b = run_chain(lib, responses, index, priors, iterations=30, burn_in=10, seed=3)
    c = run_chain(lib, responses, index, priors, iterations=30, burn_in=10, seed=4)
    assert a.log_posts.size == 30 and len(a.retained()) == 20
    assert all(np.array_equal(a.draws[k], b.draws[k]) for k in a.draws)
    assert not all(np.array_equal(a.draws[k], c.draws[k]) for k in a.draws)
    assert np.array_equal(a.log_posts, b.log_posts)
    assert set(a.accept_rates) == {"sigma2", "theta1", "m", "q"}
    assert a.accept_rates["sigma2"] == 1.0  # Gibbs step always accepts
    arrs = a.arrays()
    assert arrs["m"].shape == (20,) and "gamma" not in arrs
    with pytest.raises(ConfigError):
        run_chain(lib, responses, index, priors, iterations=10, burn_in=10)
    with pytest.raises(ConfigError):
        run_chain(lib, responses, index, priors, ssr_fn=lambda s: 1.0)  # no n_terms
    with pytest.raises(ConfigError):
        run_chain(lib, responses, index, PriorConfig(q_max=9), iterations=5, burn_in=1)


def _closed_form_ssr(s):
    gamma_term = 0.0 if s.gamma is None else 10.0 * (s.gamma - 0.3) ** 2
    return (
        12.0 + 3.0 * math.log(s.theta1 / 0.6) ** 2
        + 0.5 * (s.m - 4) ** 2 + 0.3 * (s.q - 6) ** 2 + gamma_term
    )


_PINNED_CASES = {
    "walk": (PriorConfig(m_max=8, q_max=10), SamplerConfig()),
    "uniform": (PriorConfig(m_max=8, q_max=10), SamplerConfig(mq_proposal="uniform")),
    "gamma": (
        PriorConfig(m_max=8, q_max=10, with_gamma=True), SamplerConfig(gamma_prop_width=0.3)
    ),
    "one_m_walk": (PriorConfig(m_min=3, m_max=3, q_max=10), SamplerConfig()),
    "one_q_uniform": (
        PriorConfig(q_min=5, q_max=5, m_max=8), SamplerConfig(mq_proposal="uniform")
    ),
}

# m and q carry one hex digit per iteration; the float columns are
# iterations 10, 20, ..., 60; "accepted" counts the accepted moves.
_PINNED_STREAMS = {
    "walk": {
        "m": "345666656554565567765434434444555432223332234454344332223433",
        "q": "777877778776787678878765655566655545545666778765665566765566",
        "theta1": [
            0.5872924921453869, 0.5604622910101734, 0.5920538767219409,
            0.5777943669461281, 0.8616869939548558, 0.523624584012432,
        ],
        "sigma2": [
            0.8387155961397558, 1.230756114197092, 0.35684887355710093,
            0.524541879609191, 0.33004073676675766, 0.4361856063308137,
        ],
        "log_post": [
            -38.69737414968693, -41.807832604555315, -36.78244165536357,
            -36.862882546368446, -38.32514557465369, -36.82214156786515,
        ],
        "accepted": {"m": 37, "q": 38, "sigma2": 60, "theta1": 27},
    },
    "uniform": {
        "m": "445552266655275333333555513333355444445555444444666611112555",
        "q": "677744456666567747774444443666677777744555555453aaa588867777",
        "theta1": [
            0.43085093606077796, 0.6796976672570665, 0.6796976672570665,
            0.3170126170788659, 0.6288444785920284, 0.6316771963619406,
        ],
        "sigma2": [
            0.7495511262331352, 0.7050377325970241, 0.8107135942867851,
            0.47071113693815125, 1.0000413556991583, 0.5095687898744715,
        ],
        "log_post": [
            -38.85208050598663, -38.12633743901877, -38.56933359694526,
            -38.05253183417269, -42.84833775698403, -37.254477804772925,
        ],
        "accepted": {"m": 31, "q": 34, "sigma2": 60, "theta1": 20},
    },
    "gamma": {
        "m": "345445545433454433443332322222232221212333343322233434433445",
        "q": "765667656566556565454556665456766789877876766766566765655676",
        "theta1": [
            0.6359356375538219, 0.6323341837487197, 0.5090678991792994,
            0.21110484431134777, 0.7039519881000097, 0.6890837165682353,
        ],
        "sigma2": [
            0.44014039603581834, 0.8007283616426937, 0.7376565530094191,
            0.5832199484968094, 0.5217075017590213, 0.38709363327673635,
        ],
        "gamma": [
            0.10379501863478541, 0.002219758182302356, 0.26228528485536573,
            0.11704680855204352, 0.3973808779813867, 0.31756953170407787,
        ],
        "log_post": [
            -37.21430620558107, -38.8030698414932, -38.78365862484504,
            -41.14617540166428, -37.29971343428614, -37.46699572189379,
        ],
        "accepted": {"gamma": 57, "m": 35, "q": 48, "sigma2": 60, "theta1": 24},
    },
    "one_m_walk": {
        "m": "333333333333333333333333333333333333333333333333333333333333",
        "q": "778998887888887676787655545433345566655656676565456555455444",
        "theta1": [
            0.6991936111287359, 0.3998193307758895, 0.34154420857278917,
            0.572475478030257, 0.9107274394418704, 0.7784932734518809,
        ],
        "sigma2": [
            0.676014836817046, 1.4816054758964436, 0.7016229229642159,
            0.6067501548608265, 0.8578549979468263, 0.42505218833565966,
        ],
        "log_post": [
            -36.618490924913054, -40.81862511032899, -37.77604916609885,
            -35.05136369504978, -37.75615388525986, -36.9336358441819,
        ],
        "accepted": {"m": 60, "q": 38, "sigma2": 60, "theta1": 28},
    },
    "one_q_uniform": {
        "m": "444444444444255533554444444444444444444444355633555453333334",
        "q": "555555555555555555555555555555555555555555555555555555555555",
        "theta1": [
            1.027257875442383, 0.7485548099101447, 0.847991165308875,
            0.4148647926758494, 0.2314847387182798, 0.5897580976779813,
        ],
        "sigma2": [
            0.3431744244568695, 0.5662758442152012, 0.6599367363030939,
            0.43445384468858533, 0.48964295376569766, 0.5792696975345476,
        ],
        "log_post": [
            -37.38506776363212, -35.55510191852851, -35.92189762481835,
            -34.60864096240099, -37.54616883189064, -34.68046679022775,
        ],
        "accepted": {"m": 28, "q": 60, "sigma2": 60, "theta1": 28},
    },
}


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_sampler_stream_matches_pinned_values(case):
    # A closed-form residual keeps distances and BLAS out, so these values
    # pin the sampler alone: its proposals, its RNG draws and their order,
    # and its accept rule.  Integer traces and acceptance counts must match
    # exactly; floats may differ only in the last bits a libm can change.
    priors, sampler = _PINNED_CASES[case]
    _, responses, lib, index = _setup(q_max=10)
    chain = run_chain(
        lib, responses, index, priors, iterations=60, burn_in=1, seed=2024,
        config=sampler, ssr_fn=_closed_form_ssr, n_terms=24,
    )
    want = _PINNED_STREAMS[case]
    for k in ("m", "q"):
        assert chain.draws[k].tolist() == [int(c, 16) for c in want[k]], k
    got = {**chain.draws, "log_post": chain.log_posts}
    floats = [k for k in got if k not in ("m", "q")]
    assert set(floats) == set(want) - {"m", "q", "accepted"}
    for k in floats:
        np.testing.assert_allclose(got[k][9::10], want[k], rtol=1e-12, atol=0, err_msg=k)
    assert chain.accept_rates == {k: v / 60 for k, v in want["accepted"].items()}


def test_mode_mq_tie_breaks_toward_smallest_pair():
    draws = {
        "theta1": np.ones(6),
        "m": np.array([9, 2, 2, 1, 1, 4]),
        "q": np.array([9, 3, 3, 5, 5, 2]),
        "sigma2": np.ones(6),
    }
    chain = Chain(draws=draws, log_posts=np.zeros(6), burn_in=1)
    assert chain.mode_mq() == (1, 5)
    assert chain.retained(thin=2)[:2] == [
        ModelState(theta1=1.0, m=2, q=3, sigma2=1.0),
        ModelState(theta1=1.0, m=1, q=5, sigma2=1.0),
    ]


def test_gamma_sampling_needs_consistent_state():
    _, responses, lib, index = _setup(seed=8, T=40)
    priors = PriorConfig(q_max=4, with_gamma=True, sigma2_shape=2.0, sigma2_rate=1.0)
    chain = run_chain(
        lib, responses, index, priors,
        iterations=40, burn_in=5, seed=5,
        ssr_fn=lambda s: 2.0, n_terms=0,
    )
    g = chain.arrays()["gamma"]
    assert ((g >= 0.0) & (g <= 1.0)).all()
    assert "gamma" in chain.accept_rates
    bad = ModelState(theta1=1.0, m=2, q=3, sigma2=1.0, gamma=None)
    with pytest.raises(ConfigError):
        mwg_step(bad, np.random.default_rng(0), priors, lambda s: 2.0, 0)


def test_posterior_predict_pushes_draws_through_basis():
    _, responses, lib, index = _setup(seed=9, T=50)
    chain = run_chain(
        lib, responses, index, PriorConfig(m_max=6, q_max=4),
        iterations=60, burn_in=20, seed=6,
    )
    rng = np.random.default_rng(10)
    phi = BasisSet(rng.normal(size=(6, 3)), np.zeros((6, 2)), kind="eof")
    t_end = int(index.training_periods[-1])
    fc = posterior_predict(chain, lib, responses, index, t_end, phi, thin=5, seed=7)
    assert len(chain.retained(5)) == 8  # one draw per retained state
    assert fc.coeff_draws.shape == (8, 3)
    assert fc.field_draws.shape == (8, 6)
    assert np.allclose(fc.field_draws, fc.coeff_draws @ phi.matrix.T, atol=1e-12)
    assert np.allclose(fc.field_mean, phi.matrix @ fc.coeff_draws.mean(axis=0), atol=1e-10)
    assert (fc.field_lo <= fc.field_hi).all() and (fc.coeff_lo <= fc.coeff_hi).all()
    assert fc.target_time == t_end + index.tau
    again = posterior_predict(chain, lib, responses, index, t_end, phi, thin=5, seed=7)
    assert np.array_equal(fc.coeff_draws, again.coeff_draws)
    other = posterior_predict(chain, lib, responses, index, t_end, phi, thin=5, seed=8)
    assert not np.allclose(fc.coeff_draws, other.coeff_draws)
    with pytest.raises(ConfigError):
        posterior_predict(chain, lib, responses, index, t_end, phi, thin=0)


def test_chain_save_load_round_trip(tmp_path):
    _, responses, lib, index = _setup(seed=11, T=40)
    chain = run_chain(
        lib, responses, index,
        PriorConfig(q_max=4, with_gamma=True, sigma2_shape=2.0, sigma2_rate=1.0),
        iterations=25, burn_in=5, seed=9,
        ssr_fn=lambda s: 1.5, n_terms=0,
    )
    path = str(tmp_path / "chain.csv")
    save_chain(chain, path, extra_meta={"config_hash": "abc123"})
    loaded, meta = load_chain(path)
    assert loaded.draws.keys() == chain.draws.keys()
    assert all(np.array_equal(loaded.draws[k], chain.draws[k]) for k in chain.draws)
    assert np.array_equal(loaded.log_posts, chain.log_posts)
    assert loaded.burn_in == 5 and loaded.seed == 9
    assert loaded.accept_rates == chain.accept_rates
    assert meta["config_hash"] == "abc123"

    plain = run_chain(
        lib, responses, index,
        PriorConfig(q_max=4, sigma2_shape=2.0, sigma2_rate=1.0),
        iterations=12, burn_in=2, seed=10,
        ssr_fn=lambda s: 1.5, n_terms=0,
    )
    path2 = str(tmp_path / "plain.csv")
    save_chain(plain, path2)
    loaded2, _ = load_chain(path2)
    assert all(np.array_equal(loaded2.draws[k], plain.draws[k]) for k in plain.draws)
    assert "gamma" not in loaded2.draws and loaded2.retained()[0].gamma is None

    bad = tmp_path / "bad.csv"
    bad.write_text(open(path2).read().replace("\n2,", "\n2,-", 1))
    (tmp_path / "bad.csv.meta.json").write_text(open(path2 + ".meta.json").read())
    with pytest.raises(DataError, match="parameter space"):
        load_chain(str(bad))

    with pytest.raises(DataError):
        load_chain(str(tmp_path / "missing.csv"))
    (tmp_path / "chain.csv.meta.json").unlink()
    with pytest.raises(DataError, match="sidecar"):
        load_chain(path)


def test_walk_proposal_stays_inside_one_value_ranges():
    # With m_min == m_max (or q_min == q_max) every +-1 step reflects back
    # onto the single allowed value; it must never leave the prior support.
    _, responses, lib, index = _setup(seed=12, T=40)
    for priors in (
        PriorConfig(m_min=3, m_max=3, q_max=4),
        PriorConfig(q_min=4, q_max=4, m_max=6),
    ):
        chain = run_chain(
            lib, responses, index, priors,
            iterations=300, burn_in=50, seed=13,
            ssr_fn=lambda s: 2.0, n_terms=10,
        )
        arr = chain.arrays()
        assert ((arr["m"] >= priors.m_min) & (arr["m"] <= priors.m_max)).all()
        assert ((arr["q"] >= priors.q_min) & (arr["q"] <= priors.q_max)).all()


def test_state_and_prior_validation():
    with pytest.raises(ConfigError):
        ModelState(theta1=0.0, m=1, q=2, sigma2=1.0)
    with pytest.raises(ConfigError):
        ModelState(theta1=1.0, m=0, q=2, sigma2=1.0)
    with pytest.raises(ConfigError):
        ModelState(theta1=1.0, m=1, q=2, sigma2=-0.1)
    with pytest.raises(ConfigError):
        ModelState(theta1=1.0, m=1, q=2, sigma2=1.0, gamma=1.5)
    with pytest.raises(ConfigError):
        PriorConfig(m_min=5, m_max=3)
    with pytest.raises(ConfigError):
        PriorConfig(theta1_rate=0.0)
    with pytest.raises(ConfigError):
        SamplerConfig(mq_proposal="gibbs")
