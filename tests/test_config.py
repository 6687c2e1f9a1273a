import pytest

from analogcast.bayes import PriorConfig, SamplerConfig
from analogcast.config import RunConfig
from analogcast.errors import ConfigError


def test_round_trip_preserves_every_field(tmp_path):
    cfg = RunConfig(
        out_dir="elsewhere",
        variant="BA3",
        leads=[2, 5],
        p_alpha=4,
        iterations=800,
        burn_in=100,
        seed=17,
        baselines=["M1", "M5"],
        train_start=30,
        aux_path="aux.csv",
    )
    path = str(tmp_path / "run.json")
    cfg.save(path)
    loaded = RunConfig.load(path)
    assert loaded == cfg
    # Saving again reproduces the file byte for byte.
    path2 = str(tmp_path / "run2.json")
    loaded.save(path2)
    assert open(path).read() == open(path2).read()


def test_load_rejects_unknown_keys_and_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"iterations": 100, "burn_in": 10, "mq_step": "walk"}')
    with pytest.raises(ConfigError, match="mq_step"):
        RunConfig.load(str(p))
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.load(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.load(str(p))
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.load(str(tmp_path / "gone.json"))


def test_validation_names_the_offending_key():
    cases = [
        (dict(variant="BA9"), "variant"),
        (dict(metric="cosine"), "metric"),
        (dict(leads=[]), "leads"),
        (dict(leads=[1, 1]), "duplicate leads"),
        (dict(leads=[0]), "leads"),
        (dict(iterations=100, burn_in=100), "iterations"),
        (dict(thin=0), "thin"),
        (dict(holdout_n=0), "holdout_n"),
        (dict(p_beta=0), "p_beta"),
        (dict(lag=-1), "lag"),
        (dict(baselines=["M9"]), "M9"),
        (dict(file_format="parquet"), "file_format"),
        # Values of the wrong JSON type are refused, never converted.
        (dict(leads=["x"]), "leads"),
        (dict(leads=[1.5]), "leads"),
        (dict(leads=[True]), "leads"),
        (dict(leads=3), "leads"),
        (dict(m_max="3"), "m_max"),
        (dict(theta1_prop_sd="1"), "theta1_prop_sd"),
        (dict(iterations=True), "iterations"),
        (dict(iterations=5000.0), "iterations"),
        (dict(seed=None), "seed"),
        (dict(save_draws=1), "save_draws"),
        (dict(baselines=["M1", 5]), "baselines"),
        (dict(jobs=-1), "jobs"),
        # Prior, sampler and metric values are refused at load, not at train.
        (dict(mq_proposal="gibbs"), "mq_proposal"),
        (dict(m_min=5, m_max=3), "m_min"),
        (dict(q_min=30), "q_min"),
        (dict(theta1_prop_sd=0.0), "theta1_prop_sd"),
        (dict(gamma_prop_width=-1.0), "gamma_prop_width"),
        (dict(sigma2_shape=0.0), "sigma2_shape"),
        (dict(scale_norm="foo"), "scale_norm"),
        (dict(exclusion_radius=-1), "exclusion_radius"),
    ]
    for kwargs, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            RunConfig(**kwargs)


def test_effective_metric_follows_variant():
    assert RunConfig().effective_metric == "procrustes"
    assert RunConfig(variant="BA2").effective_metric == "procrustes"
    assert RunConfig(variant="BA4").effective_metric == "combined"
    assert RunConfig(variant="BA4", metric="euclidean").effective_metric == "euclidean"


def test_priors_and_sampler_come_from_the_config():
    assert RunConfig().priors() == PriorConfig()
    assert RunConfig().sampler() == SamplerConfig()
    assert RunConfig(variant="BA4").priors() == PriorConfig(with_gamma=True)
    assert not RunConfig(variant="BA4", metric="procrustes").priors().with_gamma
    cfg = RunConfig(m_max=9, q_min=3, theta1_rate=2.0, mq_proposal="uniform", gamma_prop_width=0.1)
    assert cfg.priors() == PriorConfig(m_max=9, q_min=3, theta1_rate=2.0)
    assert cfg.sampler() == SamplerConfig(mq_proposal="uniform", gamma_prop_width=0.1)


def test_content_hash_ignores_execution_only_keys():
    base = RunConfig()
    assert RunConfig(out_dir="x", jobs=4, save_draws=True).content_hash() == base.content_hash()
    assert RunConfig(seed=1).content_hash() != base.content_hash()
    assert RunConfig(leads=[1, 3]).content_hash() != base.content_hash()
    assert RunConfig(variant="BA2").content_hash() != base.content_hash()


def test_content_hash_survives_round_trip(tmp_path):
    cfg = RunConfig(variant="BA2", seed=3, leads=[2, 4])
    path = str(tmp_path / "c.json")
    cfg.save(path)
    assert RunConfig.load(path).content_hash() == cfg.content_hash()


def test_data_path_defaults_under_out_dir():
    cfg = RunConfig(out_dir="runs/a")
    assert cfg.data_path("forcing").endswith("runs/a/data/forcing.csv")
    cfg2 = RunConfig(forcing_path="/abs/f.csv")
    assert cfg2.data_path("forcing") == "/abs/f.csv"
    assert cfg2.data_path("response").endswith("out/data/response.csv")


def test_leads_normalized_to_ints():
    cfg = RunConfig(leads=[1.0, 3])
    assert cfg.leads == [1, 3]
    assert all(isinstance(t, int) for t in cfg.leads)


def test_ints_stand_for_floats_and_none_only_for_optional_keys():
    cfg = RunConfig(theta1_prop_sd=2, synth_noise_sd=1, metric=None, train_start=None, jobs=0)
    assert cfg.theta1_prop_sd == 2 and isinstance(cfg.theta1_prop_sd, int)  # not converted
