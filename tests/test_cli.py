import csv
import json
import os
import shutil
import warnings

import numpy as np
import pytest

from analogcast import pipeline
from analogcast.cli import build_parser, main, resolve_config
from analogcast.config import RunConfig
from analogcast.data import FieldSeries, load_field, save_field
from analogcast.scores import ScoreCard

_TINY = dict(
    iterations=60,
    burn_in=10,
    thin=5,
    leads=[1],
    holdout_n=2,
    synth_n_time=100,
    synth_lag=2,
    synth_n_loc_forcing=9,
    synth_n_loc_response=16,
    synth_regions_x=1,
    synth_regions_y=1,
    p_alpha=3,
    p_beta=4,
    q_max=6,
    m_max=8,
    jobs=1,
    seed=11,
)


def _write_config(tmp_path, name="run.json", **extra):
    cfg = dict(_TINY, out_dir=str(tmp_path / "out"), **extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_all(cfg_path, stages=("synth", "basis", "train", "forecast", "evaluate", "compare")):
    for stage in stages:
        rc = main([stage, "--config", cfg_path])
        assert rc == 0, f"stage {stage} failed"


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "analogcast" in capsys.readouterr().out


def test_unknown_stage_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["transmogrify"])
    assert e.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["synth", "--config", str(tmp_path / "gone.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_evaluate_before_forecast_exits_3(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    rc = main(["evaluate", "--config", cfg_path])
    assert rc == 3
    assert "file not found" in capsys.readouterr().err


def test_flag_overrides_win_over_config_file(tmp_path):
    cfg_path = _write_config(tmp_path)
    args = build_parser().parse_args(
        ["train", "--config", cfg_path, "--seed", "99", "--variant", "BA2",
         "--jobs", "2", "--out", str(tmp_path / "other")]
    )
    cfg = resolve_config(args)
    assert cfg.seed == 99
    assert cfg.variant == "BA2"
    assert cfg.jobs == 2
    assert cfg.out_dir == str(tmp_path / "other")
    # Untouched keys still come from the file.
    assert cfg.iterations == 60


def test_pipeline_end_to_end_writes_scorecards(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    _run_all(cfg_path)
    out = capsys.readouterr().out
    assert out.count("wrote ") >= 6
    cfg = RunConfig.load(cfg_path)
    for rel in ("data/forcing.csv", "data/response.csv", "scorecard_ba.csv", "scorecard.csv"):
        assert os.path.exists(os.path.join(cfg.out_dir, rel)), rel
    card = ScoreCard.load(os.path.join(cfg.out_dir, "scorecard.csv"))
    models = {r.model for r in card.rows}
    assert "BA1" in models and "M1" in models and "M5" in models
    leads = {r.lead for r in card.rows}
    assert leads == {1}
    # Every score is finite and each (region, lead) group has one best.
    assert all(np.isfinite(r.mse) and np.isfinite(r.ac) for r in card.rows)
    flags = card.flags()
    assert any(f[0] for f in flags.values())


def test_same_seed_reruns_are_byte_identical(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _write_config(tmp_path / "a")
    b = _write_config(tmp_path / "b")
    _run_all(a)
    _run_all(b)
    card_a = open(os.path.join(str(tmp_path / "a" / "out"), "scorecard.csv")).read()
    card_b = open(os.path.join(str(tmp_path / "b" / "out"), "scorecard.csv")).read()
    assert card_a == card_b
    fc_a = open(os.path.join(str(tmp_path / "a" / "out"), "forecasts", "fc_r1_l1.csv")).read()
    fc_b = open(os.path.join(str(tmp_path / "b" / "out"), "forecasts", "fc_r1_l1.csv")).read()
    assert fc_a == fc_b


def test_jobs_do_not_change_outputs(tmp_path):
    # Each part of the task list shares distances among its own tasks, so
    # each job count gives other sharing; the files and the paths the
    # stages return, in task order, must not change.  Three jobs split the
    # four tasks into parts of 2, 1 and 1.
    trees, written = [], []
    for jobs in (1, 2, 3):
        (tmp_path / str(jobs)).mkdir()
        cfg_path = _write_config(
            tmp_path / str(jobs), jobs=jobs, synth_regions_x=2, leads=[1, 3], iterations=40
        )
        _run_all(cfg_path, stages=("synth", "basis"))
        cfg = RunConfig.load(cfg_path)
        out = tmp_path / str(jobs) / "out"
        written.append([
            os.path.relpath(path, out)
            for stage in (pipeline.stage_train, pipeline.stage_forecast)
            for path in stage(cfg)
        ])
        _run_all(cfg_path, stages=("evaluate", "compare"))
        trees.append({
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        })
    tasks = [(region, lead) for region in (1, 2) for lead in (1, 3)]
    assert written[0] == (
        [os.path.join("chains", f"chain_r{r}_l{lead}.csv") for r, lead in tasks]
        + [os.path.join("forecasts", f"fc_r{r}_l{lead}.csv") for r, lead in tasks]
    )
    for rel in ("chains/chain_r2_l3.csv", "forecasts/fc_r2_l3.csv", "scorecard.csv"):
        assert rel in trees[0]
    assert written[1] == written[0] and written[2] == written[0]
    assert trees[1] == trees[0] and trees[2] == trees[0]


def test_jobs_0_counts_the_cpus_this_process_may_use(tmp_path, monkeypatch):
    # A host with 64 CPUs, of which this process may run on one: a
    # two-task stage must run here, without a worker pool.
    cfg_path = _write_config(tmp_path, jobs=0, leads=[1, 2])
    _run_all(cfg_path, stages=("synth", "basis"))

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    assert len(pipeline.stage_train(RunConfig.load(cfg_path))) == 2


def test_stale_chain_hash_blocks_forecast(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    _run_all(cfg_path, stages=("synth", "basis", "train"))
    # Tamper with a semantic key after training.
    raw = json.loads(open(cfg_path).read())
    raw["theta1_rate"] = 2.0
    open(cfg_path, "w").write(json.dumps(raw))
    rc = main(["forecast", "--config", cfg_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "re-run train" in err


def test_m8_request_warns_but_still_compares(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, baselines=["M1", "M5", "M8"])
    _run_all(cfg_path)
    err = capsys.readouterr().err
    assert "M8" in err
    cfg = RunConfig.load(cfg_path)
    card = ScoreCard.load(os.path.join(cfg.out_dir, "scorecard.csv"))
    models = {r.model for r in card.rows}
    assert models == {"BA1", "M1", "M5"}


def test_ba4_combined_variant_end_to_end(tmp_path):
    cfg_path = _write_config(
        tmp_path, variant="BA4", iterations=200, burn_in=50, q_max=4, m_max=6
    )
    _run_all(cfg_path)
    cfg = RunConfig.load(cfg_path)
    card = ScoreCard.load(os.path.join(cfg.out_dir, "scorecard.csv"))
    ba4 = [r for r in card.rows if r.model == "BA4"]
    assert len(ba4) == 1
    assert np.isfinite(ba4[0].mse) and np.isfinite(ba4[0].ac)
    with open(os.path.join(cfg.out_dir, "chains", "chain_r1_l1.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert all(0.0 <= float(row["gamma"]) <= 1.0 for row in rows)


@pytest.fixture(scope="module")
def forecast_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("forecast_run")
    _run_all(_write_config(base), stages=("synth", "basis", "train", "forecast"))
    return base / "out"


@pytest.mark.parametrize("damage", ["empty", "cut mid-row", "non-numeric cell"])
@pytest.mark.parametrize(
    "stage, rel",
    [
        ("forecast", "bases/psi_r1_l1.csv"),
        ("forecast", "chains/chain_r1_l1.csv"),
        ("evaluate", "forecasts/fc_r1_l1.csv"),
        ("evaluate", "forecasts/fc_r1_l1_spatial.csv"),
    ],
)
def test_malformed_artifact_exits_3(tmp_path, capsys, forecast_run, stage, rel, damage):
    shutil.copytree(forecast_run, tmp_path / "out")
    cfg_path = _write_config(tmp_path)
    path = tmp_path / "out" / rel
    lines = path.read_text().splitlines(keepends=True)
    if damage == "empty":
        lines = []
    elif damage == "cut mid-row":
        lines = [lines[0], lines[1][: len(lines[1]) // 2]]
    else:
        cells = lines[1].split(",")
        cells[2] = "abc"  # a parameter, pattern or forecast value in every file
        lines[1] = ",".join(cells)
    path.write_text("".join(lines))
    assert main([stage, "--config", cfg_path]) == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["no rows", "burn-in rows", "a third", "a middle row dropped"])
def test_chain_cut_at_a_row_boundary_exits_3(tmp_path, capsys, forecast_run, cut):
    # Every row parses, so only the row count and the iter column show
    # that the chain is incomplete.
    shutil.copytree(forecast_run, tmp_path / "out")
    cfg_path = _write_config(tmp_path)
    path = tmp_path / "out" / "chains" / "chain_r1_l1.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    assert len(rows) == _TINY["iterations"]
    rows = {
        "no rows": [],
        "burn-in rows": rows[: _TINY["burn_in"]],
        "a third": rows[:20],
        "a middle row dropped": rows[:30] + rows[31:],
    }[cut]
    path.write_text(header + "".join(rows))
    assert main(["forecast", "--config", cfg_path]) == 3
    assert str(path) in capsys.readouterr().err


def test_evaluate_refuses_a_spatial_band_for_other_targets(tmp_path, capsys, forecast_run):
    # Well-formed rows whose target times are not the forecast file's.
    shutil.copytree(forecast_run, tmp_path / "out")
    cfg_path = _write_config(tmp_path)
    path = tmp_path / "out" / "forecasts" / "fc_r1_l1_spatial.csv"
    lines = path.read_text().splitlines(keepends=True)
    for k in range(1, len(lines)):
        time, rest = lines[k].split(",", 1)
        lines[k] = f"{int(time) + 40},{rest}"
    path.write_text("".join(lines))
    assert main(["evaluate", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "target times" in err


@pytest.mark.parametrize("damage", ["missing key", "wrong type"])
@pytest.mark.parametrize(
    "rel, key, wrong",
    [("bases/psi_r1_l1.csv", "kind", 10), ("chains/chain_r1_l1.csv", "burn_in", "ten")],
)
def test_sidecar_without_a_valid_field_exits_3(
    tmp_path, capsys, forecast_run, rel, key, wrong, damage
):
    shutil.copytree(forecast_run, tmp_path / "out")
    cfg_path = _write_config(tmp_path)
    sidecar = tmp_path / "out" / (rel + ".meta.json")
    meta = json.loads(sidecar.read_text())
    if damage == "missing key":
        del meta[key]
    else:
        meta[key] = wrong
    sidecar.write_text(json.dumps(meta))
    assert main(["forecast", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert str(sidecar) in err and repr(key) in err


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"mq_proposal": "gibbs"}, "mq_proposal"),
        ({"m_min": 5, "m_max": 3}, "m_min"),
        ({"scale_norm": "foo"}, "scale_norm"),
        ({"exclusion_radius": -1}, "exclusion_radius"),
    ],
)
def test_bad_prior_sampler_or_metric_key_exits_2_before_train(tmp_path, capsys, bad, key):
    _run_all(_write_config(tmp_path), stages=("synth",))
    assert main(["basis", "--config", _write_config(tmp_path, "bad.json", **bad)]) == 2
    assert key in capsys.readouterr().err


def test_m_max_above_the_candidate_pool_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    _run_all(cfg_path, stages=("synth", "basis"))
    cfg = RunConfig.load(cfg_path)
    # The lead-1 pool: positions lag*(q_max - 1) + 1 through train_end - 1.
    pool = pipeline.load_prepared(cfg).train_end - 1 - cfg.lag * (cfg.q_max - 1)
    assert cfg.m_max < pool
    bad = _write_config(tmp_path, "bad.json", m_max=pool + 1)
    assert main(["train", "--config", bad]) == 2
    assert f"m_max={pool + 1} must lie in [1, {pool}]" in capsys.readouterr().err


def test_basis_refuses_a_basis_that_train_would_refuse(tmp_path, capsys):
    # Twelve MEOF patterns cannot be independent on nine forcing locations.
    cfg_path = _write_config(tmp_path, variant="BA2")
    _run_all(cfg_path, stages=("synth",))
    assert main(["basis", "--config", cfg_path]) == 4
    assert "linearly dependent (rank 9 < p 12)" in capsys.readouterr().err
    for role in ("psi", "phi"):
        assert not (tmp_path / "out" / "bases" / f"{role}_r1_l1.csv").exists()


def _scorecard_by_key(cfg_path) -> dict:
    cfg = RunConfig.load(cfg_path)
    card = ScoreCard.load(os.path.join(cfg.out_dir, "scorecard.csv"))
    rows = {(r.region, r.model, r.lead): r for r in card.rows}
    assert len(rows) == len(card.rows)  # one row per model per (region, lead)
    assert all(np.isfinite(r.mse) and np.isfinite(r.ac) for r in card.rows)
    return rows


@pytest.mark.parametrize("variant, p_joint, p_pre", [("BA2", 6, 6), ("BA3", 4, 6)])
def test_joint_basis_variants_run_end_to_end(tmp_path, variant, p_joint, p_pre):
    cfg_path = _write_config(
        tmp_path, variant=variant, p_joint=p_joint, p_pre=p_pre, leads=[1, 2],
        baselines=["M1", "M5"],
    )
    _run_all(cfg_path)
    rows = _scorecard_by_key(cfg_path)
    assert set(rows) == {(1, m, lead) for m in (variant, "M1", "M5") for lead in (1, 2)}


def test_ba4_with_an_auxiliary_field_end_to_end(tmp_path):
    # Without aux_path the combined metric's auxiliary side is the response
    # history; with it, the projected auxiliary field, which M7 reads too.
    (tmp_path / "plain").mkdir()
    common = dict(variant="BA4", leads=[1, 2], baselines=["M5", "M6", "M7"])
    plain = _write_config(tmp_path / "plain", **common)
    _run_all(plain)
    aux_path = str(tmp_path / "aux.csv")
    cfg_path = _write_config(tmp_path, aux_path=aux_path, **common)
    _run_all(cfg_path, stages=("synth",))
    resp = load_field(str(tmp_path / "out" / "data" / "response.csv"))
    save_field(FieldSeries(np.tanh(resp.values) + 0.3, resp.coords, resp.times), aux_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _run_all(cfg_path, stages=("basis", "train", "forecast", "evaluate", "compare"))
    rows = _scorecard_by_key(cfg_path)
    assert set(rows) == {(1, m, lead) for m in ("BA4", "M5", "M6", "M7") for lead in (1, 2)}
    cfg = RunConfig.load(cfg_path)
    prep = pipeline.load_prepared(cfg)
    for lead in (1, 2):
        targets = prep.holdout_ics + lead - 1
        err = prep.aux.values[:, targets] - prep.response.values[:, targets]
        assert rows[(1, "M7", lead)].mse == pytest.approx(np.mean(err**2), rel=1e-12)
    chain = "chains/chain_r1_l1.csv"
    assert (tmp_path / "out" / chain).read_bytes() != (tmp_path / "plain" / "out" / chain).read_bytes()
    messages = [str(w.message) for w in caught]
    assert any("auxiliary persistence at lead 2" in m for m in messages)
    assert not any("auxiliary persistence at lead 1" in m for m in messages)
