import csv
import json
import os
import shutil

import numpy as np
import pytest

from analogcast.cli import build_parser, main, resolve_config
from analogcast.config import RunConfig
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
