import numpy as np
import pytest

from analogcast.data import (
    FieldSeries,
    SynthSpec,
    generate_synthetic,
    load_field,
    load_regions,
    make_grid_partition,
    read_meta,
    read_table,
    restrict_to_region,
    save_field,
    save_regions,
    to_anomalies,
    write_table,
)
from analogcast.errors import ConfigError, DataError


def _small_field(seed=0, n_loc=6, n_time=8):
    rng = np.random.default_rng(seed)
    coords = np.array([[float(i % 3), float(i // 3)] for i in range(n_loc)])
    return FieldSeries(rng.normal(size=(n_loc, n_time)), coords, np.arange(1, n_time + 1))


def test_wide_csv_round_trip(tmp_path):
    f = _small_field()
    path = str(tmp_path / "field.csv")
    save_field(f, path)
    g = load_field(path)
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.coords, g.coords)
    assert np.array_equal(f.times, g.times)
    # Saving the reloaded field reproduces the file byte for byte.
    path2 = str(tmp_path / "field2.csv")
    save_field(g, path2)
    assert open(path).read() == open(path2).read()


def test_long_csv_shuffled_equals_sorted(tmp_path):
    f = _small_field(seed=1)
    rows = []
    for i in range(f.n_loc):
        for j, t in enumerate(f.times):
            rows.append((f.coords[i, 0], f.coords[i, 1], int(t), f.values[i, j]))
    sorted_path = tmp_path / "sorted.csv"
    shuffled_path = tmp_path / "shuffled.csv"
    header = "lon,lat,time,value\n"
    sorted_path.write_text(
        header + "".join(f"{lon},{lat},{t},{float(v)!r}\n" for lon, lat, t, v in rows)
    )
    rng = np.random.default_rng(2)
    shuffled = [rows[k] for k in rng.permutation(len(rows))]
    shuffled_path.write_text(
        header + "".join(f"{lon},{lat},{t},{float(v)!r}\n" for lon, lat, t, v in shuffled)
    )
    a = load_field(str(sorted_path), fmt="long-csv")
    b = load_field(str(shuffled_path), fmt="long-csv")
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.values, f.values)


def test_load_errors_name_the_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("lon,lat,t1,t2\n0.0,0.0,1.0\n")  # ragged row
    with pytest.raises(DataError, match="bad.csv:2"):
        load_field(str(bad))
    nan = tmp_path / "nan.csv"
    nan.write_text("lon,lat,t1,t2\n0.0,0.0,1.0,NaN\n")
    with pytest.raises(DataError, match="nan.csv:2"):
        load_field(str(nan))
    dup = tmp_path / "dup.csv"
    dup.write_text("lon,lat,t1\n0.0,0.0,1.0\n0.0,0.0,2.0\n")
    with pytest.raises(DataError, match="duplicate"):
        load_field(str(dup))
    with pytest.raises(DataError):
        load_field(str(tmp_path / "missing.csv"))
    with pytest.raises(ConfigError):
        load_field(str(bad), fmt="parquet")


def test_write_table_replaces_atomically(tmp_path):
    def interrupted():
        yield [0.5, 1]
        raise RuntimeError("interrupted")

    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="interrupted"):
        write_table(str(path), ["x", "n"], interrupted(), meta={"v": 1})
    assert list(tmp_path.iterdir()) == []
    write_table(str(path), ["x", "n"], [[np.float64(0.1), 2], [1 / 3, None]], meta={"v": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before == {
        "t.csv": b"x,n\r\n0.1,2\r\n0.3333333333333333,\r\n",
        "t.csv.meta.json": b'{\n  "v": 1\n}\n',
    }
    with pytest.raises(RuntimeError, match="interrupted"):
        write_table(str(path), ["x", "n"], interrupted(), meta={"v": 2})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert read_table(str(path)) == (["x", "n"], [(2, ["0.1", "2"]), (3, ["0.3333333333333333", ""])])
    assert read_meta(str(path)) == {"v": 1}
    (tmp_path / "t.csv.meta.json").write_text("{")
    with pytest.raises(DataError, match="invalid JSON"):
        read_meta(str(path))


def test_field_series_validation():
    coords = np.zeros((2, 2))
    with pytest.raises(DataError):
        FieldSeries(np.ones((2, 3)), coords, np.array([1, 2]))  # times length
    with pytest.raises(DataError):
        FieldSeries(np.ones((2, 3)), coords, np.array([1, 2, 2]))  # not increasing
    with pytest.raises(DataError):
        FieldSeries(np.array([[1.0, np.nan, 0.0], [0.0, 0.0, 0.0]]), coords, np.array([1, 2, 3]))


def test_anomalies_monthly_means_vanish():
    # Two years of monthly data with a seasonal cycle plus trend: after
    # removing per-month climatology over the full window, each month
    # class must average to zero.
    t = np.arange(24)
    values = (np.sin(2 * np.pi * t / 12.0) + 0.05 * t)[None, :] * np.array([[1.0], [2.0]])
    f = FieldSeries(values, np.zeros((2, 2)), np.arange(1, 25))
    anom = to_anomalies(f, by_period=12)
    for cls in range(12):
        sel = (f.times % 12) == cls
        means = anom.values[:, sel].mean(axis=1)
        assert np.abs(means).max() < 1e-10


def test_anomalies_window_and_errors():
    f = _small_field(seed=3, n_time=10)
    anom = to_anomalies(f, clim_start=1, clim_end=5)
    assert np.abs(anom.values[:, :5].mean(axis=1)).max() < 1e-12
    # The mean outside the window generally stays nonzero.
    assert np.abs(anom.values[:, 5:].mean(axis=1)).max() > 1e-6
    with pytest.raises(DataError):
        to_anomalies(f, clim_start=8, clim_end=3)
    with pytest.raises(DataError):
        to_anomalies(f, clim_start=2, clim_end=6, by_period=12)  # missing classes
    with pytest.raises(ConfigError):
        to_anomalies(f, by_period=0)


def test_synthetic_reproducible_and_shaped():
    spec = SynthSpec(n_time=120, n_loc_forcing=9, n_loc_response=16, lag=2)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.forcing.values, b.forcing.values)
    assert np.array_equal(a.response.values, b.response.values)
    assert a.forcing.values.shape == (9, 120)
    assert a.response.values.shape == (16, 120)
    assert a.forcing.times.tolist() == list(range(1, 121))
    assert np.abs(a.response.values.mean(axis=1)).max() < 1e-10  # anomalies
    c = generate_synthetic(SynthSpec(n_time=120, n_loc_forcing=9, n_loc_response=16, lag=2, seed=9))
    assert not np.allclose(a.forcing.values, c.forcing.values)


def test_synthetic_forcing_leads_response_by_lag():
    # With the quadratic term off, the response is a linear read-out of the
    # latent state `lag` steps back while the forcing reads the current one,
    # so regressing each field on the matching latent block pins the
    # alignment far more sharply than a cross-correlation scan would.
    spec = SynthSpec(n_time=150, lag=4, nonlinearity=0.0, noise_sd=0.01, seed=5)
    out = generate_synthetic(spec)
    z = out.latents  # (rank, n_time + lag); latent time starts at 1 - lag

    def explained(field, block):
        X = np.column_stack([block.T, np.ones(block.shape[1])])
        y = field.values.T
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        return 1.0 - (resid**2).sum() / (y**2).sum()

    lagged, current = z[:, : spec.n_time], z[:, spec.lag :]
    assert explained(out.forcing, current) > 0.99
    aligned = explained(out.response, lagged)
    misaligned = explained(out.response, current)
    assert aligned > 0.99
    assert aligned > misaligned + 0.02


def test_synthetic_length_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n_time=70, lag=2)


def test_grid_partition_and_region_round_trip(tmp_path):
    spec = SynthSpec(n_time=120, n_loc_response=25, n_loc_forcing=9, lag=1)
    out = generate_synthetic(spec)
    part = make_grid_partition(out.response.coords, 2, 2)
    assert part.n_regions == 4
    assert part.region_of.min() == 1
    counts = np.bincount(part.region_of)[1:]
    assert counts.sum() == 25 and counts.min() >= 1
    path = str(tmp_path / "regions.csv")
    save_regions(part, out.response.coords, path)
    loaded = load_regions(path, out.response.coords)
    assert np.array_equal(loaded.region_of, part.region_of)
    sub = restrict_to_region(out.response, part, 1)
    members = np.flatnonzero(part.region_of == 1)
    assert np.array_equal(sub.values, out.response.values[members])
    assert np.array_equal(sub.coords, out.response.coords[members])


def test_region_file_must_match_grid(tmp_path):
    f = _small_field()
    path = tmp_path / "regions.csv"
    path.write_text("lon,lat,region\n" + "".join(
        f"{float(lon)!r},{float(lat)!r},1\n" for lon, lat in f.coords[:-1]
    ))
    with pytest.raises(DataError):
        load_regions(str(path), f.coords)  # one location missing


def test_synthetic_system_is_learnable_by_analogs(tmp_path):
    # The documented property of the default coupled system (nonlinearity 1,
    # noise sd 0.1, 200 steps): an analog forecast at the coupling lead beats
    # predicting zero (the climatology of an anomaly field) on the last 40
    # steps.  Driven through the pipeline so the claim covers the real stack.
    from analogcast.config import RunConfig
    from analogcast.pipeline import (
        ScoreCard,
        path_scorecard,
        stage_basis,
        stage_compare,
        stage_evaluate,
        stage_forecast,
        stage_synth,
        stage_train,
    )

    cfg = RunConfig(
        out_dir=str(tmp_path / "run"), seed=0, synth_n_time=200,
        synth_regions_x=1, synth_regions_y=1, leads=[6], baselines=["M5"],
        iterations=1000, burn_in=250, holdout_n=40, q_max=8,
        p_alpha=6, p_beta=5, jobs=1,
    )
    for stage in (stage_synth, stage_basis, stage_train, stage_forecast,
                  stage_evaluate, stage_compare):
        stage(cfg)
    card = ScoreCard.load(path_scorecard(cfg, combined=True))
    mse = {row.model: row.mse for row in card.rows}
    assert mse["BA1"] < mse["M5"]
