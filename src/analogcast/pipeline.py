"""End-to-end stages wiring data, bases, sampling, forecasts, and scores.

Stages communicate through files under ``out_dir`` so any stage can be
re-run or re-scored exactly from what the previous one wrote:

    data/      forcing.csv response.csv regions.csv   (synth stage)
    bases/     psi_r{R}_l{L}.csv phi_r{R}_l{L}.csv    (basis stage)
    chains/    chain_r{R}_l{L}.csv + .meta.json       (train stage)
    forecasts/ fc_r{R}_l{L}.csv, fc_.._spatial.csv    (forecast stage)
    scorecard_ba.csv, series_r{R}_l{L}.csv            (evaluate stage)
    scorecard.csv                                     (compare stage)

Every chain records the config hash it was trained under, and the forecast
stage refuses a chain whose hash does not match the current config; no
other stage checks a hash.  Every artifact is written through
``data.write_table`` (atomically, so an interrupted stage leaves the old
file or none), and a missing, empty, cut-off or unparsable artifact raises
``DataError`` (CLI exit 3).  Each train and forecast stage loads its inputs
once and hands them to every (region, lead) task; ``build_setup`` builds a
task's ``AnalogEngine`` the same way for both, and the config hands out its
prior and sampler settings.  Tasks run region-major, all in the stage's
process with ``jobs`` 1, else in ``jobs`` contiguous parts, one pool worker
each.  Each part makes one ``DistanceStore`` that its tasks share, so chains
over one forcing library (every task under BA1 and BA4, the leads of a
region under BA2) build each distance matrix once in a part.  A stored
matrix depends only on the library and a task's training periods, and all
seeds are derived from (seed, stage, region, lead), so results do not
depend on how tasks are split across processes.
"""

from __future__ import annotations

import hashlib
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from .basis import (
    BasisSet,
    compute_cca,
    compute_eof,
    compute_meof,
    load_basis,
    project,
    save_basis,
)
from .bayes import (
    AnalogEngine,
    DistanceStore,
    central_band,
    load_chain,
    posterior_predict,
    run_chain,
    save_chain,
)
from .config import RunConfig
from .data import (
    FieldSeries,
    RegionPartition,
    SynthSpec,
    generate_synthetic,
    load_field,
    load_regions,
    make_grid_partition,
    parse_rows,
    read_table,
    restrict_to_region,
    save_field,
    save_regions,
    to_anomalies,
    write_table,
)
from .embedding import build_library, build_training_index
from .errors import ConfigError, DataError
from .scores import ScoreCard, ScoreRow, score_forecasts


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from any mix of ints and strings."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


@dataclass
class Prepared:
    """Anomaly fields plus the resolved train / hold-out split."""

    forcing: FieldSeries
    response: FieldSeries
    aux: FieldSeries | None
    partition: RegionPartition
    train_start: int
    train_end: int
    holdout_ics: np.ndarray  # 1-based initial-condition positions


def load_prepared(cfg: RunConfig) -> Prepared:
    """Load inputs, convert to anomalies, and resolve the time split."""
    forcing = to_anomalies(
        _load(cfg, "forcing"), cfg.clim_start, cfg.clim_end, cfg.by_period
    )
    response = to_anomalies(
        _load(cfg, "response"), cfg.clim_start, cfg.clim_end, cfg.by_period
    )
    if not np.array_equal(forcing.times, response.times):
        raise DataError("forcing and response files cover different times")
    aux = None
    if cfg.aux_path is not None:
        aux = to_anomalies(
            load_field(cfg.aux_path, cfg.file_format),
            cfg.clim_start,
            cfg.clim_end,
            cfg.by_period,
        )
        if aux.n_loc != response.n_loc or not np.array_equal(aux.times, response.times):
            raise DataError("aux_path field must share the response grid and times")

    regions_file = cfg.regions_path or os.path.join(cfg.out_dir, "data", "regions.csv")
    if cfg.regions_path or os.path.exists(regions_file):
        partition = load_regions(regions_file, response.coords)
    else:
        partition = RegionPartition(np.ones(response.n_loc, dtype=int))

    T = response.n_time
    max_lead = max(cfg.leads)
    base_lo = cfg.lag * (cfg.q_max - 1) + 1
    train_start = cfg.train_start if cfg.train_start is not None else base_lo
    train_end = (
        cfg.train_end
        if cfg.train_end is not None
        else T - max_lead - cfg.holdout_n
    )
    if train_start < base_lo:
        raise ConfigError(
            f"train_start={train_start} is below lag*(q_max-1)+1={base_lo}; "
            "raise train_start or lower q_max/lag"
        )
    if train_end <= train_start:
        raise ConfigError(
            f"resolved train_end={train_end} <= train_start={train_start}; "
            "check train_end, holdout_n, leads, and the series length"
        )
    holdout = np.arange(train_end + 1, train_end + cfg.holdout_n + 1)
    if holdout[-1] + max_lead > T:
        raise ConfigError(
            f"hold-out targets run past the series end {T}; "
            "lower holdout_n or train_end"
        )
    return Prepared(
        forcing=forcing,
        response=response,
        aux=aux,
        partition=partition,
        train_start=int(train_start),
        train_end=int(train_end),
        holdout_ics=holdout,
    )


def _load(cfg: RunConfig, which: str) -> FieldSeries:
    path = cfg.data_path(which)
    if not os.path.exists(path):
        raise DataError(
            f"{which}_path file not found: {path} (run the synth stage or set {which}_path)"
        )
    return load_field(path, cfg.file_format)


# --- file layout -------------------------------------------------------------


def _p(cfg: RunConfig, *parts: str) -> str:
    path = os.path.join(cfg.out_dir, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def path_basis(cfg, role: str, region: int, lead: int) -> str:
    return _p(cfg, "bases", f"{role}_r{region}_l{lead}.csv")


def path_chain(cfg, region: int, lead: int) -> str:
    return _p(cfg, "chains", f"chain_r{region}_l{lead}.csv")


def path_forecast(cfg, region: int, lead: int, spatial: bool = False) -> str:
    tag = "_spatial" if spatial else ""
    return _p(cfg, "forecasts", f"fc_r{region}_l{lead}{tag}.csv")


def path_draws(cfg, region: int, lead: int) -> str:
    return _p(cfg, "forecasts", f"draws_r{region}_l{lead}.csv")


def path_series(cfg, region: int, lead: int) -> str:
    return _p(cfg, f"series_r{region}_l{lead}.csv")


def path_scorecard(cfg, combined: bool) -> str:
    return _p(cfg, "scorecard.csv" if combined else "scorecard_ba.csv")


# --- synth stage -------------------------------------------------------------


def stage_synth(cfg: RunConfig) -> list[str]:
    spec = SynthSpec(
        n_loc_forcing=cfg.synth_n_loc_forcing,
        n_loc_response=cfg.synth_n_loc_response,
        n_time=cfg.synth_n_time,
        lag=cfg.synth_lag,
        nonlinearity=cfg.synth_nonlinearity,
        noise_sd=cfg.synth_noise_sd,
        seed=cfg.seed,
    )
    out = generate_synthetic(spec)
    paths = [
        _p(cfg, "data", "forcing.csv"),
        _p(cfg, "data", "response.csv"),
        _p(cfg, "data", "regions.csv"),
    ]
    save_field(out.forcing, paths[0])
    save_field(out.response, paths[1])
    part = make_grid_partition(
        out.response.coords, cfg.synth_regions_x, cfg.synth_regions_y
    )
    save_regions(part, out.response.coords, paths[2])
    return paths


# --- basis stage -------------------------------------------------------------


def compute_region_bases(
    cfg: RunConfig, prep: Prepared, region: int, lead: int
) -> tuple[BasisSet, BasisSet]:
    """Forcing-side (psi) and response-side (phi) patterns for one region.

    Train projects both fields onto them, so a basis with linearly
    dependent columns raises the same ``NumericError`` here."""
    resp = restrict_to_region(prep.response, prep.partition, region)
    if cfg.variant in ("BA1", "BA4"):
        psi, phi = compute_eof(prep.forcing, cfg.p_beta), compute_eof(resp, cfg.p_alpha)
    elif cfg.variant == "BA2":
        psi, phi = compute_meof(prep.forcing, resp, cfg.p_joint)
    else:  # BA3: lead-specific canonical patterns
        psi, phi = compute_cca(prep.forcing, resp, lead, cfg.p_pre, cfg.p_joint)
    project(prep.forcing, psi)
    project(resp, phi)
    return psi, phi


def stage_basis(cfg: RunConfig) -> list[str]:
    prep = load_prepared(cfg)
    written = []
    for region in range(1, prep.partition.n_regions + 1):
        for lead in cfg.leads:
            psi, phi = compute_region_bases(cfg, prep, region, lead)
            p_psi = path_basis(cfg, "psi", region, lead)
            p_phi = path_basis(cfg, "phi", region, lead)
            save_basis(psi, p_psi)
            save_basis(phi, p_phi)
            written += [p_psi, p_phi]
    return written


# --- train stage -------------------------------------------------------------


def build_setup(
    cfg: RunConfig, prep: Prepared, region: int, lead: int, store: DistanceStore
) -> tuple[AnalogEngine, BasisSet]:
    """The analog engine of one (region, lead) task, reading its distances
    from ``store``, and the response basis (phi) its forecasts map back
    through.  Both come from the bases the basis stage wrote."""
    psi = load_basis(path_basis(cfg, "psi", region, lead))
    phi = load_basis(path_basis(cfg, "phi", region, lead))
    resp = restrict_to_region(prep.response, prep.partition, region)
    alpha = project(resp, phi)
    lib = build_library(project(prep.forcing, psi), cfg.lag, cfg.q_max)
    metric = cfg.effective_metric
    aux_lib = None
    if metric == "combined":
        aux_coeffs = alpha  # response history stands in for a missing auxiliary field
        if prep.aux is not None:
            aux_coeffs = project(restrict_to_region(prep.aux, prep.partition, region), phi)
        aux_lib = build_library(aux_coeffs, cfg.lag, cfg.q_max)
    index = build_training_index(
        lib, prep.train_start, prep.train_end, lead, cfg.exclusion_radius
    )
    engine = AnalogEngine(
        lib, alpha, index, metric, cfg.scale_norm, aux_lib, cfg.m_max, store
    )
    return engine, phi


def _train_one(args: tuple, store: DistanceStore) -> str:
    cfg, prep, region, lead = args
    engine, _ = build_setup(cfg, prep, region, lead, store)
    chain = run_chain(
        engine.lib, engine.responses, engine.index, cfg.priors(),
        iterations=cfg.iterations, burn_in=cfg.burn_in,
        seed=derive_seed(cfg.seed, "train", region, lead), config=cfg.sampler(),
        ssr_fn=engine.ssr, n_terms=engine.n_terms,
    )
    path = path_chain(cfg, region, lead)
    meta = {"config_hash": cfg.content_hash(), "region": region, "lead": lead}
    save_chain(chain, path, extra_meta=meta)
    rates = ", ".join(f"{k}={v:.2f}" for k, v in chain.accept_rates.items())
    print(f"train region {region} lead {lead}: accept {rates}")
    return path


def _run_part(worker, tasks: list) -> list:
    """Run ``worker(task, store)`` on ``tasks`` in order, sharing one store."""
    store = DistanceStore()
    return [worker(task, store) for task in tasks]


def _run_tasks(cfg: RunConfig, worker) -> list:
    """Load the inputs once and run ``worker`` on every (region, lead)
    task: in this process with one job, else in ``jobs`` contiguous parts
    of the region-major task list, one worker process each."""
    prep = load_prepared(cfg)
    tasks = [
        (cfg, prep, region, lead)
        for region in range(1, prep.partition.n_regions + 1)
        for lead in cfg.leads
    ]
    # jobs 0: the CPUs this process may run on, where the OS has affinity masks
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = max(1, min(cfg.jobs or cpus or 1, len(tasks)))
    if jobs == 1:
        return _run_part(worker, tasks)
    cuts = [-(-k * len(tasks) // jobs) for k in range(jobs + 1)]  # ceil: larger parts first
    parts = [tasks[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [out for part in pool.map(_run_part, [worker] * jobs, parts) for out in part]


def stage_train(cfg: RunConfig) -> list[str]:
    return _run_tasks(cfg, _train_one)


# --- forecast stage ----------------------------------------------------------


_SPATIAL_HEADER = ["target_time", "forecast_mean", "lo", "hi"]


def _forecast_one(args: tuple, store: DistanceStore) -> str:
    cfg, prep, region, lead = args
    engine, phi = build_setup(cfg, prep, region, lead, store)
    chain_path = path_chain(cfg, region, lead)
    chain, meta = load_chain(chain_path)
    if meta.get("config_hash") != cfg.content_hash():
        raise ConfigError(
            f"chain for region {region} lead {lead} was trained under a different "
            "config (hash mismatch); re-run train"
        )
    if len(chain.log_posts) != cfg.iterations:
        raise DataError(
            f"{chain_path}: {len(chain.log_posts)} rows, but iterations={cfg.iterations}"
        )
    times = prep.response.times
    fds = [
        posterior_predict(
            chain,
            engine.lib,
            engine.responses,
            engine.index,
            t_initial=int(ic),
            basis=phi,
            thin=cfg.thin,
            seed=derive_seed(cfg.seed, "forecast", region, lead, int(ic)),
            engine=engine,
        )
        for ic in prep.holdout_ics
    ]
    cals = [int(times[fd.target_time - 1]) for fd in fds]
    fc_path = path_forecast(cfg, region, lead)
    header = ["lon", "lat"] + [f"{k}_t{cal}" for cal in cals for k in ("mean", "lo", "hi")]
    bands = [np.column_stack([fd.field_mean, fd.field_lo, fd.field_hi]) for fd in fds]
    write_table(fc_path, header, np.column_stack([phi.coords] + bands).tolist())
    spatial = []
    for cal, fd in zip(cals, fds):
        sp = fd.field_draws.mean(axis=1)
        spatial.append([cal, sp.mean(), *central_band(sp)])
    write_table(path_forecast(cfg, region, lead, spatial=True), _SPATIAL_HEADER, spatial)
    if cfg.save_draws:
        p = fds[0].coeff_draws.shape[1]
        write_table(
            path_draws(cfg, region, lead),
            ["target_time", "draw"] + [f"c{j + 1}" for j in range(p)],
            (
                [cal, d + 1] + draw
                for cal, fd in zip(cals, fds)
                for d, draw in enumerate(fd.coeff_draws.tolist())
            ),
        )
    return fc_path


def stage_forecast(cfg: RunConfig) -> list[str]:
    return _run_tasks(cfg, _forecast_one)


def read_forecast_means(path: str, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read a forecast file back as (mean matrix (n_loc, n_targets),
    target positions).  Only the mean columns are used for scoring."""
    header, pairs = read_table(path)
    cols = [j for j, name in enumerate(header) if name.startswith("mean_t")]
    if not cols:
        raise DataError(f"{path}: no mean columns found")
    pos_of = {f"mean_t{int(t)}": i + 1 for i, t in enumerate(times)}
    try:
        positions = np.asarray([pos_of[header[j]] for j in cols])
    except KeyError as e:
        raise DataError(f"{path}: column {e} names no time of the response series") from None
    means = parse_rows(path, pairs, lambda row: [float(row[j]) for j in cols])
    return np.asarray(means, dtype=float).reshape(-1, len(cols)), positions


# --- evaluate and compare stages ----------------------------------------------


def _ba_row(cfg, prep, region, lead) -> tuple[ScoreRow, np.ndarray, np.ndarray]:
    resp = restrict_to_region(prep.response, prep.partition, region)
    fc_path = path_forecast(cfg, region, lead)
    means, positions = read_forecast_means(fc_path, prep.response.times)
    if means.shape[0] != resp.n_loc:
        raise DataError(f"{fc_path}: {means.shape[0]} rows for {resp.n_loc} region locations")
    realized = resp.values[:, positions - 1]
    row = score_forecasts(
        region, cfg.variant, lead, realized, means, corrected_ac=cfg.ac_corrected
    )
    return row, realized, positions


def stage_evaluate(cfg: RunConfig) -> str:
    prep = load_prepared(cfg)
    rows = []
    for region in range(1, prep.partition.n_regions + 1):
        for lead in cfg.leads:
            row, realized, positions = _ba_row(cfg, prep, region, lead)
            rows.append(row)
            # Figure-style regional series: realized vs forecast band.
            sp_path = path_forecast(cfg, region, lead, spatial=True)
            header, pairs = read_table(sp_path)
            if header != _SPATIAL_HEADER:
                raise DataError(f"{sp_path}:1: unexpected spatial forecast header")
            spatial = parse_rows(
                sp_path, pairs, lambda r: [int(r[0]), float(r[1]), float(r[2]), float(r[3])]
            )
            if [r[0] for r in spatial] != prep.response.times[positions - 1].tolist():
                raise DataError(f"{sp_path}: target times do not match the forecast file")
            write_table(
                path_series(cfg, region, lead),
                ["target_time", "realized_mean", "forecast_mean", "lo", "hi"],
                (
                    [cal, realized[:, k].mean(), fc_mean, lo, hi]
                    for k, (cal, fc_mean, lo, hi) in enumerate(spatial)
                ),
            )
    card = ScoreCard(rows)
    out = path_scorecard(cfg, combined=False)
    card.save(out)
    return out


def baseline_rows(cfg: RunConfig, prep: Prepared, region: int, lead: int) -> list[ScoreRow]:
    """Score the requested comparison methods for one (region, lead)."""
    resp = restrict_to_region(prep.response, prep.partition, region)
    targets = prep.holdout_ics + lead
    realized = resp.values[:, targets - 1]
    train_ics = np.arange(prep.train_start, prep.train_end + 1)
    window = (1, prep.train_end + lead)

    need_coeff = {"M1", "M2"} & set(cfg.baselines)
    rows: list[ScoreRow] = []
    if need_coeff:
        psi = compute_eof(prep.forcing, cfg.p_beta)
        phi = compute_eof(resp, cfg.p_alpha)
        beta = project(prep.forcing, psi).values
        alpha = project(resp, phi).values
    for label in cfg.baselines:
        if label == "M8":
            print("M8 unavailable", file=sys.stderr)
            continue
        if label == "M1":
            coef_fc = bl.fit_predict_linear(beta, alpha, train_ics, prep.holdout_ics, lead)
            fc = phi.matrix @ coef_fc
        elif label == "M2":
            coef_fc, _ = bl.constructed_analog(
                beta, alpha, train_ics, prep.holdout_ics, lead
            )
            fc = phi.matrix @ coef_fc
        elif label in ("M3", "M4"):
            order = 1 if label == "M3" else 2
            fc = bl.ar_forecast(resp.values, window, targets, steps=lead, order=order)
        elif label == "M5":
            fc = bl.climatology(resp.values, window, targets.size)
        elif label == "M6":
            fc = bl.persistence_previous(resp.values, targets, lead, cfg.by_period)
        elif label == "M7":
            if prep.aux is None:
                warnings.warn("M7 skipped: no aux_path configured", stacklevel=2)
                continue
            aux_region = restrict_to_region(prep.aux, prep.partition, region)
            fc = bl.persistence_aux(aux_region.values, targets, lead)
        else:
            raise ConfigError(f"unknown baseline {label!r}")
        rows.append(
            score_forecasts(region, label, lead, realized, fc, corrected_ac=cfg.ac_corrected)
        )
    return rows


def stage_compare(cfg: RunConfig) -> str:
    prep = load_prepared(cfg)
    rows: list[ScoreRow] = []
    for region in range(1, prep.partition.n_regions + 1):
        for lead in cfg.leads:
            row, _, _ = _ba_row(cfg, prep, region, lead)
            rows.append(row)
            rows.extend(baseline_rows(cfg, prep, region, lead))
    card = ScoreCard(rows)
    out = path_scorecard(cfg, combined=True)
    card.save(out)
    return out
