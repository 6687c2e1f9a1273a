"""Benchmark workloads: pinned run configs and seeded input generation.

Every workload spells out every ``RunConfig`` key, so a later change to a
package default does not silently change what is measured.  Inputs are
written from the benchmark's own seed through the package's public
synthetic generator and CSV writers, before any timing starts.
"""

from __future__ import annotations

import os

# The walk-default workload; the others override some keys.  Paths, out_dir
# and seed are filled in by ``make_config``; the synth_* keys describe the
# generated inputs.
_BASE = {
    "file_format": "wide-csv",
    "clim_start": None,
    "clim_end": None,
    "by_period": 1,
    "variant": "BA1",
    "metric": None,
    "p_alpha": 5,
    "p_beta": 12,
    "p_joint": 12,
    "p_pre": 12,
    "lag": 1,
    "leads": [1, 6],
    "m_min": 1,
    "m_max": 15,
    "q_min": 2,
    "q_max": 24,
    "theta1_shape": 2.0,
    "theta1_rate": 1.0,
    "sigma2_shape": 0.001,
    "sigma2_rate": 0.001,
    "iterations": 1000,
    "burn_in": 100,
    "thin": 5,
    "theta1_prop_sd": 1.2,
    "gamma_prop_width": 0.2,
    "mq_proposal": "walk",
    "train_start": None,
    "train_end": None,
    "holdout_n": 7,
    "exclusion_radius": 0,
    "scale_norm": "centered",
    "ac_corrected": True,
    "baselines": ["M1", "M2", "M3", "M4", "M5", "M6"],
    "synth_n_loc_forcing": 36,
    "synth_n_loc_response": 108,
    "synth_n_time": 160,
    "synth_lag": 6,
    "synth_nonlinearity": 1.0,
    "synth_noise_sd": 0.1,
    "synth_regions_x": 1,
    "synth_regions_y": 1,
    "jobs": 1,
    "save_draws": False,
}

# Why each workload exists, and the overrides that make it.  The walk
# workload trains two chains (leads 1 and 6): how far a walk chain wanders
# in q, and so how many Procrustes matrices it builds, depends on the seed.
# The other two build a number of matrices that does not depend on it.
WORKLOADS = {
    "walk-default": {
        "why": "c9 data and settings (BA1, walk proposals), one region at leads 1/6; long walk "
        "chains visit few q, so the sampler and kernel dominate",
        "config": {},
    },
    "uniform-sweep": {
        "why": "same data with uniform (m, q) proposals, q <= 16, at lead 1; the chain builds "
        "all 15 Procrustes matrices, so the distance layer dominates",
        "config": {
            "mq_proposal": "uniform",
            "leads": [1],
            "q_max": 16,
            "iterations": 100,
            "burn_in": 20,
        },
    },
    "wide-grid": {
        "why": "dense 1200-point response grid in 6 regions with short series, short chains "
        "and small q/m; CSV ingestion and artifact reads and writes dominate",
        "config": {
            "synth_n_loc_response": 1200,
            "synth_n_time": 100,
            "synth_regions_x": 3,
            "synth_regions_y": 2,
            "leads": [1],
            "m_max": 5,
            "q_max": 6,
            "iterations": 30,
            "burn_in": 10,
            "thin": 2,
        },
    },
}


def make_config(name: str, seed: int, work_dir: str) -> dict:
    """Full config dict for one workload, its inputs under ``work_dir``/data."""
    cfg = dict(_BASE)
    cfg.update(WORKLOADS[name]["config"])
    data = os.path.join(work_dir, "data")
    cfg.update(
        out_dir=os.path.join(work_dir, "out"),
        forcing_path=os.path.join(data, "forcing.csv"),
        response_path=os.path.join(data, "response.csv"),
        regions_path=os.path.join(data, "regions.csv"),
        aux_path=None,
        seed=seed,
    )
    return cfg


def write_inputs(cfg: dict) -> None:
    """Write forcing, response and regions CSVs for ``cfg`` from its seed."""
    from analogcast.data import (
        SynthSpec,
        generate_synthetic,
        make_grid_partition,
        save_field,
        save_regions,
    )

    spec = SynthSpec(
        n_loc_forcing=cfg["synth_n_loc_forcing"],
        n_loc_response=cfg["synth_n_loc_response"],
        n_time=cfg["synth_n_time"],
        lag=cfg["synth_lag"],
        nonlinearity=cfg["synth_nonlinearity"],
        noise_sd=cfg["synth_noise_sd"],
        seed=cfg["seed"],
    )
    os.makedirs(os.path.dirname(cfg["forcing_path"]), exist_ok=True)
    synth = generate_synthetic(spec)
    save_field(synth.forcing, cfg["forcing_path"])
    save_field(synth.response, cfg["response_path"])
    part = make_grid_partition(
        synth.response.coords, cfg["synth_regions_x"], cfg["synth_regions_y"]
    )
    save_regions(part, synth.response.coords, cfg["regions_path"])
