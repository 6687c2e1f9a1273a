#!/usr/bin/env python3
"""Benchmark of the staged analogcast pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload walk-default --seed 1 --seconds 40 --trace 0

Inputs are generated from ``--seed`` before timing starts.  With
``--trace 0`` the pipeline runs the way users run it, one process per
stage from ``basis`` through ``compare``, repeated while another pass fits
in ``--seconds`` (at least twice, so reruns can be compared byte for
byte); the rest of the time reruns the train and forecast stages over the
last pass's artifacts.  A set-up probe follows every pass and rerun.  The
end-to-end metrics are medians over those samples.  With ``--trace 1``
the stages run once as separate processes and once in this process with
one job and every layer function wrapped in a span, and the per-layer
metrics come from the spans.  Every pass is checked for correct outputs.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP threads before numpy loads, here and in every stage
# process, so that jobs x threads stays within the CPU count.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_config, write_inputs  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
STAGES = ("basis", "train", "forecast", "evaluate", "compare")
STARTUP_REPEATS = 3
STAGE_TIMEOUT_S = 150.0

# Metric name -> unit, in print order.
END_TO_END = {
    "pipeline_s": "s",
    "train_iter_per_s": "1/s",
    "forecast_s": "s",
    "setup_s": "s",
}
PER_LAYER = {
    "metric.procrustes_distances.calls": "count",
    "metric.procrustes_distances.s": "s",
    "metric.procrustes_distances.ms_per_call": "ms",
    "metric.pairs": "count",
    "metric.us_per_pair": "us",
    "kernel.topk_weights.calls": "count",
    "kernel.topk_weights.us_per_call": "us",
    "bayes.ssr.calls": "count",
    "bayes.ssr.us_per_call": "us",
    "bayes.ssr.self_s": "s",
    "bayes.predictive_mean.calls": "count",
    "bayes.predictive_mean.us_per_call": "us",
    "bayes.accept.theta1": "ratio",
    "bayes.accept.m": "ratio",
    "bayes.accept.q": "ratio",
    "bayes.q_visited": "q/chain",
    "bayes.matrices_per_chain": "count",
    "bayes.dist_cache_hit_ratio": "ratio",
    "data.load_field.calls": "count",
    "data.load_field.ms_per_call": "ms",
    "pipeline.load_prepared.calls": "count",
    "pipeline.load_prepared.s": "s",
    "basis.compute.s": "s",
    "basis.project.s": "s",
    "embedding.build_library.s": "s",
    "pipeline.build_setup.s": "s",
    "bayes.save_chain.s": "s",
    "bayes.load_chain.s": "s",
    "baselines.s": "s",
    "scores.score_forecasts.s": "s",
    "pipeline.task_s.p50": "s",
    "pipeline.task_s.max": "s",
    "cli.startup_s": "s",
    "pipeline.unattributed_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "pipeline.peak_rss_mb": "MB",
    "quality.skill_msss": "1",
    "quality.coverage_gap": "ratio",
    **{f"layer.{m}.self_s": "s" for m in LAYERS},
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], log_path: str, env: dict) -> tuple[float, float, int]:
    """Run one child to completion: (wall s, peak RSS MB of it and its
    waited-for workers, exit code).  A child past the timeout is killed."""
    with open(log_path, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=out)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# --- correctness -----------------------------------------------------------


class Truth:
    """Realized hold-out anomalies and task layout for one config."""

    def __init__(self, cfg_path: str):
        from analogcast import pipeline
        from analogcast.config import RunConfig
        from analogcast.data import restrict_to_region

        cfg = RunConfig.load(cfg_path)
        prep = pipeline.load_prepared(cfg)
        self.cfg = cfg
        self.tasks = [
            (r, lead)
            for r in range(1, prep.partition.n_regions + 1)
            for lead in cfg.leads
        ]
        self.cal_to_pos = {int(t): i + 1 for i, t in enumerate(prep.response.times)}
        self.regions = {}
        for r in range(1, prep.partition.n_regions + 1):
            region = restrict_to_region(prep.response, prep.partition, r)
            self.regions[r] = (region.values, region.coords)
        self.holdout_ics = [int(t) for t in prep.holdout_ics]
        self.train_end = prep.train_end
        models = [b for b in cfg.baselines if b != "M8"]
        if cfg.aux_path is None:
            models = [b for b in models if b != "M7"]
        self.models = sorted([cfg.variant] + models)

    def path(self, *parts: str) -> str:
        return os.path.join(self.cfg.out_dir, *parts)

    def climatology_mse(self, r: int, lead: int) -> float:
        """MSE of M5, the per-location mean over periods 1 .. train_end + lead,
        at the hold-out targets; written out here as an independent check."""
        values = self.regions[r][0]
        window = values[:, : self.train_end + lead]
        clim = window.sum(axis=1) / window.shape[1]
        cols = [ic + lead - 1 for ic in self.holdout_ics]
        err = values[:, cols] - clim[:, None]
        return float((err * err).sum() / err.size)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_outputs(truth: Truth) -> dict:
    """Check one pass's artifacts.  Returns the failed (stage, region, lead)
    tasks, scorecard rows per task, quality figures and the digest."""
    failed: set[tuple] = set()
    ba_mse: dict[tuple, float] = {}
    inside = total = 0
    for r, lead in truth.tasks:
        for role in ("psi", "phi"):
            if not os.path.exists(truth.path("bases", f"{role}_r{r}_l{lead}.csv")):
                failed.add(("basis", r, lead))
        try:
            if len(_read_csv(truth.path("chains", f"chain_r{r}_l{lead}.csv"))) != truth.cfg.iterations + 1:
                failed.add(("train", r, lead))
        except OSError:
            failed.add(("train", r, lead))
        try:
            table = _read_csv(truth.path("forecasts", f"fc_r{r}_l{lead}.csv"))
            bands = _check_bands(truth, r, lead, table)
        except (OSError, ValueError, KeyError, IndexError):
            bands = None
        if bands is None:
            failed.add(("forecast", r, lead))
        else:
            ba_mse[(r, lead)], n_in, n_all = bands
            inside += n_in
            total += n_all

    rows_by_task: dict[tuple, list[str]] = {}
    quality = {}
    for stage, name, models in (
        ("evaluate", "scorecard_ba.csv", [truth.cfg.variant]),
        ("compare", "scorecard.csv", truth.models),
    ):
        try:
            table = _read_csv(truth.path(name))
        except OSError:
            table = [[]]
        by_task: dict[tuple, dict[str, float]] = {}
        for row in table[1:]:
            try:
                task = (int(row[0]), int(row[2]))
            except (ValueError, IndexError):
                continue  # a row of no task; the tasks' own checks still run
            rows_by_task.setdefault((stage, *task), []).append(",".join(row))
            if len(row) >= 6 and _finite(row[3]) and _finite(row[4]):
                by_task.setdefault(task, {})[row[1]] = float(row[3])
        for r, lead in truth.tasks:
            mse = by_task.get((r, lead), {})
            rows = rows_by_task.get((stage, r, lead), [])
            # One finite row per model, and the scores this benchmark can
            # recompute from the data agree with the scorecard.
            expected = {truth.cfg.variant: ba_mse.get((r, lead))}
            if stage == "compare":
                expected["M5"] = truth.climatology_mse(r, lead)
            if sorted(mse) != models or len(rows) != len(models) or not all(
                want is not None and math.isclose(mse[m], want, rel_tol=1e-9)
                for m, want in expected.items()
            ):
                failed.add((stage, r, lead))
        if stage == "compare":
            quality["skill_msss"] = _msss(truth, by_task)
    quality["coverage_gap"] = abs(0.95 - inside / total) if total else float("nan")
    digest = hashlib.sha256()
    for name in ("scorecard.csv", "scorecard_ba.csv"):
        try:
            with open(truth.path(name), "rb") as fh:
                digest.update(fh.read())
        except OSError:
            pass
    return {"failed": failed, "rows": rows_by_task, "sha256": digest.hexdigest(), **quality}


def _check_bands(truth: Truth, r: int, lead: int, table: list[list[str]]):
    """None unless the file has one finite (mean, lo, hi) triple per hold-out
    target with lo <= mean <= hi at every location of the region, in the
    region's location order.  Otherwise (MSE of the means against the
    realized values, realized values inside the band, values compared)."""
    header, body = table[0], table[1:]
    values, coords = truth.regions[r]
    targets = [ic + lead for ic in truth.holdout_ics]
    cols = [j for j, name in enumerate(header) if name.startswith("mean_t")]
    if header[:2] != ["lon", "lat"] or len(body) != values.shape[0] or len(cols) != len(targets):
        return None
    if any(float(row[0]) != coords[i, 0] or float(row[1]) != coords[i, 1] for i, row in enumerate(body)):
        return None
    sq_err, n_in = 0.0, 0
    for j, target in zip(cols, targets):
        cal = int(header[j][len("mean_t"):])
        if truth.cal_to_pos[cal] != target or header[j + 1 : j + 3] != [f"lo_t{cal}", f"hi_t{cal}"]:
            return None
        for i, row in enumerate(body):
            mean, lo, hi = (float(row[j + k]) for k in range(3))
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= mean <= hi):
                return None
            realized = values[i, target - 1]
            sq_err += (realized - mean) ** 2
            n_in += lo <= realized <= hi
    n_all = len(body) * len(targets)
    return sq_err / n_all, n_in, n_all


def _msss(truth: Truth, by_task: dict) -> float:
    """Mean-square skill score of the analog model against climatology (M5),
    averaged over region x lead."""
    skills = []
    for r, lead in truth.tasks:
        mse = by_task.get((r, lead), {})
        if truth.cfg.variant in mse and mse.get("M5", 0.0) > 0.0:
            skills.append(1.0 - mse[truth.cfg.variant] / mse["M5"])
    return statistics.fmean(skills) if skills else float("nan")


def compare_reruns(reference: dict, check: dict) -> set[tuple]:
    """Tasks whose scorecard rows differ from the reference pass."""
    keys = set(reference["rows"]) | set(check["rows"])
    return {key for key in keys if reference["rows"].get(key) != check["rows"].get(key)}


# --- passes ----------------------------------------------------------------


def clean_outputs(cfg: dict) -> None:
    shutil.rmtree(cfg["out_dir"], ignore_errors=True)
    os.makedirs(cfg["out_dir"])


def stage_argv(stage: str, cfg_path: str) -> list[str]:
    return [sys.executable, "-m", "analogcast.cli", stage, "--config", cfg_path]


def subprocess_pass(cfg: dict, cfg_path: str, log_path: str) -> dict:
    """One pipeline pass from basis through compare, one process per stage."""
    clean_outputs(cfg)
    env = stage_env()
    times, peak, stage_ok = {}, 0.0, {}
    for stage in STAGES:
        times[stage], rss, code = run_process(stage_argv(stage, cfg_path), log_path, env)
        peak = max(peak, rss)
        stage_ok[stage] = code == 0
        if code != 0:
            log(f"stage {stage} exited with {code}; see {log_path}")
    return {
        "stage_s": times,
        "pipeline_s": sum(times.values()),
        "peak_rss_mb": peak,
        "stage_ok": stage_ok,
    }


# Stages rerun over the last pass's artifacts to sample their times, and
# the directory each one rewrites.
RERUN_DIRS = {"train": "chains", "forecast": "forecasts"}


def rerun_stage(stage: str, cfg: dict, cfg_path: str, log_path: str, digest: str) -> tuple[float, bool]:
    """Run ``stage`` again over the last pass's artifacts: (wall s, exited 0
    and rewrote byte-identical files)."""
    wall, _, code = run_process(stage_argv(stage, cfg_path), log_path, stage_env())
    return wall, code == 0 and tree_digest(os.path.join(cfg["out_dir"], RERUN_DIRS[stage])) == digest


def tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def inprocess_pass(cfg: dict, cfg_path: str, log_path: str, tracer) -> dict:
    """One pass with the stages called through ``cli.main`` in this process
    with one job, under ``tracer``."""
    from analogcast import cli

    clean_outputs(cfg)
    stage_ok = {}
    with open(log_path, "a") as out, contextlib.redirect_stdout(out):
        with tracer:
            t0 = time.perf_counter()
            for stage in STAGES:
                try:
                    stage_ok[stage] = cli.main([stage, "--config", cfg_path, "--jobs", "1"]) == 0
                except Exception:  # a crashing stage is a failed stage, as in a subprocess
                    traceback.print_exc(file=out)
                    stage_ok[stage] = False
                if not stage_ok[stage]:
                    log(f"stage {stage} failed in process; see {log_path}")
            wall = time.perf_counter() - t0
    return {"pipeline_s": wall, "stage_ok": stage_ok}


def failed_tasks(truth: Truth, result: dict, check: dict) -> set[tuple]:
    failed = set(check["failed"])
    for stage, ok in result["stage_ok"].items():
        if not ok:
            failed |= {(stage, r, lead) for r, lead in truth.tasks}
    return failed


def time_process(argv: list[str], repeats: int, log_path: str) -> list[float]:
    env = stage_env()
    out = []
    for _ in range(repeats):
        wall, _, code = run_process(argv, log_path, env)
        if code != 0:
            raise BenchError(f"{' '.join(argv[:3])} ... exited with {code}; see {log_path}")
        out.append(wall)
    return out


SETUP_PROBE = (
    "import sys, analogcast\n"
    "from analogcast import pipeline\n"
    "from analogcast.config import RunConfig\n"
    "pipeline.load_prepared(RunConfig.load(sys.argv[1]))\n"
)


# --- run record --------------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the record is informative only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


# --- workloads ---------------------------------------------------------------


def prepare(workload: str, seed: int) -> tuple[dict, str, str, Truth]:
    import analogcast

    if not os.path.realpath(analogcast.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported analogcast from {analogcast.__file__}, not from {SRC}")
    work_dir = os.path.join(WORK, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    cfg = make_config(workload, seed, work_dir)
    write_inputs(cfg)
    cfg_path = os.path.join(work_dir, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return cfg, cfg_path, os.path.join(work_dir, "stages.log"), Truth(cfg_path)


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Full passes while another fits in ``seconds`` (at least two), then
    reruns of the train and forecast stages, in turn, while one fits.  A
    set-up probe follows every pass and every rerun, so the medians of the
    stage times and of set-up get as many samples as the run holds."""
    cfg, cfg_path, log_path, truth = prepare(workload, seed)
    probe = [sys.executable, "-c", SETUP_PROBE, cfg_path]
    passes, checks, failed = [], [], set()
    stage_s = {stage: [] for stage in RERUN_DIRS}
    t_start = time.perf_counter()
    setup = time_process(probe, 1, log_path)

    def fits(step_s: float) -> bool:
        return time.perf_counter() - t_start + step_s + max(setup) < seconds

    while len(passes) < 2 or fits(statistics.median(p["pipeline_s"] for p in passes)):
        result = subprocess_pass(cfg, cfg_path, log_path)
        check = check_outputs(truth)
        failed |= {(len(passes),) + t for t in failed_tasks(truth, result, check)}
        if checks:
            failed |= {(len(passes),) + t for t in compare_reruns(checks[0], check)}
        passes.append(result)
        checks.append(check)
        for stage in RERUN_DIRS:
            stage_s[stage].append(result["stage_s"][stage])
        setup += time_process(probe, 1, log_path)
    reruns = 0
    if all(result["stage_ok"][stage] for stage in RERUN_DIRS):
        digests = {
            stage: tree_digest(os.path.join(cfg["out_dir"], out)) for stage, out in RERUN_DIRS.items()
        }
        last = None
        while True:
            order = sorted(RERUN_DIRS, key=lambda s: s == last)  # the other stage first
            stage = next((s for s in order if fits(statistics.median(stage_s[s]))), None)
            if stage is None:
                break
            wall, same = rerun_stage(stage, cfg, cfg_path, log_path, digests[stage])
            reruns += 1
            stage_s[stage].append(wall)
            if not same:
                failed |= {(len(passes) - 1 + reruns, stage, r, lead) for r, lead in truth.tasks}
                break
            setup += time_process(probe, 1, log_path)
            last = stage

    n_iter = cfg["iterations"] * len(truth.tasks)
    metrics = {
        "pipeline_s": statistics.median(p["pipeline_s"] for p in passes),
        "train_iter_per_s": n_iter / statistics.median(stage_s["train"]),
        "forecast_s": statistics.median(stage_s["forecast"]),
        "setup_s": statistics.median(setup),
    }
    attempted = (len(passes) * len(STAGES) + reruns) * len(truth.tasks)
    record = {
        "workload": workload,
        "seed": seed,
        "mode": "untraced",
        "config": cfg,
        "environment": environment(),
        "scorecard_sha256": checks[0]["sha256"],
        "reruns_identical": len({c["sha256"] for c in checks}) == 1,
        "coverage_gap": checks[0]["coverage_gap"],
        "skill_msss": checks[0]["skill_msss"],
        "failed_share": len(failed) / attempted,
        "failed_tasks": sorted(failed),
        "setup_s": setup,
        "train_s": stage_s["train"],
        "forecast_s": stage_s["forecast"],
        "passes": [{k: p[k] for k in ("stage_s", "peak_rss_mb")} for p in passes],
    }
    return result_line(metrics, END_TO_END, attempted, len(failed)), record


def run_traced(workload: str, seed: int) -> tuple[dict, dict]:
    cfg, cfg_path, log_path, truth = prepare(workload, seed)
    startup = time_process(
        [sys.executable, "-m", "analogcast.cli", "--version"], STARTUP_REPEATS, log_path
    )
    # The untraced reference is the pipeline as users run it; the traced pass
    # must write the same scorecards.  An untraced in-process pass would
    # double the run, so the tracing overhead is the span count times the
    # calibrated cost of one span.
    runs, checks, tracer = {}, {}, Tracer()
    runs["untraced"] = subprocess_pass(cfg, cfg_path, log_path)
    checks["untraced"] = check_outputs(truth)
    runs["traced"] = inprocess_pass(cfg, cfg_path, log_path, tracer)
    checks["traced"] = check_outputs(truth)
    layer = layer_metrics(tracer.summary(), truth)
    tracer.write_csv(os.path.join(WORK, workload, "spans.csv"))

    failed = set()
    for k, (name, result) in enumerate(runs.items()):
        failed |= {(k,) + t for t in failed_tasks(truth, result, checks[name])}
        failed |= {(k,) + t for t in compare_reruns(checks["untraced"], checks[name])}
    layer.update(
        {
            "cli.startup_s": statistics.median(startup),
            "trace.pipeline_s": runs["traced"]["pipeline_s"],
            "trace.overhead_s": len(tracer.spans) * Tracer.span_cost_s(),
            "pipeline.peak_rss_mb": runs["untraced"]["peak_rss_mb"],
            "quality.skill_msss": checks["traced"]["skill_msss"],
            "quality.coverage_gap": checks["traced"]["coverage_gap"],
        }
    )
    attempted = len(runs) * len(STAGES) * len(truth.tasks)
    record = {
        "workload": workload,
        "seed": seed,
        "mode": "traced",
        "config": cfg,
        "environment": environment(),
        "scorecard_sha256": checks["untraced"]["sha256"],
        "traced_identical": len({c["sha256"] for c in checks.values()}) == 1,
        "failed_share": len(failed) / attempted,
        "failed_tasks": sorted(failed),
        "untraced_stage_s": runs["untraced"]["stage_s"],
        "traced_pipeline_s": runs["traced"]["pipeline_s"],
        "spans": len(tracer.spans),
    }
    return result_line(layer, PER_LAYER, attempted, len(failed)), record


def layer_metrics(s, truth: Truth) -> dict:
    """Per-layer figures from the traced pass's spans and chain artifacts."""
    ssr, topk, pm = "bayes.AnalogEngine.ssr", "kernel.topk_weights", "bayes.AnalogEngine.predictive_mean"
    dist = ("metric.procrustes_distances", "metric.euclidean_distances")
    pd_calls = s.calls(dist[0])
    pd_s = s.total_s(dist[0])
    pairs = s.work(dist[0])
    matrices, ssr_building = s.children(ssr, *dist)
    ssr_calls = s.calls(ssr)
    tasks = s.durations("pipeline.task.train")
    accept, q_visited = _chain_stats(truth)
    out = {
        "metric.procrustes_distances.calls": pd_calls,
        "metric.procrustes_distances.s": pd_s,
        "metric.procrustes_distances.ms_per_call": 1e3 * pd_s / max(pd_calls, 1),
        "metric.pairs": pairs,
        "metric.us_per_pair": 1e6 * pd_s / max(pairs, 1),
        "kernel.topk_weights.calls": s.calls(topk),
        "kernel.topk_weights.us_per_call": 1e6 * s.total_s(topk) / max(s.calls(topk), 1),
        "bayes.ssr.calls": ssr_calls,
        "bayes.ssr.us_per_call": 1e6 * s.total_s(ssr) / max(ssr_calls, 1),
        "bayes.ssr.self_s": s.self_total(ssr),
        "bayes.predictive_mean.calls": s.calls(pm),
        "bayes.predictive_mean.us_per_call": 1e6 * s.total_s(pm) / max(s.calls(pm), 1),
        **{f"bayes.accept.{k}": v for k, v in accept.items()},
        "bayes.q_visited": q_visited,
        "bayes.matrices_per_chain": matrices / max(len(tasks), 1),
        "bayes.dist_cache_hit_ratio": 1.0 - ssr_building / max(ssr_calls, 1),
        "data.load_field.calls": s.calls("data.load_field"),
        "data.load_field.ms_per_call": 1e3 * s.total_s("data.load_field") / max(s.calls("data.load_field"), 1),
        "pipeline.load_prepared.calls": s.calls("pipeline.load_prepared"),
        "pipeline.load_prepared.s": s.total_s("pipeline.load_prepared"),
        "basis.compute.s": s.total_s("basis.compute_eof", "basis.compute_meof", "basis.compute_cca"),
        "basis.project.s": s.total_s("basis.project"),
        "embedding.build_library.s": s.total_s("embedding.build_library"),
        "pipeline.build_setup.s": s.total_s("pipeline.build_setup"),
        "bayes.save_chain.s": s.total_s("bayes.save_chain"),
        "bayes.load_chain.s": s.total_s("bayes.load_chain"),
        "baselines.s": s.total_s("pipeline.baseline_rows"),
        "scores.score_forecasts.s": s.total_s("scores.score_forecasts"),
        "pipeline.task_s.p50": statistics.median(tasks) if tasks else 0.0,
        "pipeline.task_s.max": max(tasks, default=0.0),
        "pipeline.unattributed_s": s.self_total(
            *(f"pipeline.stage_{st}" for st in STAGES), "pipeline.task.train", "pipeline.task.forecast"
        ),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = s.layer_self_s(layer)
    return out


def _chain_stats(truth: Truth) -> tuple[dict, float]:
    """Mean acceptance rates and mean distinct q per chain, from the chain
    files the traced pass wrote."""
    rates = {"theta1": [], "m": [], "q": []}
    visited = []
    for r, lead in truth.tasks:
        path = truth.path("chains", f"chain_r{r}_l{lead}.csv")
        try:
            with open(path + ".meta.json") as fh:
                meta = json.load(fh)
            visited.append(len({row[3] for row in _read_csv(path)[1:]}))
        except OSError:
            continue  # a missing chain is already counted as a failed train task
        for k in rates:
            rates[k].append(meta["accept_rates"][k])
    nan = float("nan")
    return (
        {k: statistics.fmean(v) if v else nan for k, v in rates.items()},
        statistics.fmean(visited) if visited else nan,
    )


def result_line(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "analogcast", "__init__.py")):
        log(f"no package sources under {SRC}; run from the root of an analogcast checkout")
        return 2
    sys.path.insert(0, SRC)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            if args.trace:
                result, record = run_traced(name, args.seed)
            else:
                result, record = run_untraced(name, args.seed, args.seconds)
            with open(os.path.join(WORK, name, f"record_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
                json.dump({"record": record, "result": result}, fh, indent=2, default=str)
            print(json.dumps({"record": record}, default=str))
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
            results.append((name, result))
    except BenchError as e:
        log(str(e))
        return 2
    if len(results) > 1:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    else:
        final = results[0][1]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
