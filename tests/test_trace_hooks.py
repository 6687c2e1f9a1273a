"""The benchmark's per-layer figures find the package's functions by name.

``perfbench/tracer.py`` wraps every public layer function and the two
per-task entry points of ``pipeline``.  If a refactor renames one of them,
or puts another public call between ``AnalogEngine.ssr`` and the distance
build, those figures silently read 0; this test fails instead.
"""

import importlib.util
import json
import os

from analogcast.cli import main

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_hook_the_benchmark_reads(tmp_path):
    cfg = dict(
        out_dir=str(tmp_path / "out"), iterations=30, burn_in=5, leads=[1], holdout_n=2,
        synth_n_time=90, synth_n_loc_forcing=9, synth_n_loc_response=16,
        synth_regions_x=1, synth_regions_y=1, p_alpha=3, p_beta=4, q_max=4, m_max=6, seed=5,
    )
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    stages = ("synth", "basis", "train", "forecast", "evaluate", "compare")
    tracer = _load_tracer().Tracer()
    with tracer:
        for stage in stages:
            assert main([stage, "--config", cfg_path, "--jobs", "1"]) == 0, stage
    s = tracer.summary()
    for name in (
        "pipeline.task.train", "pipeline.task.forecast",
        "pipeline.build_setup", "pipeline.load_prepared",
        # the span names perfbench/run.py::layer_metrics reads
        "data.load_field", "basis.compute_eof", "basis.project", "embedding.build_library",
        "bayes.save_chain", "bayes.load_chain", "bayes.AnalogEngine.predictive_mean",
        "pipeline.baseline_rows", "scores.score_forecasts",
        *(f"pipeline.stage_{stage}" for stage in stages),
    ):
        assert s.calls(name) >= 1, name
    under_ssr, _ = s.children("bayes.AnalogEngine.ssr", "metric.procrustes_distances")
    assert under_ssr >= 1
