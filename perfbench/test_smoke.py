"""Smoke test of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench``.  It
checks that every metric named in BENCHMARK.json is printed with its unit,
that the result line has the agreed keys, and that the traced and
untraced runs write identical scorecards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "why": "smoke test only",
    "config": {
        "synth_n_loc_response": 20,
        "synth_n_time": 90,
        "leads": [1],
        "m_max": 3,
        "q_max": 4,
        "iterations": 12,
        "burn_in": 2,
        "thin": 2,
    },
}


def _run(work: str, trace: int) -> tuple[int, dict, dict]:
    """Run the tiny workload; (exit code, run record, result line)."""
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "ROOT", REPO)
    patch.setattr(run, "SRC", os.path.join(REPO, "src"))
    patch.setattr(run, "WORK", work)
    patch.setitem(workloads.WORKLOADS, "tiny", TINY)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    finally:
        patch.undo()
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.fixture(scope="module")
def outputs(work):
    return {trace: _run(work, trace) for trace in (0, 1)}


def _declared(kind: str) -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(outputs, trace, kind):
    code, _, result = outputs[trace]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_declared_workloads_match_the_runner():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    assert declared == {name: w["why"] for name, w in workloads.WORKLOADS.items()}


def test_traced_and_untraced_scorecards_are_identical(outputs):
    untraced, traced = outputs[0][1], outputs[1][1]
    assert untraced["reruns_identical"] and traced["traced_identical"]
    assert untraced["scorecard_sha256"] == traced["scorecard_sha256"]


def test_exact_counts_repeat(outputs, work):
    first = outputs[1][2]["metrics"]
    second = _run(work, 1)[2]["metrics"]
    for name in ("metric.pairs", "bayes.ssr.calls", "pipeline.load_prepared.calls", "bayes.matrices_per_chain"):
        assert first[name]["value"] == second[name]["value"], name
