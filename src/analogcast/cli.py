"""Command-line entry point.

Stages are run in order: synth (or bring your own data files), basis,
train, forecast, evaluate, compare.  Each stage reads and writes files
under the output directory, so a pipeline is just::

    analogcast synth    --config run.json
    analogcast basis    --config run.json
    analogcast train    --config run.json
    analogcast forecast --config run.json
    analogcast evaluate --config run.json
    analogcast compare  --config run.json

Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import RunConfig
from .errors import AnalogcastError
from .pipeline import (
    stage_basis,
    stage_compare,
    stage_evaluate,
    stage_forecast,
    stage_synth,
    stage_train,
)

_STAGES = {
    "synth": (stage_synth, "generate a synthetic forcing/response data set"),
    "basis": (stage_basis, "estimate spatial patterns per region (and lead)"),
    "train": (stage_train, "sample the posterior per region and lead"),
    "forecast": (stage_forecast, "posterior-predictive hold-out forecasts"),
    "evaluate": (stage_evaluate, "score the analog forecasts"),
    "compare": (stage_compare, "score analog forecasts against reference methods"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogcast",
        description="Bayesian analog forecasting of lagged spatial responses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="stage", required=True, metavar="stage")
    for name, (_, help_text) in _STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON config; flags below override it")
        p.add_argument("--seed", type=int, help="override the base random seed")
        p.add_argument(
            "--variant",
            choices=["BA1", "BA2", "BA3", "BA4"],
            help="override the model variant",
        )
        p.add_argument("--jobs", type=int, help="worker processes (0 = one per usable CPU)")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.variant is not None:
        overrides["variant"] = args.variant
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None:
        overrides["out_dir"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage_fn = _STAGES[args.stage][0]
    try:
        written = stage_fn(resolve_config(args))
    except AnalogcastError as e:
        print(f"analogcast {args.stage}: error: {e}", file=sys.stderr)
        return e.exit_code
    if isinstance(written, str):
        written = [written]
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
