"""Flat key-value run configuration.

Configs are JSON objects with only scalar / list-of-scalar values so a
saved file reloads to an identical object.  ``content_hash`` covers the
keys that determine numerical results; artifact stages store it so a
later stage can refuse inputs produced under a different setup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .baselines import BASELINE_LABELS
from .data import write_json
from .errors import ConfigError
from .metric import METRICS

_VARIANTS = ("BA1", "BA2", "BA3", "BA4")

# Keys that do not affect computed numbers.
_NON_SEMANTIC = {"out_dir", "jobs", "save_draws"}


@dataclass
class RunConfig:
    """Everything an end-to-end run needs, one flat namespace."""

    # Input/output paths.  Data paths default to files under out_dir/data,
    # which is where the synthetic generator stage writes.
    out_dir: str = "out"
    forcing_path: str | None = None
    response_path: str | None = None
    aux_path: str | None = None
    regions_path: str | None = None
    file_format: str = "wide-csv"

    # Anomaly definition.
    clim_start: int | None = None
    clim_end: int | None = None
    by_period: int = 1

    # Model variant and bases.
    variant: str = "BA1"
    metric: str | None = None  # default picked by variant
    p_alpha: int = 5
    p_beta: int = 12
    p_joint: int = 12  # stacked / canonical patterns for BA2 and BA3
    p_pre: int = 12  # EOF pre-reduction before CCA

    # Embedding and leads.
    lag: int = 1
    leads: list[int] = field(default_factory=lambda: [1, 3, 6])

    # Priors.
    m_min: int = 1
    m_max: int = 15
    q_min: int = 2
    q_max: int = 24
    theta1_shape: float = 2.0
    theta1_rate: float = 1.0
    sigma2_shape: float = 0.001
    sigma2_rate: float = 0.001

    # Sampler.
    iterations: int = 5000
    burn_in: int = 500
    thin: int = 5
    theta1_prop_sd: float = 1.2
    gamma_prop_width: float = 0.2
    mq_proposal: str = "walk"
    seed: int = 0

    # Training / hold-out split (positions; None means auto).
    train_start: int | None = None
    train_end: int | None = None
    holdout_n: int = 7
    exclusion_radius: int = 0

    # Metric and scoring options.
    scale_norm: str = "centered"
    ac_corrected: bool = True
    baselines: list[str] = field(default_factory=lambda: list(BASELINE_LABELS))

    # Synthetic generator.
    synth_n_loc_forcing: int = 36
    synth_n_loc_response: int = 108
    synth_n_time: int = 160
    synth_lag: int = 6
    synth_nonlinearity: float = 1.0
    synth_noise_sd: float = 0.1
    synth_regions_x: int = 3
    synth_regions_y: int = 3

    # Execution.
    jobs: int = 0  # 0 means one worker per CPU, capped by the task count
    save_draws: bool = False

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.metric is not None and self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.file_format not in ("wide-csv", "long-csv"):
            raise ConfigError(f"file_format must be wide-csv or long-csv")
        if not self.leads or any(int(t) < 1 for t in self.leads):
            raise ConfigError(f"leads must be positive integers, got {self.leads}")
        self.leads = [int(t) for t in self.leads]
        if len(set(self.leads)) != len(self.leads):
            raise ConfigError(f"duplicate leads in {self.leads}")
        if self.iterations <= self.burn_in:
            raise ConfigError(
                f"iterations={self.iterations} must exceed burn_in={self.burn_in}"
            )
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.holdout_n < 1:
            raise ConfigError(f"holdout_n must be >= 1, got {self.holdout_n}")
        for key in ("p_alpha", "p_beta", "p_joint", "p_pre"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.lag < 0:
            raise ConfigError(f"lag must be >= 0, got {self.lag}")
        unknown = [b for b in self.baselines if b not in BASELINE_LABELS and b != "M8"]
        if unknown:
            raise ConfigError(f"unknown baselines {unknown}")

    @property
    def effective_metric(self) -> str:
        if self.metric is not None:
            return self.metric
        return "combined" if self.variant == "BA4" else "procrustes"

    def data_path(self, which: str) -> str:
        configured = getattr(self, f"{which}_path")
        if configured is not None:
            return configured
        return os.path.join(self.out_dir, "data", f"{which}.csv")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        try:
            return RunConfig(**raw)
        except TypeError as e:
            raise ConfigError(f"{path}: {e}") from None

    def content_hash(self) -> str:
        """Hash of the semantically relevant keys, for stage compatibility checks."""
        payload = {k: v for k, v in self.to_dict().items() if k not in _NON_SEMANTIC}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
