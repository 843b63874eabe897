"""Reproducible Monte Carlo runner for outage and ergodic-rate sweeps.

Every trial is a pure function of (experiment seed, trial index), so trials
can run on any number of workers; results are reduced in trial-index order
regardless of scheduling, which makes estimates bit-identical across worker
counts.  SNR is expressed in dB at the interface and converted to the
linear scale internally.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .beam_aggregation import STRATEGIES, evaluate_scheme1, evaluate_scheme2
from .beam_selection import SchemeOutcome, evaluate_selection
from .channel_model import SystemConfig, TrialSeed, realize

__all__ = [
    "SCHEMES",
    "METRICS",
    "SweepSpec",
    "MetricEstimate",
    "SweepRow",
    "SweepResult",
    "run_trial",
    "estimate",
    "snr_db_to_linear",
]

SCHEMES = ("selection", "scheme1", "scheme2")
METRICS = (
    "outage",
    "ergodic_rate",
    "ergodic_rate_unconditioned",
    "primary_min_rate",
)


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment: SNR grid x schemes at fixed targets and trial count.

    Construction checks every field's type and range, so a spec built from
    untrusted input (JSON, command line) either is valid or raises
    ValueError.  Lists are stored as tuples and numbers as int or float.
    """

    n_antennas: int
    m_beams: int
    r_p: float
    r_s: float
    snr_grid_db: tuple[float, ...]
    schemes: tuple[str, ...]
    metric: str
    trials: int
    seed: int
    candidate_strategy: str = "prefixes_plus_singletons"

    def __post_init__(self) -> None:
        def store(name, value):
            object.__setattr__(self, name, value)

        for name in ("n_antennas", "m_beams", "trials", "seed"):
            store(name, _integer(name, getattr(self, name)))
        for name in ("r_p", "r_s"):
            store(name, _finite(name, getattr(self, name)))
        if not isinstance(self.snr_grid_db, (list, tuple)):
            raise ValueError("snr_grid_db must be a list of numbers")
        store("snr_grid_db", tuple(_finite("snr_db", v) for v in self.snr_grid_db))
        if not isinstance(self.schemes, (list, tuple)) or not all(
            isinstance(s, str) for s in self.schemes
        ):
            raise ValueError(f"schemes must be a list of names from {SCHEMES}")
        store("schemes", tuple(self.schemes))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr_grid_db must be nonempty")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.candidate_strategy not in STRATEGIES:
            raise ValueError(f"candidate_strategy must be one of {STRATEGIES}")
        try:
            for snr_db in self.snr_grid_db:
                self.config_at(snr_db)  # validates geometry, targets and rho
        except OverflowError:
            raise ValueError("snr_db is out of range for a linear SNR") from None

    def config_at(self, snr_db: float) -> SystemConfig:
        return SystemConfig(
            self.n_antennas,
            self.m_beams,
            snr_db_to_linear(snr_db),
            self.r_p,
            self.r_s,
        )


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    std_err: float
    trials: int
    resamples: int


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    scheme: str
    estimate: MetricEstimate


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def run_trial(
    cfg: SystemConfig, seed: TrialSeed, scheme: str, strategy: str
) -> SchemeOutcome:
    """Evaluate one scheme on the channel draw owned by this trial seed.

    Singular draws are redrawn internally and counted on the outcome.
    """
    chan = realize(cfg, seed)
    if scheme == "selection":
        outcome = evaluate_selection(chan, cfg)
    elif scheme == "scheme1":
        outcome = evaluate_scheme1(chan, cfg)
    elif scheme == "scheme2":
        outcome = evaluate_scheme2(chan, cfg, strategy)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if chan.resamples:
        outcome = replace(outcome, resamples=chan.resamples)
    return outcome


# compact per-trial record: (outage, rate, raw rate, min primary rate, resamples)
_TrialRecord = tuple[bool, float, float, float, int]


def _record(outcome: SchemeOutcome) -> _TrialRecord:
    return (
        bool(outcome.outage),
        float(outcome.secondary_rate),
        float(outcome.secondary_rate_raw),
        float(np.min(outcome.primary_rates)),
        outcome.resamples,
    )


def _run_batch(args) -> list[_TrialRecord]:
    cfg, seed, scheme, strategy, start, stop = args
    return [
        _record(run_trial(cfg, TrialSeed(seed, t), scheme, strategy))
        for t in range(start, stop)
    ]


def _collect(
    cfg: SystemConfig,
    seed: int,
    scheme: str,
    strategy: str,
    trials: int,
    workers: int,
) -> list[_TrialRecord]:
    if workers <= 1:
        return _run_batch((cfg, seed, scheme, strategy, 0, trials))
    chunk = max(1, math.ceil(trials / (workers * 4)))
    batches = [
        (cfg, seed, scheme, strategy, start, min(start + chunk, trials))
        for start in range(0, trials, chunk)
    ]
    records: list[_TrialRecord] = []
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("spawn")
    ) as pool:
        for batch in pool.map(_run_batch, batches):
            records.extend(batch)  # pool.map preserves submission order
    return records


def _reduce(records: list[_TrialRecord], metric: str) -> MetricEstimate:
    n = len(records)
    resamples = sum(r[4] for r in records)
    if metric == "outage":
        p = float(np.mean([r[0] for r in records]))
        se = math.sqrt(p * (1.0 - p) / n)
        return MetricEstimate(p, se, n, resamples)
    if metric == "ergodic_rate":
        values = np.array([r[1] for r in records])
    elif metric == "ergodic_rate_unconditioned":
        values = np.array([r[2] for r in records])
    else:  # primary_min_rate
        values = np.array([r[3] for r in records])
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricEstimate(mean, se, n, resamples)


def estimate(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the sweep and return one estimate per (SNR point, scheme)."""
    rows = []
    for snr_db in spec.snr_grid_db:
        cfg = spec.config_at(snr_db)
        for scheme in spec.schemes:
            records = _collect(
                cfg, spec.seed, scheme, spec.candidate_strategy, spec.trials, workers
            )
            rows.append(SweepRow(snr_db, scheme, _reduce(records, spec.metric)))
    return SweepResult(spec=spec, rows=tuple(rows))
