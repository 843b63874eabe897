"""Reproducible Monte Carlo runner for outage and ergodic-rate sweeps.

A trial is one channel draw, a pure function of (experiment seed, trial
index).  A draw does not depend on the SNR, so each trial is drawn once and
every (SNR point, scheme) cell of the sweep is evaluated on it: the schemes
and the SNR points are compared on the same draws.  Trials are drawn in
blocks of at most _BLOCK, zero-forced as one stack, and a block is the unit
of work handed to a worker.  Each scheme scores all of a block's (SNR
point, trial) cells in one array pass (scheme 2 solves its beam sets as
lanes of one lockstep bisection), and each cell's floats are those of
run_trial, the one-cell replay, on that cell, bit for bit.  Results are
reduced in trial-index order regardless of scheduling, which makes
estimates bit-identical across worker counts and block sizes.  SNR is
expressed in dB at the interface and converted to the linear scale
internally.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from multiprocessing import get_context

import numpy as np

from .beam_aggregation import (
    ALL_SUBSETS_MAX_BEAMS,
    STRATEGIES,
    evaluate_scheme1,
    evaluate_scheme1_block,
    evaluate_scheme2,
    evaluate_scheme2_block,
)
from .beam_selection import evaluate_selection, evaluate_selection_block
from .channel_model import (
    ChannelRealization,
    SystemConfig,
    TrialSeed,
    realize,
    realize_block,
)
from .power_allocation import SchemeOutcome

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

# trials drawn and zero-forced as one stack; also bounds a work unit's memory
_BLOCK = 64


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
        if (
            self.candidate_strategy == "all_subsets"
            and "scheme2" in self.schemes
            and self.m_beams > ALL_SUBSETS_MAX_BEAMS
        ):
            raise ValueError(
                f"candidate_strategy all_subsets is limited to "
                f"m_beams <= {ALL_SUBSETS_MAX_BEAMS}"
            )
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


# each metric's value from one cell's SchemeOutcome, or cell by cell from a
# block's CellOutcomes; METRICS follow the order of a record's fields
_VALUE = {
    "outage": lambda outcome: outcome.outage,
    "ergodic_rate": lambda outcome: outcome.secondary_rate,
    "ergodic_rate_unconditioned": lambda outcome: outcome.secondary_rate_raw,
    "primary_min_rate": lambda outcome: outcome.primary_rates.min(axis=0),
}


class _TrialRecord(Sequence):
    """One scheme's record of one cell, equal to the tuple (outage, rate,
    raw rate, min primary rate, resamples).  A field is computed when read,
    so a sweep pays only for its metric's: the primary rates cost more than
    the rest of a closed-form outcome."""

    def __init__(self, outcome: SchemeOutcome, resamples: int):
        self._outcome, self._resamples = outcome, resamples

    def __len__(self) -> int:
        return 5

    def __getitem__(self, i: int):
        i = range(5)[i]
        if i == 4:
            return self._resamples
        value = _VALUE[METRICS[i]](self._outcome)
        return bool(value) if i == 0 else float(value)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _TrialRecord)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


def run_trial(
    cfg: SystemConfig,
    seed: TrialSeed,
    schemes: tuple[str, ...],
    strategy: str,
    chan: ChannelRealization | None = None,
) -> list[_TrialRecord]:
    """Evaluate each scheme, in order, on the channel draw owned by this
    trial seed and return one record per scheme.

    The draw is chan when given (the same draw serves every SNR point),
    else realize(cfg, seed).  Singular draws are redrawn there; each record
    carries the redraw count.
    """
    if chan is None:
        chan = realize(cfg, seed)
    records = []
    for scheme in schemes:
        if scheme == "selection":
            outcome = evaluate_selection(chan, cfg)
        elif scheme == "scheme1":
            outcome = evaluate_scheme1(chan, cfg)
        elif scheme == "scheme2":
            outcome = evaluate_scheme2(chan, cfg, strategy)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        records.append(_TrialRecord(outcome, chan.resamples))
    return records


_BLOCK_PASS = {"selection": evaluate_selection_block, "scheme1": evaluate_scheme1_block}


def stacked_gains(chans: Sequence[ChannelRealization]) -> tuple[np.ndarray, np.ndarray]:
    """The draws' g_gain and h_gain as (M, T) arrays, beam-major."""
    g_gain = np.stack([chan.g_gain for chan in chans], axis=1)
    h_gain = np.stack([chan.h_gain for chan in chans], axis=1)
    return g_gain, h_gain


def _run_block(args) -> tuple[np.ndarray, int]:
    """Draw a block of trials once and score every (SNR point, scheme)
    cell on it, each scheme with one array pass over all the block's
    cells.  Returns the metric's value of each cell as an (SNR point,
    scheme, trial) array, and the block's redraw count."""
    spec, trials = args
    cfgs = [spec.config_at(snr_db) for snr_db in spec.snr_grid_db]
    seeds = [TrialSeed(spec.seed, t) for t in trials]
    chans = realize_block(cfgs[0], seeds)
    g_gain, h_gain = stacked_gains(chans)
    values = np.empty((len(cfgs), len(spec.schemes), len(seeds)))
    for k, scheme in enumerate(spec.schemes):
        if scheme == "scheme2":
            cells = evaluate_scheme2_block(g_gain, h_gain, cfgs, spec.candidate_strategy)
        else:
            cells = _BLOCK_PASS[scheme](g_gain, h_gain, cfgs)
        values[:, k] = _VALUE[spec.metric](cells)
    return values, sum(chan.resamples for chan in chans)


def _reduce(values: Sequence, resamples: int, metric: str) -> MetricEstimate:
    """One cell's estimate from its records' metric field, in trial order."""
    n = len(values)
    mean = float(np.mean(values))
    if metric == "outage":
        se = math.sqrt(mean * (1.0 - mean) / n)
    else:
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricEstimate(mean, se, n, resamples)


def estimate(
    specs: SweepSpec | Sequence[SweepSpec], workers: int = 1
) -> SweepResult | list[SweepResult]:
    """Run the sweeps and return one estimate per (SNR point, scheme) each.

    A single spec is the batch of one: it returns its SweepResult, and a
    sequence of specs returns a list of them.  Each spec's trials are split
    into blocks of at most _BLOCK; with workers > 1 every block of every
    spec goes through one process pool, in blocks small enough to give each
    worker about four, and pool.map hands them back in submission order.
    workers is capped at the CPUs this process may use: the pool starts a
    process per block while none is idle, and more processes than CPUs only
    add start-up cost.  The output does not depend on workers.
    """
    single = isinstance(specs, SweepSpec)
    if single:
        specs = [specs]
    if hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    else:
        workers = min(workers, os.cpu_count() or 1)
    blocks = []
    for spec in specs:
        size = _BLOCK
        if workers > 1:
            size = min(size, math.ceil(spec.trials / (4 * workers)))
        blocks.append(
            [range(spec.trials)[t : t + size] for t in range(0, spec.trials, size)]
        )
    units = [(spec, trials) for spec, own in zip(specs, blocks) for trials in own]
    out = []
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
            )
            results = pool.map(_run_block, units)
        else:
            results = map(_run_block, units)
        for spec, own in zip(specs, blocks):
            done = list(islice(results, len(own)))
            values = np.concatenate([v for v, _ in done], axis=-1)
            resamples = sum(r for _, r in done)
            rows = [
                SweepRow(snr_db, scheme, _reduce(values[i, k], resamples, spec.metric))
                for i, snr_db in enumerate(spec.snr_grid_db)
                for k, scheme in enumerate(spec.schemes)
            ]
            out.append(SweepResult(spec=spec, rows=tuple(rows)))
    return out[0] if single else out
