"""Reproducible Monte Carlo runner for outage and ergodic-rate sweeps.

A trial is one channel draw, a pure function of (experiment seed, trial
index).  A draw does not depend on the SNR, so each trial is drawn once and
every (SNR point, scheme) cell of the sweep is evaluated on it: the schemes
and the SNR points are compared on the same draws.  A geometry's draw is
a prefix of a larger one's (see channel_model), so the specs of a run that
share a seed draw each trial once, in units of work sized by their blocks
(see _BUDGET): a spec of a few hundred trials is one block.  A unit is
sampled with one seed hash, zero-forced as one stack per geometry, and
handed to a worker whole.  Each scheme scores all
of a block's (SNR point, trial) cells in one array pass over the block's
(M, T) gain arrays (scheme 2 solves its beam sets as lanes of one lockstep
bisection).  Each cell's floats are those of run_trial, bit for bit: the
one-cell replay, which draws the cell with realize, a block of one trial,
and scores it with the scheme functions, each a block pass over one cell;
no sweep calls it.  Results are reduced in
trial-index order regardless of scheduling, which makes estimates
bit-identical across worker counts and block sizes.  SNR is expressed in
dB at the interface and converted to the linear scale internally.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .beam_aggregation import (
    DEFAULT_STRATEGY,
    _check_strategy,
    _layout,
    evaluate_scheme1,
    evaluate_scheme1_block,
    evaluate_scheme2,
    evaluate_scheme2_block,
)
from .beam_selection import evaluate_selection, evaluate_selection_block
from .channel_model import SystemConfig, TrialSeed, realize, realize_block

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

# a block takes as many trials as keep both its (set, SNR point, trial)
# triples (the sets: scheme 2's when it runs, else the M beams) and its
# N x M channel entries within _BUDGET, a few MiB of tables or of draws,
# but at least _MIN_TRIALS, since a smaller block only adds numpy calls
_BUDGET = 2 ** 15
_MIN_TRIALS = 64


def snr_db_to_linear(snr_db: float) -> float:
    """10^(snr_db / 10), inf where that overflows a double."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # an int may be past the float range
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment: SNR grid x schemes at fixed targets and trial count.

    Construction checks every field's type and range, so a spec built from
    untrusted input (JSON, command line) either is valid or raises
    ValueError.  Lists are stored as tuples and numbers as int or float.
    config is the grid's SystemConfig, one rho per point of snr_grid_db.
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
    candidate_strategy: str = DEFAULT_STRATEGY
    config: SystemConfig = field(init=False, compare=False, repr=False)

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
        if not 1 <= self.trials <= 2 ** 64:  # trial indices are 64-bit
            raise ValueError("trials must be in [1, 2**64]")
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr_grid_db must be nonempty")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown or not self.schemes or len(set(self.schemes)) < len(self.schemes):
            raise ValueError(
                f"schemes must be a nonempty subset of {SCHEMES}, each named once"
            )
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        # only scheme 2 lists beam sets, so only it limits the beams
        beams = self.m_beams if "scheme2" in self.schemes else 0
        _check_strategy(self.candidate_strategy, beams)
        # the first point checks geometry and targets, as a check point by
        # point would; a later point can then only fail on its rho
        first = self.config_at(self.snr_grid_db[0])
        rhos = tuple(map(snr_db_to_linear, self.snr_grid_db))
        store("config", replace(first, rho=rhos))

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


# each metric's value, cell by cell, from a block's CellOutcomes (a replayed
# cell's is the block of one); METRICS follow the order of run_trial's
# record fields
_VALUE = {
    "outage": lambda outcome: outcome.outage,
    "ergodic_rate": lambda outcome: outcome.secondary_rate,
    "ergodic_rate_unconditioned": lambda outcome: outcome.secondary_rate_raw,
    "primary_min_rate": lambda outcome: outcome.primary_rates.min(axis=0),
}


def run_trial(
    cfg: SystemConfig, seed: TrialSeed, schemes: tuple[str, ...], strategy: str
) -> list[tuple[bool, float, float, float, int]]:
    """Replay one cell: evaluate each scheme, in order, on the channel draw
    realize(cfg, seed) and return one record per scheme, the tuple
    (outage, rate, raw rate, min primary rate, resamples).  Singular draws
    are redrawn there; resamples is the redraw count.
    """
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
        outage, *rates = (_VALUE[metric](outcome).item() for metric in METRICS)
        records.append((outage, *rates, chan.resamples[0]))
    return records


def _run_block(args) -> list[tuple[np.ndarray, int]]:
    """Draw a block of trials once for specs of one seed and score every
    (SNR point, scheme) cell of each spec, each scheme with one array pass
    over all the spec's cells.  Returns per spec the metric's value of each
    cell as an (SNR point, scheme, trial) array, and its redraw count."""
    specs, trials = args
    seeds = np.zeros((len(trials), 3), dtype=np.uint64)
    seeds[:, 0], seeds[:, 1] = specs[0].seed, trials
    blocks = realize_block([spec.config for spec in specs], seeds)
    out = []
    for spec, block in zip(specs, blocks):
        g_gain, h_gain, cfg = block.g_gain, block.h_gain, spec.config
        values = np.empty((len(spec.snr_grid_db), len(spec.schemes), len(trials)))
        for k, scheme in enumerate(spec.schemes):
            if scheme == "selection":
                cells = evaluate_selection_block(g_gain, h_gain, cfg)
            elif scheme == "scheme1":
                cells = evaluate_scheme1_block(g_gain, h_gain, cfg)
            else:
                cells = evaluate_scheme2_block(
                    g_gain, h_gain, cfg, spec.candidate_strategy
                )
            values[:, k] = _VALUE[spec.metric](cells)
            del cells  # its split builder holds the pass's tables
        out.append((values, sum(block.resamples)))
    return out


def _reduce(values: np.ndarray, resamples: int, metric: str) -> list[MetricEstimate]:
    """Each cell's estimate from its metric values along the last axis, in
    trial order; cells in C order.  A rate's std_err is 0 for one trial."""
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    if metric == "outage":
        se = np.sqrt(mean * (1.0 - mean) / n)
    else:
        se = values.std(axis=-1, ddof=min(1, n - 1)) / math.sqrt(n)
    cells = zip(mean.ravel().tolist(), se.ravel().tolist())
    return [MetricEstimate(m, e, n, resamples) for m, e in cells]


# a class, not a lazy module attribute, so that the name is bound from
# import on: the benchmark's tracer subclasses and replaces it
class ProcessPoolExecutor:
    """concurrent.futures.ProcessPoolExecutor, imported only when one is
    built (see estimate).  Takes the real pool's arguments; map and
    shutdown go to it, and leaving a with-statement shuts it down."""

    def __init__(self, *args, **kwargs):
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        return self._pool.map(fn, *iterables, **kwargs)

    def shutdown(self, *args, **kwargs):
        self._pool.shutdown(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(wait=True)


def estimate(
    specs: SweepSpec | Sequence[SweepSpec], workers: int = 1
) -> SweepResult | list[SweepResult]:
    """Run the sweeps and return one estimate per (SNR point, scheme) each.

    A single spec is the batch of one: it returns its SweepResult, and a
    sequence of specs returns a list of them.  Specs that share a seed draw
    their trials once (see channel_model), in units of the shortest block
    any of them takes under _BUDGET, cut where a spec's trials end.  With
    workers > 1 every unit goes through one process pool, in units small
    enough to give each worker about four per seed, and pool.map hands them
    back in submission order.  The pool is this module's
    ProcessPoolExecutor, which loads concurrent.futures and multiprocessing
    only when built, so a workers-1 run never loads either.  workers is
    capped at the CPUs this process may use: the pool starts a process per
    unit while none is idle, and more processes than CPUs only add start-up
    cost.  The output does not
    depend on workers or on the other specs of the run.
    """
    single = isinstance(specs, SweepSpec)
    if single:
        specs = [specs]
    if hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    else:
        workers = min(workers, os.cpu_count() or 1)
    units = []
    for seed in dict.fromkeys(spec.seed for spec in specs):
        group = [i for i, spec in enumerate(specs) if spec.seed == seed]
        size = min(_block_size(specs[i]) for i in group)
        total = max(specs[i].trials for i in group)
        if workers > 1:
            size = min(size, math.ceil(total / (4 * workers)))
        cuts = sorted({*range(0, total, size), *(specs[i].trials for i in group)})
        for start, stop in zip(cuts, cuts[1:]):
            own = [i for i in group if specs[i].trials > start]
            units.append((own, range(start, stop)))
    work = [([specs[i] for i in own], trials) for own, trials in units]
    parts = [[] for _ in specs]
    with ExitStack() as stack:
        if workers > 1:
            from multiprocessing import get_context

            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
            )
            results = pool.map(_run_block, work)
        else:
            results = map(_run_block, work)
        for (own, _), done in zip(units, results):
            for i, part in zip(own, done):
                parts[i].append(part)
    out = []
    for spec, done in zip(specs, parts):
        values = np.concatenate([v for v, _ in done], axis=-1)
        estimates = _reduce(values, sum(r for _, r in done), spec.metric)
        cells = product(spec.snr_grid_db, spec.schemes)
        rows = tuple(SweepRow(*cell, e) for cell, e in zip(cells, estimates))
        out.append(SweepResult(spec=spec, rows=rows))
    return out[0] if single else out


def _block_size(spec: SweepSpec) -> int:
    """The trials of spec's blocks alone (see _BUDGET)."""
    sets = spec.m_beams
    if "scheme2" in spec.schemes:
        sets = len(_layout(spec.candidate_strategy, spec.m_beams)[0])
    work = max(len(spec.snr_grid_db) * sets, spec.n_antennas * spec.m_beams)
    return max(_MIN_TRIALS, _BUDGET // work)
