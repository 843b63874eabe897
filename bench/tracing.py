"""Span tracing around beamshare's public calls, for the benchmark's traced run.

The modules bind each other's functions at import time (``montecarlo`` calls
its own imported ``realize`` and ``evaluate_*``, ``cli`` its own imported
``estimate``), so each function is wrapped at the name where its caller
looks it up, and every name is restored when tracing ends.  Nothing in the
package is edited.

A span records its name, start, end, parent span and draw id; all spans of
one channel draw share the draw id, which is keyed by the sweep index, the
operating point and the trial index (the schemes of one draw share it).
Spans stay in memory as flat arrays until the run ends.

With ``--workers > 1`` the sweep runs in spawned processes.  The traced
pool installs the same wrappers in each worker, and every batch returns its
spans next to its records.  The parent takes them in, under the pool's span,
and hands the records on unchanged.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so worker and parent times share one base.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

_clock = time.perf_counter


class Tracer:
    """Spans and counters recorded around wrapped calls in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.draw = array("i")
        self.counts: Counter = Counter()
        # draw id -> {scheme tag: secondary rate}, for the dominance check
        self.rates: dict[int, dict[str, float]] = {}
        self.draw_keys: list[tuple] = []
        self._draw_ids: dict[tuple, int] = {}
        self._stack: list[int] = []
        self.current_draw = -1
        self.sweep = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def draw_id(self, key: tuple) -> int:
        key = (self.sweep, *key)
        did = self._draw_ids.get(key)
        if did is None:
            did = self._draw_ids[key] = len(self.draw_keys)
            self.draw_keys.append(key)
        return did

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.draw.append(self.current_draw)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(_clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _clock()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} is open")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def drain(self) -> dict:
        """Hand over everything recorded so far and start empty."""
        shipped = dict(
            names=list(self.names),
            spans=list(zip(self.name, self.start, self.end, self.parent, self.draw)),
            keys=[k[1:] for k in self.draw_keys],
            counts=dict(self.counts),
            rates=self.rates,
        )
        self.__init__()
        return shipped

    def absorb(self, shipped: dict, parent_sid: int) -> None:
        """Take in spans drained in a worker; its root spans hang under
        ``parent_sid`` and its draws join this tracer's current sweep."""
        offset = len(self.start)
        names = [self.name_id(n) for n in shipped["names"]]
        draws = [self.draw_id(k) for k in shipped["keys"]]
        for nid, s, e, p, d in shipped["spans"]:
            self.name.append(names[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + offset if p >= 0 else parent_sid)
            self.draw.append(draws[d] if d >= 0 else -1)
        self.counts.update(shipped["counts"])
        for d, rates in shipped["rates"].items():
            self.rates.setdefault(draws[d], {}).update(rates)

    def spans_named(self, name: str):
        """Indices of the spans called ``name``, as a numpy array."""
        import numpy as np

        nid = self._name_ids.get(name, -1)
        return np.flatnonzero(np.frombuffer(self.name, dtype=np.int32) == nid)

    def durations_us(self, name: str) -> list[float]:
        import numpy as np

        idx = self.spans_named(name)
        start = np.frombuffer(self.start, dtype=np.float64)[idx]
        end = np.frombuffer(self.end, dtype=np.float64)[idx]
        return ((end - start) * 1e6).tolist()


# ------------------------------------------------------------------ wrappers


def _spanned(
    tracer: Tracer, label: str, fn: Callable, observe: Optional[Callable] = None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if observe is not None:
            observe(tracer, result)
        return result

    return wrapper


def _run_trial(tracer: Tracer, fn: Callable) -> Callable:
    traced = _spanned(tracer, "montecarlo.run_trial", fn)

    @functools.wraps(fn)
    def wrapper(cfg, seed, *args, **kwargs):
        outer = tracer.current_draw
        tracer.current_draw = tracer.draw_id(
            (cfg.n_antennas, cfg.m_beams, cfg.rho, seed.experiment_seed, seed.trial_index)
        )
        try:
            return traced(cfg, seed, *args, **kwargs)
        finally:
            tracer.current_draw = outer

    return wrapper


def _counted(tracer: Tracer, label: str, fn: Callable) -> Callable:
    # min_primary_power runs ~30 times per solve: count it, no span
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[label] += 1
        return fn(*args, **kwargs)

    return wrapper


def _note_resamples(tracer: Tracer, chan) -> None:
    tracer.counts["channel_model.resamples"] += chan.resamples


def _note_rate(tracer: Tracer, outcome) -> None:
    tracer.rates.setdefault(tracer.current_draw, {})[outcome.scheme_tag] = float(
        outcome.secondary_rate
    )


def _note_candidates(tracer: Tracer, candidates) -> None:
    tracer.counts["beam_aggregation.candidates"] += len(candidates)


def _note_solved(tracer: Tracer, solution) -> None:
    tracer.counts["beam_aggregation.solved"] += solution.status == "optimal"


def _traced_pool(tracer: Tracer, base: type) -> type:
    class TracedPool(base):
        """The montecarlo pool, with tracing in its workers; counts pools."""

        def __init__(self, *args, **kwargs):
            kwargs["initializer"] = start_worker
            super().__init__(*args, **kwargs)
            tracer.counts["montecarlo.pools_created"] += 1
            self._sid: Optional[int] = tracer.open("montecarlo.ProcessPoolExecutor")

        def map(self, fn, *iterables, **kwargs):
            work = functools.partial(call_in_worker, fn)
            for result, shipped in super().map(work, *iterables, **kwargs):
                tracer.absorb(shipped, self._sid)
                yield result

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._sid is not None:
                    tracer.close(self._sid)
                    self._sid = None

    return TracedPool


def _patches(tracer: Tracer, pool: bool) -> list[tuple[object, str, Callable]]:
    from beamshare import beam_aggregation, channel_model, cli, montecarlo

    def spanned(module, attr, label, observe=None):
        return (module, attr, _spanned(tracer, label, getattr(module, attr), observe))

    patches = [
        spanned(cli, "estimate", "montecarlo.estimate"),
        (montecarlo, "run_trial", _run_trial(tracer, montecarlo.run_trial)),
        spanned(montecarlo, "realize", "channel_model.realize", _note_resamples),
        spanned(channel_model, "sample_channels", "channel_model.sample_channels"),
        spanned(channel_model, "zf_beams", "channel_model.zf_beams"),
        spanned(montecarlo, "evaluate_selection", "beam_selection.evaluate_selection", _note_rate),
        spanned(montecarlo, "evaluate_scheme1", "beam_aggregation.evaluate_scheme1"),
        spanned(montecarlo, "evaluate_scheme2", "beam_aggregation.evaluate_scheme2", _note_rate),
        spanned(
            beam_aggregation,
            "enumerate_candidates",
            "beam_aggregation.enumerate_candidates",
            _note_candidates,
        ),
        spanned(beam_aggregation, "solve_problem4", "beam_aggregation.solve_problem4", _note_solved),
        (
            beam_aggregation,
            "min_primary_power",
            _counted(
                tracer,
                "beam_aggregation.min_primary_power",
                beam_aggregation.min_primary_power,
            ),
        ),
    ]
    if pool:
        patches.append(
            (
                montecarlo,
                "ProcessPoolExecutor",
                _traced_pool(tracer, montecarlo.ProcessPoolExecutor),
            )
        )
    return patches


def install(tracer: Tracer, pool: bool = True) -> Callable[[], None]:
    """Wrap the looked-up names; returns the function that restores them."""
    patches = _patches(tracer, pool)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapped in patches:
        setattr(module, attr, wrapped)

    def restore() -> None:
        for module, attr, original in originals:
            setattr(module, attr, original)

    return restore


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    restore = install(tracer)
    try:
        yield tracer
    finally:
        restore()


# ------------------------------------------------------------ worker side

# One tracer per worker process, created by the pool's initializer; the
# wrappers stay installed for the worker's life.
_worker_tracer: Optional[Tracer] = None


def start_worker() -> None:
    global _worker_tracer
    _worker_tracer = Tracer()
    install(_worker_tracer, pool=False)


def call_in_worker(fn: Callable, *args):
    """Run one batch in a worker; return its result with the batch's spans."""
    result = fn(*args)
    return result, _worker_tracer.drain()
