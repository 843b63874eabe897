"""Benchmark beamshare's Monte Carlo sweeps.

Run from the repository root:

    python3 bench/run.py --workload fig2b --seed 1 --seconds 32 --trace 0

Each workload is one sweep run through ``beamshare.cli.main`` as a user runs
it, repeated for ``--seconds``; one benchmark process, closed loop.  Every
sweep's CSV is checked against stored reference rows and against the run's
first (workers-1, untraced) sweep byte for byte.

``--trace 0`` reports the end-to-end metrics: trials_per_s (median over
sweeps), setup_s (median of fresh-process set-ups), both at a reference
machine speed (see Yardstick), and peak_rss_mb.
``--trace 1`` alternates untraced and traced sweeps and reports per-layer
metrics from spans recorded around the calls into each module (tracing.py).

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from benchlib import (
    BENCH_DIR,
    WORKLOADS,
    Workload,
    count_wrong,
    evaluations,
    failed_fraction,
    load_reference,
    median_quartiles,
    percentile,
    self_times,
    supported_percentile,
    sweep_seed_for,
)

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# One BLAS/OpenMP thread per process, so stacked linear algebra cannot
# oversubscribe the cores; spawned workers inherit the environment.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 11

# calibrate()'s median time on the 2-core host the bounds were tuned on;
# timings are reported at this machine speed (see Yardstick).
CAL_REF_S = 0.024


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference data)."""


def pin_threads() -> None:
    os.environ.update(PINNED_ENV)


def import_cli():
    """Import beamshare.cli from this checkout's ``src``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "beamshare")):
        raise BenchError(f"no beamshare sources under {SRC}")
    sys.path.insert(0, SRC)
    from beamshare import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"beamshare imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        pinned={k: os.environ.get(k) for k in PINNED_ENV},
    )


# ------------------------------------------------------------------ sweeps


@dataclass
class Tally:
    rows: int = 0        # rows attempted
    wrong: int = 0       # rows off the reference or off the baseline bytes
    crashed: int = 0     # sweeps that raised or returned nonzero
    draws: int = 0       # draws checked for scheme2 >= selection
    violations: int = 0

    @property
    def attempted(self) -> int:
        return self.rows + self.draws

    @property
    def failed(self) -> int:
        return self.wrong + self.crashed + self.violations


def capture_main(cli, argv: list[str], tracer=None) -> tuple[float, int | None, str]:
    """Run ``cli.main(argv)``; return (wall seconds, exit code, stdout)."""
    buf = io.StringIO()
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crashed sweep is counted, not fatal
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code, buf.getvalue()


def run_sweep(cli, argv, reference, baseline, tally, tracer=None) -> tuple[float, str | None]:
    wall, code, text = capture_main(cli, argv, tracer)
    tally.rows += len(reference)
    if code != 0:
        print(f"# sweep failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        tally.crashed += 1
        return wall, None
    tally.wrong += count_wrong(reference, text, baseline)
    return wall, text


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreted arithmetic and small
    complex numpy linear algebra, the two kinds of work a sweep does."""
    import numpy as np

    rng = np.random.default_rng(12345)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(500):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        acc += float(np.linalg.svd(g, compute_uv=False)[0])
        acc += float(np.abs(np.linalg.inv(g.conj().T @ g)).sum())
        acc += sum(math.sqrt(k + 0.5) for k in range(60))
    return time.perf_counter() - start


class Yardstick:
    """Machine-speed factors for a series of timed steps.

    On a shared host the same sweep runs up to 2x slower for minutes at a
    time, and CPU time slows with it: the host's speed changes, not our
    share of it.  So ``calibrate()`` runs before the first step and after
    every step, and a step's factor is the mean of the two runs around it
    over CAL_REF_S.  Dividing a step's time by its factor gives its time at
    the reference speed.
    """

    def __init__(self) -> None:
        self._cal = [calibrate()]

    def mark(self) -> None:
        self._cal.append(calibrate())

    def factors(self) -> list[float]:
        return [(a + b) / (2.0 * CAL_REF_S) for a, b in zip(self._cal, self._cal[1:])]


def timed_loop(seconds: float, step, yardstick: Yardstick | None = None) -> None:
    """Call ``step()`` at least once, and again while another call of the
    median length still ends within ``seconds`` of the start; mark the
    yardstick after each call."""
    start = time.perf_counter()
    lengths: list[float] = []
    while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - t0)
        if yardstick is not None:
            yardstick.mark()


# ------------------------------------------------------------------ setup


_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import beamshare.cli
from beamshare.montecarlo import SweepSpec
for kw in json.loads(sys.argv[2]):
    kw.update(snr_grid_db=tuple(kw["snr_grid_db"]), schemes=tuple(kw["schemes"]))
    spec = SweepSpec(**kw)
    spec.config_at(spec.snr_grid_db[0])
print("ready", flush=True)
"""


def setup_seconds(wl: Workload, sweep_seed: int, repeats: int, yardstick: Yardstick) -> list[float]:
    """Fresh-process set-up: interpreter start, ``import beamshare``, spec build."""
    specs = json.dumps(wl.spec_kwargs(sweep_seed))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, SRC, specs], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        yardstick.mark()
    return times


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process, plus one peak child per pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


# --------------------------------------------------------------- end to end


def end_to_end(cli, wl: Workload, seed: int, seconds: float, tally: Tally):
    sweep_seed = sweep_seed_for(seed)
    reference = load_reference(wl.reference, sweep_seed)
    evals = evaluations(reference)
    # untimed warm-up at workers 1; its bytes are what every sweep must equal
    _, baseline = run_sweep(cli, wl.argv(sweep_seed, workers=1), reference, None, tally)
    rates: list[float] = []

    def step():
        wall, _ = run_sweep(cli, wl.argv(sweep_seed), reference, baseline, tally)
        rates.append(evals / wall)

    # The yardstick runs on one core, like a workers-1 sweep.  Pool sweeps
    # spend their time starting workers on both cores, which did not follow
    # it (host factor 0.75-1.23 while their throughput stayed within 8%), so
    # they are reported as timed.
    sweep_speed = Yardstick() if wl.workers == 1 else None
    timed_loop(seconds, step, sweep_speed)
    rss = peak_rss_mib(wl.workers)  # read before the set-up probes add children
    setup_speed = Yardstick()
    setups = setup_seconds(wl, sweep_seed, SETUP_REPEATS, setup_speed)

    def report(name, unit, raw, factors, scale, what):
        """Median of ``raw`` scaled to the reference speed, when ``factors``."""
        scaled = raw if factors is None else [scale(v, k) for v, k in zip(raw, factors)]
        med, q1, q3 = median_quartiles(scaled)
        how = ("as timed" if factors is None else
               f"at reference speed; as timed {statistics.median(raw):.4f} {unit}, "
               f"host time factor {statistics.median(factors):.3f}")
        print(f"# {name} {med:.4f} {unit} {how} (median; q1 {q1:.4f}, q3 {q3:.4f}; "
              f"n={len(scaled)} {what})")
        return med

    tps = report("trials_per_s", "1/s", rates, sweep_speed and sweep_speed.factors(),
                 lambda r, k: r * k, f"sweeps of {evals} evaluations")
    s_med = report("setup_s", "s", setups, setup_speed.factors(), lambda t, k: t / k,
                   "processes")
    print(f"# peak_rss_mb {rss:.1f} MiB (benchmark process{' + workers' if wl.workers > 1 else ''})")
    return {
        "trials_per_s": (tps, "1/s"),
        "setup_s": (s_med, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


# ------------------------------------------------------------------- traced


def _grouped_sum(tracer, child: str, parent: str):
    """Per ``parent`` span: summed duration of its ``child`` spans, seconds."""
    totals = {int(p): 0.0 for p in tracer.spans_named(parent)}
    for i in tracer.spans_named(child):
        p = tracer.parent[i]
        if p in totals:
            totals[p] += tracer.end[i] - tracer.start[i]
    return list(totals.values())


def _self_seconds(tracer, name: str) -> tuple[list[float], list[float]]:
    """(self time, duration) of each span called ``name``."""
    idx = [int(i) for i in tracer.spans_named(name)]
    wanted = set(idx)
    local = {i: k for k, i in enumerate(idx)}
    starts = [tracer.start[i] for i in idx]
    ends = [tracer.end[i] for i in idx]
    parents = [-1] * len(idx)
    # children of the wanted spans, re-indexed after them
    for j, p in enumerate(tracer.parent):
        if p in wanted:
            starts.append(tracer.start[j])
            ends.append(tracer.end[j])
            parents.append(local[p])
    selfs = self_times(starts, ends, parents)[: len(idx)]
    return selfs, [e - s for s, e in zip(starts, ends)][: len(idx)]


def layer_metrics(tracer, sweeps: int, w1_tracer=None) -> dict:
    out: dict[str, tuple[float, str]] = {}
    notes: list[str] = []

    def timing(metric, span, p):
        d = tracer.durations_us(span)
        if not d:
            out[metric] = (0.0, "us")
            notes.append(f"{metric} 0 (not reached)")
            return
        q = supported_percentile(len(d), p)
        out[metric] = (percentile(d, q), "us")
        notes.append(f"{metric} {out[metric][0]:.2f} us (p{q:g} of n={len(d)})")

    def ratio(metric, num, den, unit="count"):
        out[metric] = (num / den if den else 0.0, unit)
        notes.append(f"{metric} {out[metric][0]:.6g} ({num}/{den})")

    n = tracer.counts
    draws = len(tracer.draw_keys)
    realize = len(tracer.spans_named("channel_model.realize"))
    enumerate_calls = len(tracer.spans_named("beam_aggregation.enumerate_candidates"))
    solves = len(tracer.spans_named("beam_aggregation.solve_problem4"))

    ratio("channel_model.realize_calls_per_draw", realize, draws)
    timing("channel_model.realize_us_p50", "channel_model.realize", 50)
    timing("channel_model.realize_us_p99", "channel_model.realize", 99)
    timing("channel_model.sample_channels_us_p50", "channel_model.sample_channels", 50)
    timing("channel_model.zf_beams_us_p50", "channel_model.zf_beams", 50)
    ratio("channel_model.resamples", n["channel_model.resamples"], sweeps)
    timing("beam_selection.evaluate_selection_us_p50", "beam_selection.evaluate_selection", 50)
    timing("beam_selection.evaluate_selection_us_p99", "beam_selection.evaluate_selection", 99)
    timing("beam_aggregation.evaluate_scheme1_us_p50", "beam_aggregation.evaluate_scheme1", 50)
    timing("beam_aggregation.evaluate_scheme2_us_p50", "beam_aggregation.evaluate_scheme2", 50)
    timing("beam_aggregation.evaluate_scheme2_us_p99", "beam_aggregation.evaluate_scheme2", 99)
    timing(
        "beam_aggregation.enumerate_candidates_us_p50",
        "beam_aggregation.enumerate_candidates",
        50,
    )
    ratio("beam_aggregation.candidates_per_draw", n["beam_aggregation.candidates"], enumerate_calls)
    ratio(
        "beam_aggregation.solved_frac",
        n["beam_aggregation.solved"],
        n["beam_aggregation.candidates"],
        "ratio",
    )
    ratio("beam_aggregation.solve_problem4_calls_per_draw", solves, enumerate_calls)
    timing("beam_aggregation.solve_problem4_us_p50", "beam_aggregation.solve_problem4", 50)
    ratio(
        "beam_aggregation.min_primary_power_calls_per_solve",
        n["beam_aggregation.min_primary_power"],
        solves,
    )
    timing("montecarlo.run_trial_us_p50", "montecarlo.run_trial", 50)
    timing("montecarlo.run_trial_us_p99", "montecarlo.run_trial", 99)

    est_self, est_wall = _self_seconds(tracer, "montecarlo.estimate")
    out["montecarlo.self_frac"] = (sum(est_self) / sum(est_wall) if est_wall else 0.0, "ratio")
    notes.append(f"montecarlo.self_frac {out['montecarlo.self_frac'][0]:.4f} "
                 f"({sum(est_self):.3f} s of {sum(est_wall):.3f} s)")
    if w1_tracer is not None:
        # pool metrics exist only where a pool does: fig2b_w2, which is run
        # by hand and not listed in BENCHMARK.json (see README.md)
        ratio("montecarlo.pools_created", n["montecarlo.pools_created"], sweeps)
        w2_walls = _grouped_sum(tracer, "montecarlo.estimate", "cli.main")
        w1_wall = sum(_grouped_sum(w1_tracer, "montecarlo.estimate", "cli.main"))
        w2_wall = statistics.median(w2_walls) if w2_walls else 0.0
        overhead = w2_wall - 0.5 * w1_wall
        out["montecarlo.pool_overhead_s"] = (overhead, "s")
        notes.append(f"montecarlo.pool_overhead_s {overhead:.3f} s (estimate wall "
                     f"{w2_wall:.3f} s at workers 2, {w1_wall:.3f} s at 1)")

    cli_self, _ = _self_seconds(tracer, "cli.main")
    out["cli.self_s"] = (statistics.median(cli_self) if cli_self else 0.0, "s")
    notes.append(f"cli.self_s {out['cli.self_s'][0]:.5f} s (median of n={len(cli_self)})")
    return out, notes


def dominance(tracer, tally: Tally) -> None:
    """Per draw that ran both: scheme2's rate must not fall below selection's."""
    for rates in tracer.rates.values():
        if "selection" in rates and "scheme2" in rates:
            tally.draws += 1
            if rates["scheme2"] < rates["selection"]:
                tally.violations += 1


def write_spans(tracer, path: str) -> None:
    import numpy as np

    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        draw=np.frombuffer(tracer.draw, dtype=np.int32),
    )


def traced(cli, wl: Workload, seed: int, seconds: float, tally: Tally):
    from tracing import Tracer, installed

    sweep_seed = sweep_seed_for(seed)
    reference = load_reference(wl.reference, sweep_seed)
    evals = evaluations(reference)
    w1_argv, argv = wl.argv(sweep_seed, workers=1), wl.argv(sweep_seed)
    _, baseline = run_sweep(cli, w1_argv, reference, None, tally)

    w1_tracer = None
    if wl.workers > 1:
        # the workers-1 side of pool_overhead_s, traced like the rest
        w1_tracer = Tracer()
        w1_tracer.sweep = 1
        with installed(w1_tracer):
            run_sweep(cli, w1_argv, reference, baseline, tally, w1_tracer)
        dominance(w1_tracer, tally)

    tracer = Tracer()
    plain: list[float] = []
    with_trace: list[float] = []

    def step():
        wall, _ = run_sweep(cli, argv, reference, baseline, tally)
        plain.append(evals / wall)
        tracer.sweep += 1
        with installed(tracer):
            wall, _ = run_sweep(cli, argv, reference, baseline, tally, tracer)
        with_trace.append(evals / wall)

    timed_loop(seconds, step)  # same-run ratios: no machine-speed scaling needed
    dominance(tracer, tally)
    metrics, notes = layer_metrics(tracer, tracer.sweep, w1_tracer)
    overhead = 1.0 - statistics.median(with_trace) / statistics.median(plain)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes.append(f"trace.overhead_frac {overhead:.4f} (trials_per_s traced "
                 f"{statistics.median(with_trace):.2f}, untraced {statistics.median(plain):.2f}; "
                 f"{len(plain)} sweeps each)")
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.npz")
    write_spans(tracer, path)
    notes.append(f"spans: {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
    for line in notes:
        print(f"# {line}")
    return metrics


# -------------------------------------------------------------------- main


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    pin_threads()
    os.chdir(ROOT)  # the dense_m8 config path is relative to the repository root
    try:
        cli = import_cli()
        wl = WORKLOADS[args.workload]
        print(f"# workload {wl.name} seed {args.seed} -> sweep seed "
              f"{sweep_seed_for(args.seed)}: {' '.join(wl.argv(sweep_seed_for(args.seed)))}")
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        tally = Tally()
        measure = traced if args.trace else end_to_end
        metrics = measure(cli, wl, args.seed, args.seconds, tally)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# failed_frac {failed_fraction(tally.wrong, tally.crashed, tally.rows):.6g} "
          f"({tally.wrong} wrong rows, {tally.crashed} crashed sweeps, {tally.rows} rows)")
    if tally.draws:
        print(f"# dominance: {tally.violations} of {tally.draws} draws with scheme2 < selection")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
