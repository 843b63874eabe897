"""Unit tests for the benchmark's own helpers.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys

import pytest

from benchlib import (
    PAPER_SNR_GRID_DB,
    WORKLOADS,
    count_wrong,
    covered,
    evaluations,
    failed_fraction,
    load_reference,
    median_quartiles,
    percentile,
    row_matches,
    self_times,
    supported_percentile,
    sweep_seed_for,
)
from tracing import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ROW = "10.0,4,4,scheme2,ergodic_rate,2.5,0.125,100,3,0"
OUTAGE_ROW = "10.0,4,4,selection,outage,0.31,0.04624932431938871,100,3,0"


def _with_value(row: str, value: float, col: int = 5) -> str:
    cols = row.split(",")
    cols[col] = repr(value)
    return ",".join(cols)


# -------------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (10_000, 99.0, 99.0),  # 99.9 has enough samples but was not asked for
        (10_000, 99.9, 99.9),
        (1000, 99.0, 99.0),    # exactly ten beyond p99
        (999, 99.0, 95.0),
        (200, 99.0, 95.0),
        (199, 99.0, 90.0),
        (40, 99.0, 75.0),
        (20, 99.0, 50.0),
        (5, 99.0, 50.0),       # nothing supported: fall back to the median
    ],
)
def test_supported_percentile_needs_ten_samples_beyond(n, wanted, expected):
    assert supported_percentile(n, wanted) == expected


def test_percentile_is_nearest_rank_on_unsorted_samples():
    samples = list(range(100, 0, -1))  # 100..1
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    med, q1, q3 = median_quartiles(values)
    assert med == statistics.median(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert median_quartiles([2.0]) == (2.0, 2.0, 2.0)


# ---------------------------------------------------------------- self time


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered((0.0, 10.0), [(2.0, 3.0), (2.5, 2.7)]) == 1.0
    assert covered((0.0, 10.0), [(-5.0, -1.0), (11.0, 12.0)]) == 0.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_times_subtract_only_direct_children():
    # 0: root [0, 10]; 1, 2: overlapping children (parallel workers);
    # 3: grandchild inside 1, which must not count against the root again
    starts = [0.0, 1.0, 3.0, 1.5]
    ends = [10.0, 4.0, 6.0, 2.5]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0, 1.0])


# ------------------------------------------------------- correctness checks


def test_failed_fraction_counts_wrong_rows_and_crashes_over_rows():
    assert failed_fraction(0, 0, 36) == 0.0
    assert failed_fraction(2, 1, 100) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        failed_fraction(0, 0, 0)


def test_row_matches_at_one_part_in_1e12():
    assert row_matches(ROW, ROW)
    assert row_matches(ROW, _with_value(ROW, 2.5 * (1 + 5e-13)))
    assert not row_matches(ROW, _with_value(ROW, 2.5 * (1 + 2e-12)))
    assert row_matches(ROW, _with_value(ROW, 0.125 * (1 - 5e-13), col=6))
    assert not row_matches(ROW, _with_value(ROW, 0.125 * (1 - 2e-12), col=6))
    zero = _with_value(ROW, 0.0)
    assert row_matches(zero, zero)
    assert not row_matches(zero, _with_value(ROW, 1e-300))


def test_row_matches_needs_exact_keys_counts_and_resamples():
    assert not row_matches(ROW, ROW.replace("scheme2", "scheme1"))
    assert not row_matches(ROW, ROW[:-1] + "1")          # resamples
    assert not row_matches(ROW, ROW.replace(",100,", ",99,"))
    assert not row_matches(ROW, ROW + ",extra")
    assert not row_matches(ROW, _with_value(ROW, math.nan))
    assert not row_matches(OUTAGE_ROW, _with_value(OUTAGE_ROW, 0.32))  # 31 -> 32 outages
    assert row_matches(OUTAGE_ROW, _with_value(OUTAGE_ROW, 0.31 * (1 + 1e-13)))


def test_count_wrong_checks_reference_and_baseline_bytes():
    csv = f"# meta\nheader\n{ROW}\n{OUTAGE_ROW}\n"
    reference = [ROW, OUTAGE_ROW]
    assert count_wrong(reference, csv) == 0
    assert count_wrong(reference, csv, baseline=csv) == 0
    # within tolerance of the reference but not the baseline's bytes
    near = csv.replace("2.5,", repr(2.5 * (1 + 5e-13)) + ",")
    assert count_wrong(reference, near) == 0
    assert count_wrong(reference, near, baseline=csv) == 1
    assert count_wrong(reference, f"# meta\nheader\n{ROW}\n") == 1         # missing row
    assert count_wrong(reference, csv.replace("0.31", "0.5")) == 1         # wrong value
    assert count_wrong(reference, csv.replace("# meta", "# other"), baseline=csv) == 1


# --------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_rows_cover_the_workload_sweep(name):
    wl = WORKLOADS[name]
    for seed in (0, 7, 15):
        rows = load_reference(wl.reference, seed)
        assert len(rows) == len(wl.m_list) * len(PAPER_SNR_GRID_DB) * len(wl.schemes)
        assert evaluations(rows) == len(rows) * wl.trials
        assert {r.split(",")[3] for r in rows} == set(wl.schemes)
        assert {int(r.split(",")[2]) for r in rows} == set(wl.m_list)
        assert {r.split(",")[8] for r in rows} == {str(seed)}


def test_every_workload_seed_has_a_reference_sweep_seed():
    assert sweep_seed_for(0) == 0
    assert sweep_seed_for(17) == 1
    assert all(0 <= sweep_seed_for(s) < 16 for s in range(100))


# ------------------------------------------------------------------ tracing


def test_tracer_links_parents_and_absorbs_worker_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert list(tracer.parent) == [-1, outer]
    assert tracer.start[outer] <= tracer.start[inner] <= tracer.end[inner] <= tracer.end[outer]

    worker = Tracer()
    worker.current_draw = worker.draw_id(("cell", 5))
    with worker.span("run"):
        with worker.span("step"):
            pass
    worker.rates[worker.current_draw] = {"selection": 1.0}
    worker.counts["calls"] += 3
    shipped = worker.drain()
    assert len(worker.start) == 0 and not worker.counts

    tracer.sweep = 2
    with tracer.span("pool") as pool:
        tracer.absorb(shipped, pool)
    run, step = len(tracer.start) - 2, len(tracer.start) - 1
    assert tracer.parent[run] == pool and tracer.parent[step] == run
    assert tracer.draw_keys[tracer.draw[step]] == (2, "cell", 5)
    assert tracer.rates[tracer.draw[run]] == {"selection": 1.0}
    assert tracer.counts["calls"] == 3
    assert len(tracer.durations_us("step")) == 1


def test_tracing_restores_names_and_keeps_csv_bytes():
    sys.path.insert(0, SRC)
    from beamshare import beam_aggregation, channel_model, cli, montecarlo
    from tracing import installed

    modules = (beam_aggregation, channel_model, cli, montecarlo)
    before = [dict(vars(m)) for m in modules]

    def sweep():
        buf = io.StringIO()
        argv = ["preset", "fig2b", "--trials", "3", "--snr-db", "0:10:10", "--out", "-"]
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    plain = sweep()
    tracer = Tracer()
    with installed(tracer):
        assert montecarlo.realize is not before[3]["realize"]
        with tracer.span("cli.main"):
            traced = sweep()
    assert traced == plain
    assert [dict(vars(m)) for m in modules] == before
    # 2 M values x 2 SNR points x 3 trials, each drawn once per scheme
    assert len(tracer.draw_keys) == 12
    assert len(tracer.spans_named("channel_model.realize")) == 24
    assert len(tracer.spans_named("montecarlo.estimate")) == 2


def test_metric_names_match_benchmark_json():
    import json

    from run import ROOT, layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics, _ = layer_metrics(Tracer(), 1)
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in declared["per_layer"]}
    assert {m["name"] for m in declared["end_to_end"]} == {"trials_per_s", "setup_s", "peak_rss_mb"}
    # fig2b_w2 is run by hand only; its pool metrics are not declared
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS) - {"fig2b_w2"}
    pool_metrics, _ = layer_metrics(Tracer(), 1, w1_tracer=Tracer())
    assert set(pool_metrics) - set(metrics) == {
        "montecarlo.pools_created",
        "montecarlo.pool_overhead_s",
    }


def test_yardstick_factor_is_mean_of_the_calibrations_around_each_step(monkeypatch):
    import run

    times = iter([0.024, 0.048, 0.036, 0.012])
    monkeypatch.setattr(run, "calibrate", lambda: next(times))
    yardstick = run.Yardstick()
    steps = []
    run.timed_loop(0.0, lambda: steps.append(1), yardstick)  # one step
    yardstick.mark()
    yardstick.mark()
    assert steps == [1]
    ref = run.CAL_REF_S
    assert yardstick.factors() == pytest.approx(
        [0.036 / ref, 0.042 / ref, 0.024 / ref]
    )
