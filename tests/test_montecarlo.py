import dataclasses
import math

import numpy as np
import pytest

from beamshare import channel_model, montecarlo
from beamshare.beam_aggregation import STRATEGIES, evaluate_scheme1, evaluate_scheme2
from beamshare.beam_selection import evaluate_selection
from beamshare.channel_model import SystemConfig, TrialSeed, realize
from beamshare.montecarlo import (
    MetricEstimate,
    SweepSpec,
    _reduce,
    estimate,
    run_trial,
    snr_db_to_linear,
)

SCHEMES = ("selection", "scheme1", "scheme2")


def _spec(**overrides):
    base = dict(
        n_antennas=2,
        m_beams=2,
        r_p=0.1,
        r_s=1.0,
        snr_grid_db=(10.0, 20.0),
        schemes=("selection",),
        metric="outage",
        trials=50,
        seed=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_snr_conversion():
    assert snr_db_to_linear(20.0) == pytest.approx(100.0)
    assert snr_db_to_linear(0.0) == pytest.approx(1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(trials=0)
    # trial indices are 64-bit: 2**64 trials is the most a spec can hold
    with pytest.raises(ValueError, match="trials"):
        _spec(trials=2 ** 64 + 1)
    assert _spec(trials=2 ** 64).trials == 2 ** 64
    with pytest.raises(ValueError):
        _spec(snr_grid_db=())
    with pytest.raises(ValueError):
        _spec(snr_grid_db=(10.0, 10.0))
    with pytest.raises(ValueError):
        _spec(schemes=("bogus",))
    # a repeated scheme would write each of its CSV rows twice
    with pytest.raises(ValueError, match="schemes"):
        _spec(schemes=("selection", "selection"))
    with pytest.raises(ValueError):
        _spec(metric="bogus")
    for strategy in ("bogus", "prefixes"):
        with pytest.raises(ValueError):
            _spec(candidate_strategy=strategy)
    with pytest.raises(ValueError):
        _spec(n_antennas=1, m_beams=2)
    # all_subsets stops at 8 beams, but only scheme 2 enumerates subsets
    with pytest.raises(ValueError, match="all_subsets"):
        _spec(n_antennas=9, m_beams=9, schemes=("selection", "scheme2"),
              candidate_strategy="all_subsets")
    _spec(n_antennas=9, m_beams=9, candidate_strategy="all_subsets")
    _spec(n_antennas=8, m_beams=8, schemes=("scheme2",), candidate_strategy="all_subsets")


def test_run_trial_deterministic():
    cfg = SystemConfig(3, 3, 100.0, 0.5, 1.0)
    seed = TrialSeed(5, 9)
    records = run_trial(cfg, seed, SCHEMES, "prefixes_plus_singletons")
    assert records == run_trial(cfg, seed, SCHEMES, "prefixes_plus_singletons")
    # one record per scheme, in the order asked, each from the same draw
    chan = realize(cfg, seed)
    outcomes = (
        evaluate_selection(chan, cfg),
        evaluate_scheme1(chan, cfg),
        evaluate_scheme2(chan, cfg, "prefixes_plus_singletons"),
    )
    assert records == [
        (
            o.outage.item(),
            o.secondary_rate.item(),
            o.secondary_rate_raw.item(),
            o.primary_rates.min().item(),
            0,
        )
        for o in outcomes
    ]
    reverse = run_trial(cfg, seed, SCHEMES[::-1], "prefixes_plus_singletons")
    assert reverse == records[::-1]
    for record in records:
        assert type(record) is tuple
        assert [type(v) for v in record] == [bool, float, float, float, int]


def test_run_trial_dominance_same_seed():
    cfg = SystemConfig(4, 4, 100.0, 0.1, 1.0)
    for t in range(30):
        sel, agg = run_trial(
            cfg, TrialSeed(6, t), ("selection", "scheme2"), "prefixes_plus_singletons"
        )
        assert agg[1] >= sel[1]


def test_run_trial_rejects_unknown_scheme():
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_trial(
            cfg, TrialSeed(1, 0), ("selection", "bogus"), "prefixes_plus_singletons"
        )


def test_reduce_outage_degenerate():
    assert _reduce(np.ones(1), 0, "outage") == [MetricEstimate(1.0, 0.0, 1, 0)]
    # a rate's standard error is 0 for one trial too
    assert _reduce(np.array([[1.5], [2.5]]), 2, "ergodic_rate") == [
        MetricEstimate(1.5, 0.0, 1, 2), MetricEstimate(2.5, 0.0, 1, 2)
    ]


def test_reduce_rate_two_trials():
    [est] = _reduce(np.array([0.0, 2.0]), 1, "ergodic_rate")
    assert est.value == pytest.approx(1.0)
    assert est.std_err == pytest.approx(1.0)  # std([0,2], ddof=1)/sqrt(2)
    assert est.trials == 2
    assert est.resamples == 1


def test_reduce_binomial_se():
    [est] = _reduce(1.0 * (np.arange(10) < 3), 0, "outage")
    assert est.value == pytest.approx(0.3)
    assert est.std_err == pytest.approx(math.sqrt(0.3 * 0.7 / 10))


def test_reduce_equals_the_per_row_floats():
    # one reduction over a spec's (SNR point, scheme, trial) values gives
    # each row's floats as np.mean and np.std over that row alone
    rng = np.random.default_rng(0)
    for _ in range(300):
        shape = (*rng.integers(1, 5, size=2), int(rng.integers(1, 300)))
        n = shape[-1]
        rates = rng.gamma(1.0, size=shape)
        for metric, values in (("ergodic_rate", rates), ("outage", 1.0 * (rates < 1.0))):
            rows = values.reshape(-1, n)
            want = []
            for row in rows:
                mean = float(np.mean(row))
                if metric == "outage":
                    se = math.sqrt(mean * (1.0 - mean) / n)
                else:
                    se = float(np.std(row, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                want.append(MetricEstimate(mean, se, n, 7))
            assert _reduce(values, 7, metric) == want


def test_estimate_matches_manual_reduction():
    spec = _spec(trials=40, snr_grid_db=(10.0,))
    result = estimate(spec)
    cfg = spec.config_at(10.0)
    manual = [
        run_trial(cfg, TrialSeed(spec.seed, t), spec.schemes, spec.candidate_strategy)
        for t in range(40)
    ]
    assert result.rows[0].estimate.value == pytest.approx(
        np.mean([records[0][0] for records in manual])
    )


def test_stream_prefix_property():
    # growing the trial count leaves earlier trials untouched
    cfg = _spec().config_at(10.0)
    strategy = "prefixes_plus_singletons"
    first = [run_trial(cfg, TrialSeed(3, t), SCHEMES, strategy) for t in range(30)]
    longer = [run_trial(cfg, TrialSeed(3, t), SCHEMES, strategy) for t in range(60)]
    assert first == longer[:30]


def test_worker_count_invariance():
    for spec in (
        _spec(trials=60, snr_grid_db=(10.0,), schemes=("selection", "scheme2")),
        _spec(trials=30, metric="ergodic_rate", schemes=SCHEMES),
    ):
        serial = estimate(spec, workers=1)
        parallel = estimate(spec, workers=2)
        assert serial.rows == parallel.rows  # bit-identical reduction


def test_estimate_draws_each_channel_once(monkeypatch):
    # a draw does not depend on the SNR or on the geometry: one sampling per
    # (seed, trial) for the whole run, as wide as the largest geometry, and
    # each geometry's trials of a block are zero-forced as one stack
    draws, widths, stacks = [], [], []
    sample, zf = channel_model.sample_channels, channel_model.zf_beams

    def counted_sample(cfgs, seeds):
        draws.extend(map(tuple, np.asarray(seeds).tolist()))
        widths.append([(cfg.n_antennas, cfg.m_beams) for cfg in cfgs])
        return sample(cfgs, seeds)

    def counted_zf(G):
        stacks.append(G.shape)
        return zf(G)

    monkeypatch.setattr(channel_model, "sample_channels", counted_sample)
    monkeypatch.setattr(channel_model, "zf_beams", counted_zf)
    specs = [
        _spec(trials=7, schemes=("selection", "scheme2")),
        _spec(n_antennas=4, m_beams=3, trials=7),
        _spec(trials=3, seed=8),
    ]
    results = estimate(specs)
    assert [len(result.rows) for result in results] == [4, 2, 2]
    assert sorted(draws) == [(3, t, 0) for t in range(7)] + [(8, t, 0) for t in range(3)]
    assert widths == [[(2, 2), (4, 3)], [(2, 2)]]
    assert stacks == [(7, 2, 2), (7, 4, 3), (3, 2, 2)]


def test_every_scheme_scores_a_block_in_one_pass(monkeypatch):
    # a sweep calls no run_trial: each scheme scores all of a block's
    # (SNR point, trial) cells in one call, looked up by name in montecarlo
    # at call time, scheme 2 with the spec's strategy
    calls = []

    def recording(name):
        block_pass = getattr(montecarlo, name)

        def wrapper(g_gain, h_gain, cfgs, *strategy):
            calls.append((name, g_gain.shape, len(cfgs), *strategy))
            return block_pass(g_gain, h_gain, cfgs, *strategy)

        return wrapper

    def refused(*args):
        raise AssertionError("run_trial called by a sweep")

    spec = _spec(trials=5, schemes=SCHEMES, candidate_strategy="all_subsets")
    expected = estimate(spec)
    names = ("evaluate_selection_block", "evaluate_scheme1_block", "evaluate_scheme2_block")
    for name in names:
        monkeypatch.setattr(montecarlo, name, recording(name))
    monkeypatch.setattr(montecarlo, "run_trial", refused)
    assert estimate(spec) == expected
    assert calls == [
        (names[0], (2, 5), 2),
        (names[1], (2, 5), 2),
        (names[2], (2, 5), 2, "all_subsets"),
    ]


def test_scheme2_races_lanes_on_the_dense_m8_block(monkeypatch):
    # the benchmark's dense_m8 sweep (N = M = 8, all_subsets, 9 SNR points,
    # 10 trials) at seed 0 is one block, and its lockstep races out lanes
    counts = []

    def recording(*args):
        cells = block_pass(*args)
        counts.append(cells.counts)
        return cells

    block_pass = montecarlo.evaluate_scheme2_block
    monkeypatch.setattr(montecarlo, "evaluate_scheme2_block", recording)
    spec = _spec(
        n_antennas=8,
        m_beams=8,
        snr_grid_db=tuple(range(0, 45, 5)),
        schemes=("scheme2",),
        metric="ergodic_rate",
        trials=10,
        seed=0,
        candidate_strategy="all_subsets",
    )
    estimate(spec)
    assert len(counts) == 1
    assert counts[0]["raced"] > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_pass_rejects_snr_points_that_differ_beyond_rho(scheme):
    # a block pass applies cfgs[0]'s targets to every row, so configs that
    # differ in anything but rho, or a beam count unlike the block's, raise
    block_pass = getattr(montecarlo, f"evaluate_{scheme}_block")
    cfg = SystemConfig(3, 2, 10.0, 0.1, 1.0)
    block, = channel_model.realize_block([cfg], [(5, t, 0) for t in range(4)])
    g, h = block.g_gain, block.h_gain
    rows = block_pass(g, h, [cfg, dataclasses.replace(cfg, rho=100.0)])
    assert rows.secondary_rate_raw.shape == (2, 4)
    for other in (
        dataclasses.replace(cfg, r_p=0.5),
        dataclasses.replace(cfg, r_s=2.0),
        dataclasses.replace(cfg, n_antennas=4),
    ):
        with pytest.raises(ValueError, match="differ in rho alone"):
            block_pass(g, h, [cfg, other])
    with pytest.raises(ValueError, match="one beam per row"):
        block_pass(g, h, [SystemConfig(3, 3, 10.0, 0.1, 1.0)])


@pytest.mark.parametrize("m_beams", range(1, 9))
def test_array_cells_equal_run_trial_records(m_beams):
    # every metric of every (SNR point, scheme, trial) cell of a block, bit
    # for bit, against run_trial on its own draw; r_p = 1 fails SIC often,
    # and scheme 2 cycles through the strategies
    strategy = STRATEGIES[m_beams % len(STRATEGIES)]
    spec = _spec(
        n_antennas=m_beams + m_beams % 3,
        m_beams=m_beams,
        r_p=(0.1, 1.0)[m_beams % 2],
        snr_grid_db=(-30.0, -15.0, 0.0, 10.0, 20.0, 35.0, 60.0),
        schemes=SCHEMES,
        trials=12,
        seed=40 + m_beams,
        candidate_strategy=strategy,
    )
    records = [
        [
            run_trial(cfg, TrialSeed(spec.seed, t), spec.schemes, strategy)
            for t in range(spec.trials)
        ]
        for cfg in map(spec.config_at, spec.snr_grid_db)
    ]
    for field, metric in enumerate(montecarlo.METRICS):
        ((values, resamples),) = montecarlo._run_block(
            ([dataclasses.replace(spec, metric=metric)], range(spec.trials))
        )
        want = [
            [[cell[k][field] for cell in row] for k in range(len(spec.schemes))]
            for row in records
        ]
        assert values.tobytes() == np.array(want, dtype=float).tobytes(), metric
        assert resamples == sum(row[0][-1] for row in records[0])


@pytest.mark.parametrize("m_beams", [2, 4])
def test_scheme2_dominates_selection_on_every_block_cell(m_beams):
    spec = _spec(
        n_antennas=m_beams,
        m_beams=m_beams,
        snr_grid_db=(0.0, 10.0, 20.0, 30.0, 40.0),
        schemes=("selection", "scheme2"),
        metric="ergodic_rate",
        trials=64,
        seed=11,
    )
    ((values, _),) = montecarlo._run_block(([spec], range(spec.trials)))
    selection, scheme2 = values[:, 0], values[:, 1]
    assert np.all(scheme2 >= selection)
    assert np.any(scheme2 > selection)


def test_estimate_starts_one_pool(monkeypatch):
    pools = []

    class CountedPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
    spec = _spec(trials=9, schemes=("selection", "scheme1"))
    assert estimate(spec, workers=2) == estimate(spec, workers=1)
    assert len(pools) == 1
    # two specs in one call share one more pool and give what each gives alone
    specs = [spec, _spec(n_antennas=3, m_beams=3, trials=6, metric="ergodic_rate")]
    assert estimate(specs, workers=2) == [estimate(s) for s in specs]
    assert len(pools) == 2


def test_estimate_blocks_are_capped(monkeypatch):
    stacks = []
    zf = channel_model.zf_beams

    def counted_zf(G):
        stacks.append(len(G))
        return zf(G)

    def blocks(spec, budget, least):
        stacks.clear()
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_BUDGET", budget)
            m.setattr(montecarlo, "_MIN_TRIALS", least)
            result = estimate(spec)
        return result, list(stacks)

    monkeypatch.setattr(channel_model, "zf_beams", counted_zf)
    # scheme 2 at M = 2 ranks 3 sets, so a trial is 2 SNR points x 3 sets
    spec = _spec(trials=11, metric="ergodic_rate", schemes=SCHEMES)
    whole, sizes = blocks(spec, 6 * 11, 1)
    assert sizes == [11]
    assert blocks(spec, 6 * 4 + 5, 1) == (whole, [4, 4, 3])
    assert blocks(spec, 1, 1) == (whole, [1] * 11)
    # a block never takes fewer than _MIN_TRIALS trials
    assert blocks(spec, 1, 5) == (whole, [5, 5, 1])
    # without scheme 2 a trial is 2 SNR points x 2 beams
    spec = _spec(trials=11, schemes=("selection", "scheme1"))
    whole, sizes = blocks(spec, 4 * 11, 1)
    assert sizes == [11]
    assert blocks(spec, 4 * 5, 1) == (whole, [5, 5, 1])
    # a trial's N x M channel entries count when they outnumber its work:
    # here 16 x 2 entries against 1 SNR point x 2 beams
    spec = _spec(n_antennas=16, trials=11, snr_grid_db=(10.0,))
    whole, sizes = blocks(spec, 32 * 11, 1)
    assert sizes == [11]
    assert blocks(spec, 32 * 5, 1) == (whole, [5, 5, 1])
    # at the default budget, the fig2b sweeps at 100 trials are one block each
    for m in (2, 4):
        spec = _spec(
            n_antennas=m,
            m_beams=m,
            snr_grid_db=tuple(range(0, 45, 5)),
            schemes=("selection", "scheme2"),
            metric="ergodic_rate",
            trials=100,
        )
        stacks.clear()
        estimate(spec)
        assert stacks == [100]
    # a large array draws 2^15 / (N x M) trials per block: 512 at N = 64
    stacks.clear()
    estimate(_spec(n_antennas=64, m_beams=1, snr_grid_db=(10.0,), trials=600))
    assert stacks == [512, 88]
    # all_subsets at M = 8 over 9 SNR points would fit 14 trials; it takes 64
    stacks.clear()
    estimate(
        _spec(
            n_antennas=8,
            m_beams=8,
            snr_grid_db=tuple(range(0, 45, 5)),
            schemes=("scheme2",),
            candidate_strategy="all_subsets",
            trials=100,
        )
    )
    assert stacks == [64, 36]
    # specs sharing a seed are drawn in units of their smallest block,
    # cut where a spec's trials end: a trial of the first is 2 SNR points
    # x 2 beams, of the second 2 x 3 sets, so budget 24 gives 6 and 4
    specs = [_spec(trials=11, schemes=("selection", "scheme1")), _spec(trials=5, schemes=SCHEMES)]
    alone = [blocks(spec, 24, 1)[0] for spec in specs]
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_BUDGET", 24)
        m.setattr(montecarlo, "_MIN_TRIALS", 1)
        stacks.clear()
        assert estimate(specs) == alone
    assert stacks == [4, 4, 1, 1, 3, 3]


def test_specs_drawn_together_equal_each_spec_alone(monkeypatch):
    # a run's shared draws change no row: M in {2, 4, 8}, two seeds, 7 and
    # 130 trials, at the default units, at units of 16 and over a pool
    specs = [
        _spec(n_antennas=m, m_beams=m, trials=trials, seed=seed, schemes=schemes, metric=metric)
        for m, trials, seed, schemes, metric in (
            (2, 130, 3, ("selection", "scheme2"), "ergodic_rate"),
            (4, 7, 3, SCHEMES, "outage"),
            (8, 130, 3, ("selection", "scheme1"), "primary_min_rate"),
            (4, 130, 9, ("selection",), "ergodic_rate"),
            (2, 7, 9, ("scheme1",), "outage"),
            (8, 7, 9, ("scheme2",), "ergodic_rate_unconditioned"),
        )
    ]
    alone = [estimate(spec) for spec in specs]
    assert estimate(specs) == alone
    assert estimate(specs, workers=2) == alone
    monkeypatch.setattr(montecarlo, "_MIN_TRIALS", 16)
    monkeypatch.setattr(montecarlo, "_BUDGET", 1)
    assert estimate(specs) == alone


def test_pool_capped_at_usable_cpus(monkeypatch):
    # the fake pool records its size and maps in-process, so no process
    # starts whatever workers asks for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    spec = _spec(trials=9, schemes=("selection", "scheme1"))
    serial = estimate(spec, workers=1)
    monkeypatch.setattr(
        montecarlo.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
    )
    assert estimate(spec, workers=100_000) == serial
    assert sizes == [3]
    # without an affinity mask the cap is the CPU count
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 5)
    assert estimate(spec, workers=100_000) == serial
    assert sizes == [3, 5]
    # on one CPU no pool is started at all
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
    assert estimate(spec, workers=8) == serial
    assert sizes == [3, 5]


def test_outage_bounds_and_metrics():
    spec = _spec(trials=30, metric="ergodic_rate", schemes=("selection", "scheme1"))
    result = estimate(spec)
    assert len(result.rows) == 4  # 2 SNR points x 2 schemes
    for row in result.rows:
        assert row.estimate.std_err >= 0.0
    out = estimate(_spec(trials=30))
    for row in out.rows:
        assert 0.0 <= row.estimate.value <= 1.0


def test_primary_min_rate_metric():
    spec = _spec(trials=25, metric="primary_min_rate", schemes=("scheme1",))
    result = estimate(spec)
    for row in result.rows:
        assert row.estimate.value >= 0.0
