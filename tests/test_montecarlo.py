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
    with pytest.raises(ValueError):
        _spec(snr_grid_db=())
    with pytest.raises(ValueError):
        _spec(snr_grid_db=(10.0, 10.0))
    with pytest.raises(ValueError):
        _spec(schemes=("bogus",))
    with pytest.raises(ValueError):
        _spec(metric="bogus")
    with pytest.raises(ValueError):
        _spec(candidate_strategy="bogus")
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
        (o.outage, o.secondary_rate, o.secondary_rate_raw, min(o.primary_rates), 0)
        for o in outcomes
    ]
    reverse = run_trial(cfg, seed, SCHEMES[::-1], "prefixes_plus_singletons")
    assert reverse == records[::-1]


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
        run_trial(cfg, TrialSeed(1, 0), ("selection", "bogus"), "prefixes")


def test_reduce_outage_degenerate():
    est = _reduce([True], 0, "outage")
    assert est == MetricEstimate(1.0, 0.0, 1, 0)


def test_reduce_rate_two_trials():
    est = _reduce([0.0, 2.0], 1, "ergodic_rate")
    assert est.value == pytest.approx(1.0)
    assert est.std_err == pytest.approx(1.0)  # std([0,2], ddof=1)/sqrt(2)
    assert est.trials == 2
    assert est.resamples == 1


def test_reduce_binomial_se():
    est = _reduce([t < 3 for t in range(10)], 0, "outage")
    assert est.value == pytest.approx(0.3)
    assert est.std_err == pytest.approx(math.sqrt(0.3 * 0.7 / 10))


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
    first = [run_trial(cfg, TrialSeed(3, t), SCHEMES, "prefixes") for t in range(30)]
    longer = [run_trial(cfg, TrialSeed(3, t), SCHEMES, "prefixes") for t in range(60)]
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
    # a draw does not depend on the SNR: one sampling per trial for the
    # whole grid, and the trials of a block are zero-forced as one stack
    draws, stacks = [], []
    sample, zf = channel_model.sample_channels, channel_model.zf_beams

    def counted_sample(cfg, seed):
        draws.append((seed.trial_index, seed.attempt))
        return sample(cfg, seed)

    def counted_zf(G):
        stacks.append(G.shape)
        return zf(G)

    monkeypatch.setattr(channel_model, "sample_channels", counted_sample)
    monkeypatch.setattr(channel_model, "zf_beams", counted_zf)
    spec = _spec(trials=7, schemes=("selection", "scheme2"))
    result = estimate(spec)
    assert len(result.rows) == 4  # 2 SNR points x 2 schemes
    assert sorted(draws) == [(t, 0) for t in range(7)]
    assert stacks == [(7, 2, 2)]


def test_every_scheme_scores_a_block_in_one_pass(monkeypatch):
    # a sweep calls no run_trial: each scheme scores all of a block's
    # (SNR point, trial) cells in one call, scheme 2 with the spec's strategy
    calls = []
    block_pass = montecarlo.evaluate_scheme2_block

    def recording(g_gain, h_gain, cfgs, strategy):
        calls.append((g_gain.shape, len(cfgs), strategy))
        return block_pass(g_gain, h_gain, cfgs, strategy)

    def refused(*args):
        raise AssertionError("run_trial called by a sweep")

    spec = _spec(trials=5, schemes=SCHEMES, candidate_strategy="all_subsets")
    expected = estimate(spec)
    monkeypatch.setattr(montecarlo, "evaluate_scheme2_block", recording)
    monkeypatch.setattr(montecarlo, "run_trial", refused)
    assert estimate(spec) == expected
    assert calls == [((2, 5), 2, "all_subsets")]


@pytest.mark.parametrize("m_beams", range(1, 9))
def test_array_cells_equal_run_trial_records(m_beams):
    # every metric of every (SNR point, scheme, trial) cell of a block, bit
    # for bit, against run_trial on its own draw; r_p = 1 fails SIC often,
    # and scheme 2 cycles through the strategies
    strategy = STRATEGIES[m_beams % 3]
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
        values, resamples = montecarlo._run_block(
            (dataclasses.replace(spec, metric=metric), range(spec.trials))
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
    values, _ = montecarlo._run_block((spec, range(spec.trials)))
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
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    stacks = []
    zf = channel_model.zf_beams

    def counted_zf(G):
        stacks.append(len(G))
        return zf(G)

    spec = _spec(trials=11, metric="ergodic_rate", schemes=SCHEMES)
    monkeypatch.setattr(channel_model, "zf_beams", counted_zf)
    capped = estimate(spec)
    assert stacks == [4, 4, 3]
    monkeypatch.undo()
    assert capped == estimate(spec)


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
