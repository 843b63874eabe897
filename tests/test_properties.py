"""Property tests for invariants every scheme, and the scheme 2 solver, must
keep on any channel draw."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from beamshare import (
    SystemConfig,
    TrialSeed,
    evaluate_scheme1,
    evaluate_scheme2,
    evaluate_selection,
    realize,
)
from beamshare.beam_aggregation import (
    STRATEGIES,
    certify_solution,
    enumerate_candidates,
    evaluate_scheme1_block,
    evaluate_scheme2_block,
    min_primary_power,
    solve_problem4,
)
from beamshare.beam_selection import evaluate_selection_block
from beamshare.channel_model import ChannelBlock, sample_channels
from beamshare.montecarlo import METRICS, SCHEMES, SweepSpec, _run_block

from oracles import exhaustive_scheme2, lane_solutions, reference_channels, same_choice

# (r_p, r_s): the paper's operating point, vanishing targets, extreme targets
TARGETS = [(0.1, 1.0), (1e-9, 0.0), (8.0, 8.0)]

_GAIN = st.floats(min_value=1e-3, max_value=30.0)


# (experiment seed, trial index, attempt): each part one or two entropy words
_SEED_PARTS = st.tuples(
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.one_of(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=2 ** 32, max_value=2 ** 64 - 1),
    ),
    st.one_of(st.just(0), st.integers(min_value=1, max_value=2 ** 64 - 1)),
)


def _mixed_lengths(seed):
    # one block of 3 to 6 entropy words at experiment seed `seed`
    return [
        (seed, 0, 0),
        (seed, 2 ** 32 + 7, 0),
        (seed, 3, 2 ** 32),
        (seed, 2 ** 64 - 1, 1),
    ]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    parts=st.lists(_SEED_PARTS, min_size=1, max_size=12),
    m_beams=st.integers(min_value=1, max_value=4),
    extra_antennas=st.integers(min_value=0, max_value=2),
)
@example(parts=_mixed_lengths(0), m_beams=2, extra_antennas=1)
@example(parts=_mixed_lengths(2 ** 32 - 1), m_beams=3, extra_antennas=0)
@example(parts=_mixed_lengths(2 ** 32), m_beams=1, extra_antennas=2)
@example(parts=_mixed_lengths(2 ** 64 - 1), m_beams=4, extra_antennas=1)
def test_block_rows_equal_each_seeds_own_stream(parts, m_beams, extra_antennas):
    # every row of one block, bit for bit, against the four standard_normal
    # draws of its own TrialSeed.rng()
    cfg = SystemConfig(m_beams + extra_antennas, m_beams, 10.0, 1.0, 1.0)
    (G, h), = sample_channels([cfg], parts)
    for G_t, h_t, part in zip(G, h, parts):
        seed = TrialSeed(*part)
        G_ref, h_ref = reference_channels(cfg, seed)
        assert G_t.tobytes() == G_ref.tobytes(), seed
        assert h_t.tobytes() == h_ref.tobytes(), seed


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    log10_rho=st.floats(min_value=-8.0, max_value=30.0),
    targets=st.sampled_from(TARGETS),
    m_beams=st.integers(min_value=1, max_value=4),
    extra_antennas=st.integers(min_value=0, max_value=2),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_rates_finite_and_scheme2_dominates_selection(
    log10_rho, targets, m_beams, extra_antennas, trial
):
    r_p, r_s = targets
    cfg = SystemConfig(m_beams + extra_antennas, m_beams, 10.0 ** log10_rho, r_p, r_s)
    chan = realize(cfg, TrialSeed(2026, trial))
    sel = evaluate_selection(chan, cfg)
    agg = evaluate_scheme2(chan, cfg, "prefixes_plus_singletons")
    s1 = evaluate_scheme1(chan, cfg)
    for scheme, out in (("selection", sel), ("scheme1", s1), ("scheme2", agg)):
        for rates in (out.secondary_rate, out.secondary_rate_raw, out.primary_rates):
            for rate in rates.ravel().tolist():
                assert math.isfinite(rate) and rate >= 0.0, (scheme, rate)
    assert agg.secondary_rate.item() >= sel.secondary_rate.item()


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    log10_rho=st.floats(min_value=-8.0, max_value=30.0),
    targets=st.sampled_from(TARGETS),
    m_beams=st.integers(min_value=2, max_value=6),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_candidates_are_whole_instances_and_solutions_certify(
    log10_rho, targets, m_beams, trial
):
    r_p, r_s = targets
    cfg = SystemConfig(m_beams, m_beams, 10.0 ** log10_rho, r_p, r_s)
    chan = realize(cfg, TrialSeed(2027, trial))
    for cand in enumerate_candidates(chan, cfg, "all_subsets"):
        assert cand.h == tuple(chan.h_gain[b, 0] for b in cand.beams)
        assert all(a >= b for a, b in zip(cand.h, cand.h[1:]))
        assert cand.feasible == all(e <= 1.0 for e in cand.etas)
        sol = solve_problem4(cand)
        if sol.status == "optimal":
            assert certify_solution(cand, sol) == [], (cand, sol)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    log10_rho=st.floats(min_value=-8.0, max_value=30.0),
    r_p=st.sampled_from([1e-9, 0.1, 1.0, 8.0]),
    m_beams=st.integers(min_value=2, max_value=8),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_pruned_set_search_picks_the_exhaustive_winner(log10_rho, r_p, m_beams, trial):
    # At r_p = 1e-9 the weakest-beam edge h/eps_p - tau_d is far above B^2
    # and never binds; at r_p = 8 (eps_p = 255) it binds on almost every set.
    cfg = SystemConfig(m_beams, m_beams, 10.0 ** log10_rho, r_p, 1.0)
    chan = realize(cfg, TrialSeed(2028, trial))
    for strategy in STRATEGIES:
        got = evaluate_scheme2(chan, cfg, strategy)
        want = exhaustive_scheme2(chan, cfg, strategy)
        assert same_choice(got, want), (strategy, got, want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    log10_rho=st.floats(min_value=-8.0, max_value=30.0),
    r_p=st.sampled_from([0.1, 1.0]),
    m_beams=st.integers(min_value=2, max_value=8),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_lanes_match_the_scalar_bisection(log10_rho, r_p, m_beams, trial):
    # Every feasible prefix of 2..m_beams beams, solved as lanes of one
    # lockstep bisection, against solve_problem4 bit for bit. At r_p = 1
    # (eps_p = 1) no alpha_p fits at t = sum sqrt(h) (the last beam would
    # need h alpha_p >= (sum sqrt(h))^2 > h), so half the examples have the
    # infeasible region inside the bisection's interval.
    cfg = SystemConfig(m_beams, m_beams, 10.0 ** log10_rho, r_p, 1.0)
    chan = realize(cfg, TrialSeed(2029, trial))
    # the strategy's sets of two or more beams are the prefixes
    pairs, _ = lane_solutions(chan.g_gain, chan.h_gain, cfg, "prefixes_plus_singletons")
    for cand, got in pairs:
        if min_primary_power(cand, 0.0) is None:
            assert got.status == "infeasible"
            continue
        if r_p == 1.0:
            assert min_primary_power(cand, sum(math.sqrt(v) for v in cand.h)) is None
        want = solve_problem4(cand)
        assert want.status == "optimal"
        assert repr(got) == repr(want), (cand, got, want)


def _gains(g, h):
    # a block of one trial with the given gains; the set search reads only
    # the gains, so the matrices are left out
    g_gain, h_gain = (np.array(v, dtype=float)[:, None] for v in (g, h))
    return ChannelBlock(None, None, None, g_gain, h_gain, [0])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=5),
    trials=st.integers(min_value=1, max_value=4),
    snr_db=st.lists(
        st.floats(min_value=-30.0, max_value=60.0), min_size=1, max_size=4
    ),
    r_p=st.sampled_from([1e-17, 1e-9, 0.1, 1.0, 8.0]),
    data=st.data(),
)
@example(  # r_p = 1e-17 rounds eps_p to 0: no decode constraint binds
    m_beams=4, trials=1, snr_db=[20.0], r_p=1e-17, data=None
)
@example(  # at rho = 1e-9, 1 + s rounds {0, 1} and {0, 1, 2} onto one rate
    m_beams=3, trials=1, snr_db=[-90.0], r_p=1e-10, data=None
)
def test_block_cells_equal_the_exhaustive_search(m_beams, trials, snr_db, r_p, data):
    # every (SNR point, trial) cell of a block, under every strategy,
    # against solving every feasible set of that cell alone
    if data is None:
        g = [[1.0] * m_beams]
        h = [[1.0, 0.7, 0.06931477635546292, 0.5][:m_beams]]
    else:
        gains = st.lists(_GAIN, min_size=m_beams, max_size=m_beams)
        g = [data.draw(gains) for _ in range(trials)]
        h = [data.draw(gains) for _ in range(trials)]
    g_gain, h_gain = np.array(g).T, np.array(h).T
    grid = SystemConfig(m_beams, m_beams, tuple(10.0 ** (x / 10.0) for x in snr_db), r_p, 1.0)
    for strategy in STRATEGIES:
        block = evaluate_scheme2_block(g_gain, h_gain, grid, strategy)
        for s, rho in enumerate(grid.rho):
            cfg = SystemConfig(m_beams, m_beams, rho, r_p, 1.0)
            for t in range(len(g)):
                want = exhaustive_scheme2(_gains(g[t], h[t]), cfg, strategy)
                assert same_choice(block, want, s, t), (strategy, cfg, t)
                # the reference's outage: no set solves, or the rate is short
                chosen, rate = want[:2]
                assert block.outage[s, t] == (not chosen.any() or rate < cfg.r_s)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=4),
    extra_antennas=st.integers(min_value=0, max_value=2),
    metric=st.sampled_from(METRICS),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    cuts=st.lists(st.integers(min_value=1, max_value=23), max_size=6),
)
def test_records_do_not_depend_on_the_block_split(
    m_beams, extra_antennas, metric, seed, cuts
):
    # any split of the trials into blocks gives the records of one block,
    # bit for bit: each trial is drawn from its own seed, and the stacked
    # zero-forcing does per matrix what the single call does
    spec = SweepSpec(
        n_antennas=m_beams + extra_antennas,
        m_beams=m_beams,
        r_p=0.1,
        r_s=1.0,
        snr_grid_db=(-10.0, 10.0, 30.0),
        schemes=SCHEMES,
        metric=metric,
        trials=24,
        seed=seed,
    )
    ((whole, resamples),) = _run_block(([spec], range(24)))
    edges = [0, *sorted(set(cuts)), 24]
    parts = [_run_block(([spec], range(a, b)))[0] for a, b in zip(edges, edges[1:])]
    split = np.concatenate([values for values, _ in parts], axis=-1)
    assert whole.shape == (3, 3, 24)
    assert split.tobytes() == whole.tobytes()
    assert sum(r for _, r in parts) == resamples


def _scalar_selection(g, h, rho, r_p, r_s):
    """Selection on one cell as scalar Python floats, with max, min and
    math.log2: (outage, rate, raw rate, min primary rate, chosen beam)."""
    eps_p = 2.0 ** r_p - 1.0
    beams = range(len(g))
    base = [min(1.0, eps_p / (rho * g_m)) for g_m in g]
    taus, caps, gammas = [], [], []
    for m in beams:
        acc = 0.0
        for j in beams:
            if j != m:
                acc += h[j] * base[j]
        taus.append(acc + 1.0 / rho)
        eta = eps_p * (g[m] + 1.0 / rho) / (g[m] * (1.0 + eps_p))
        if h[m] <= 0.0:
            caps.append(0.0)
        else:
            cap_sic = (h[m] - eps_p * taus[m]) / ((1.0 + eps_p) * h[m])
            caps.append(min(max(0.0, 1.0 - eta), max(0.0, cap_sic)))
        gammas.append(h[m] * caps[m] / taus[m])
    best = max(beams, key=lambda m: (gammas[m], -m))
    h_b, a_s = h[best], caps[best]
    decode = math.log2(1.0 + h_b * (1.0 - a_s) / (h_b * a_s + taus[best]))
    sic_ok = decode >= r_p - 1e-12
    rate = math.log2(1.0 + gammas[best])
    primary = [
        g[m] * (1.0 - a_s) / (g[m] * a_s + 1.0 / rho) if m == best
        else g[m] * base[m] * rho
        for m in beams
    ]
    return (
        not (sic_ok and rate >= r_s),
        rate if sic_ok else 0.0,
        rate,
        min(math.log2(1.0 + x) for x in primary),
        best,
    )


def _scalar_scheme1(g, h, rho, r_p, r_s):
    """Scheme 1 on one cell as scalar Python floats: (outage, rate, raw
    rate, min primary rate)."""
    eps_p = 2.0 ** r_p - 1.0
    alpha_p = [
        min(1.0, eps_p * (g_m + 1.0 / rho) / (g_m * (1.0 + eps_p))) for g_m in g
    ]
    t, acc = 0.0, 0.0
    for h_m, a_p in zip(h, alpha_p):
        t += math.sqrt(h_m * (1.0 - a_p))
    for h_m, a_p in zip(h, alpha_p):
        acc += h_m * a_p
    rate = math.log2(1.0 + t * t / (acc + 1.0 / rho))
    primary = [
        g_m * a_p / (g_m * (1.0 - a_p) + 1.0 / rho) for g_m, a_p in zip(g, alpha_p)
    ]
    return rate < r_s, rate, rate, min(math.log2(1.0 + x) for x in primary)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=8),
    trials=st.integers(min_value=1, max_value=5),
    snr_db=st.lists(
        st.floats(min_value=-30.0, max_value=60.0), min_size=1, max_size=4
    ),
    targets=st.sampled_from([(0.1, 1.0), (1e-9, 0.0), (1.0, 1.0), (8.0, 8.0)]),
    data=st.data(),
)
def test_array_pass_equals_the_scalar_evaluation(
    m_beams, trials, snr_db, targets, data
):
    # random gains, among them h = 0 beams and beams with the same (g, h) as
    # beam 0, whose gammas tie with it exactly; SIC fails at r_p = 1 and 8
    size = m_beams * trials
    g = data.draw(st.lists(_GAIN, min_size=size, max_size=size))
    h = data.draw(
        st.lists(st.one_of(st.just(0.0), _GAIN), min_size=size, max_size=size)
    )
    g_gain = np.array(g).reshape(m_beams, trials)
    h_gain = np.array(h).reshape(m_beams, trials)
    for m in data.draw(st.sets(st.integers(1, 7))):
        if m < m_beams:
            g_gain[m], h_gain[m] = g_gain[0], h_gain[0]
    r_p, r_s = targets
    grid = SystemConfig(m_beams, m_beams, tuple(10.0 ** (x / 10.0) for x in snr_db), r_p, r_s)
    sel = evaluate_selection_block(g_gain, h_gain, grid)
    s1 = evaluate_scheme1_block(g_gain, h_gain, grid)
    sel_primary = sel.primary_rates.min(axis=0)
    s1_primary = s1.primary_rates.min(axis=0)
    for i, rho in enumerate(grid.rho):
        for t in range(trials):
            g_t, h_t = g_gain[:, t].tolist(), h_gain[:, t].tolist()
            want = _scalar_selection(g_t, h_t, rho, r_p, r_s)
            got = (
                bool(sel.outage[i, t]),
                float(sel.secondary_rate[i, t]),
                float(sel.secondary_rate_raw[i, t]),
                float(sel_primary[i, t]),
                int(np.flatnonzero(sel.chosen[:, i, t])[0]),
            )
            assert repr(got) == repr(want), (rho, t)
            want = _scalar_scheme1(g_t, h_t, rho, r_p, r_s)
            got = (
                bool(s1.outage[i, t]),
                float(s1.secondary_rate[i, t]),
                float(s1.secondary_rate_raw[i, t]),
                float(s1_primary[i, t]),
            )
            assert repr(got) == repr(want), (rho, t)
