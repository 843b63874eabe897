"""Properties of scheme 2's set and lane tables.  The lockstep bisection's
premise: each lane's test holds on an interval [0, t*] of floats; racing's
proof that a dropped lane loses its cell rests on it, and so would any
bracket-based speed-up.  And the shortcuts the tables take are exact: the
power bound built on the rank lattice is the per-set masked sum, and the
sweep's per-lane eta > 1 flag is its alpha_p > 1 test."""

import numpy as np
from hypothesis import given, settings, strategies as st

from beamshare.beam_aggregation import STRATEGIES, _Lanes, _SetTable
from beamshare.channel_model import SystemConfig, realize_block

from oracles import summed_power_bound


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=8),
    extra_antennas=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    snr_db=st.floats(min_value=-10.0, max_value=50.0),
    targets=st.sampled_from([(0.1, 1.0), (1e-9, 0.0), (2.0, 4.0)]),
    strategy=st.sampled_from(STRATEGIES),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=6),
)
def test_a_lane_that_holds_at_t2_holds_at_every_t1_below(
    m_beams, extra_antennas, seed, snr_db, targets, strategy, fractions
):
    # Every (set, cell) pair of a 3-trial block is one lane. Each lane is
    # tested at fractions of its cap at t = 0 (the bisection's first hi),
    # at its bisection's t*, and at the float neighbours of all of these;
    # sorted per lane, a lane's test may only go from holding to failing.
    cfg = SystemConfig(m_beams + extra_antennas, m_beams, 10.0 ** (snr_db / 10.0), *targets)
    block, = realize_block([cfg], [(seed, t, 0) for t in range(3)])
    table = _SetTable(block.g_gain, block.h_gain, cfg, strategy)
    sets, cells = np.nonzero(np.ones(table.tau_d.shape, dtype=bool))
    lanes = _Lanes(table, sets, cells)
    hi = lanes._cap(np.zeros(lanes.h.shape))
    # each lane its own cell with no incumbent, so none is raced
    t_star, _, _ = lanes.solve(np.arange(len(sets)), np.full(len(sets), -np.inf))
    points = [np.zeros(len(sets)), np.where(np.isnan(t_star), 0.0, t_star)]
    points += [f * hi for f in fractions]
    points += [np.nextafter(t, sign * np.inf) for t in points for sign in (-1, 1)]
    t = np.sort(np.maximum(np.array(points), 0.0), axis=0)
    held = np.array([lanes.holds(row) for row in t])
    assert not (held[1:] & ~held[:-1]).any()
    # t* itself holds wherever the bisection found one
    solved = ~np.isnan(t_star)
    assert lanes.holds(np.where(solved, t_star, 0.0))[solved].all()


def _block_table(m_beams, trials, snr_db, r_p, seed, strategy):
    cfg = SystemConfig(m_beams, m_beams, tuple(10.0 ** (s / 10.0) for s in snr_db), r_p, 1.0)
    block, = realize_block([cfg], [(seed, t, 0) for t in range(trials)])
    return _SetTable(block.g_gain, block.h_gain, cfg, strategy)


_BLOCKS = dict(
    trials=st.integers(min_value=1, max_value=5),
    snr_db=st.lists(st.floats(min_value=-10.0, max_value=50.0), min_size=1, max_size=3),
    r_p=st.sampled_from([1e-9, 0.1, 2.0]),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    layout=st.one_of(
        st.tuples(st.integers(min_value=1, max_value=8), st.sampled_from(STRATEGIES)),
        st.tuples(
            st.integers(min_value=9, max_value=16), st.just("prefixes_plus_singletons")
        ),
    ),
    **_BLOCKS,
)
def test_the_lattice_bound_is_the_masked_per_set_sum(layout, trials, snr_db, r_p, seed):
    # B of each set, its parent's B plus its last rank's term, is the sum
    # over its members in ascending rank from 0.0, bit for bit, nan (r_p
    # 2.0 at low SNR) where a beam has eta > 1. A set's parent is the set
    # without its last rank and is listed before it.
    m_beams, strategy = layout
    table = _block_table(m_beams, trials, snr_db, r_p, seed, strategy)
    got = table.power_bound()
    want = summed_power_bound(table.h, table.etas, table.members)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()
    for i, ranks in enumerate(table.slots.tolist()):
        ranks = [r for r in ranks if r >= 0]
        p = table.parent[i]
        if len(ranks) == 1:
            assert p == -1
        else:
            assert 0 <= p < i
            assert [r for r in table.slots[p].tolist() if r >= 0] == ranks[:-1]


def _written_fits(lanes, t):
    # the sweep with its alpha_p > 1 test written out: min_primary_power on
    # every lane, alpha_p and where no slot needs r > h or alpha_p > 1
    u, acc = t * t, np.zeros(t.shape)
    required, alpha_p = np.empty(lanes.h.shape), np.empty(lanes.h.shape)
    for k in range(len(lanes.h) - 1, -1, -1):
        required[k] = lanes.eps_p * (acc + u + lanes.tau_d)
        alpha_p[k] = np.fmax(lanes.etas[k], required[k] / lanes.h[k])
        acc = acc + lanes.h[k] * alpha_p[k]
    return alpha_p, ~((required > lanes.h).any(0) | (alpha_p > 1.0).any(0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from(STRATEGIES),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=4),
    keep=st.integers(min_value=0, max_value=2 ** 64 - 1),
    **_BLOCKS,
)
def test_the_per_lane_flag_keeps_the_fit_test(
    m_beams, strategy, fractions, keep, trials, snr_db, r_p, seed
):
    # Lanes over every (set, cell) pair, sets with a beam of eta > 1
    # included, swept at t = 0 and at fractions of each lane's cap at 0:
    # the sweep's fits equals the written-out test, alpha_p bit for bit,
    # on the whole table and on a random part of it taken by _take.
    table = _block_table(m_beams, trials, snr_db, r_p, seed, strategy)
    sets, cells = np.nonzero(np.ones(table.tau_d.shape, dtype=bool))
    lanes = _Lanes(table, sets, cells)
    part = np.random.default_rng(keep).random(len(sets)) < 0.5
    hi = lanes._cap(np.zeros(lanes.h.shape))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in [np.zeros(len(sets))] + [f * hi for f in fractions]:
            for some, at in ((lanes, t), (lanes._take(part), t[part])):
                alpha_p, fits = some._sweep(at)
                want_ap, want_fits = _written_fits(some, at)
                assert np.array_equal(fits, want_fits)
                assert alpha_p.tobytes() == want_ap.tobytes()
