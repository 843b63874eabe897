"""Properties of scheme 2's set and lane tables and of its incumbents.
The lockstep bisection's premise: each lane's test holds on an interval
[0, t*] of floats; racing's proof that a dropped lane loses its cell rests
on it, and so would any bracket-based speed-up.  And the shortcuts the
tables take are exact: the power bound built on the rank lattice is the
per-set masked sum, the sweep's per-lane eta > 1 flag is its alpha_p > 1
test, the solve's unmasked leading steps are the lockstep that masks and
races every step, and an offer that logs only near-top rates keeps the
incumbents of one that logs every rate."""

import itertools
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from beamshare.beam_aggregation import (
    STRATEGIES,
    _Incumbents,
    _Lanes,
    _SetTable,
    _layout,
)
from beamshare.channel_model import SystemConfig, realize_block

from oracles import full_log_offer, masked_lockstep, summed_power_bound


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


def _random_lanes(rng, m_beams, lanes, cells, tiny):
    # lanes over random sets of every size of an M-slot layout, on random
    # gains in [1e-6, 1e3] (scaled by 1e-24 when tiny, so that the cap at 0
    # falls below the tolerance), etas in [0, 1.2] and tau_d in [1e-3, 10]
    slots = _layout("all_subsets", m_beams)[1]
    h = 10.0 ** rng.uniform(-6.0, 3.0, (m_beams, cells)) * (1e-24 if tiny else 1.0)
    etas = rng.uniform(0.0, 1.2, (m_beams, cells)) * (rng.random((m_beams, cells)) < 0.7)
    tau_d = 10.0 ** rng.uniform(-3.0, 1.0, (len(slots), cells))
    eps_p = float(10.0 ** rng.uniform(-3.0, 0.5))
    table = SimpleNamespace(slots=slots, h=h, etas=etas, tau_d=tau_d, eps_p=eps_p)
    sets = rng.integers(0, len(slots), lanes)
    cell = rng.integers(0, cells, lanes)
    return _Lanes(table, sets, cell), cell


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m_beams=st.integers(min_value=1, max_value=8),
    lanes=st.integers(min_value=1, max_value=40),
    cells=st.integers(min_value=1, max_value=40),
    tiny=st.booleans(),
    floors=st.sampled_from(["none", "near", "random", "inf"]),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
)
def test_solve_is_the_masked_racing_lockstep(m_beams, lanes, cells, tiny, floors, seed):
    # On random lane tables, lanes sharing cells or not, the solve with its
    # unmasked leading steps is the lockstep that masks every step: the
    # same t* bits, iterations and lanes raced out. Floors are no
    # incumbent, a cell's best lane's 1 + SNR moved by a relative step of
    # up to 1e-8, random, or inf, so that whole cells, or every lane, can
    # lose to them before the unmasked steps end.
    rng = np.random.default_rng(seed)
    lanes, cell = _random_lanes(rng, m_beams, lanes, cells, tiny)
    floor = np.full(cells, -np.inf)
    if floors == "near":
        t_star, _, _ = masked_lockstep(lanes, cell, floor)
        best = np.full(cells, 1.0)
        np.fmax.at(best, cell, 1.0 + t_star * t_star / lanes.tau_d)
        floor = best * (1.0 + rng.uniform(-1e-8, 1e-8, cells))
    elif floors == "random":
        floor = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0, cells)
    elif floors == "inf":
        floor = np.full(cells, np.inf)
    want = masked_lockstep(lanes, cell, floor)
    got = lanes.solve(cell, floor)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


# relative steps between a cell's offered 1 + sinr values: exact ties, ulps,
# near-ties inside and at the edge of the 1e-12 window, and clear gaps
_STEPS = [0.0, 2.0 ** -52, -(2.0 ** -52), 3e-13, -3e-13, 1e-12, -1e-12, 2e-12]
_STEPS += [1e-9, -1e-4, 0.5]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    cells=st.integers(min_value=1, max_value=12),
    offers=st.integers(min_value=1, max_value=4),
    rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
)
def test_the_banded_offer_keeps_the_full_log_incumbents(cells, offers, rounds, seed):
    # Rounds of offers of distinct sets (the subsets of 5 beams, so that
    # ties fall to set size, then beam indices), as (offers, cells) tables
    # of sinr with nan (nothing offered) and inf entries, each cell's
    # values exact ties, near-ties and gaps around one value: the offer
    # that logs only its cells' near-top entries leaves every incumbent
    # field bit-equal to the offer that logs each entry.
    rng = np.random.default_rng(seed)
    family = [b for k in range(1, 6) for b in itertools.combinations(range(5), k)]
    table = SimpleNamespace(trial=np.zeros(cells), beams=lambda i, c: family[i])
    banded, full = _Incumbents(table), _Incumbents(table)
    order = np.argsort(rng.random((len(family), cells)), axis=0)
    top = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0, cells)
    for r in range(rounds):
        step = rng.choice(_STEPS, (offers, cells)) * rng.integers(1, 3, (offers, cells))
        sinr = top * (1.0 + step) - 1.0
        sinr[rng.random(sinr.shape) < 0.25] = np.nan
        sinr[rng.random(sinr.shape) < 0.03] = np.inf
        t = rng.random(sinr.shape)
        sets = order[r * offers : (r + 1) * offers]
        banded.offer(sinr, t, sets)
        full_log_offer(full, sinr, t, sets)
        for name in ("rate", "sinr", "t", "set"):
            assert getattr(banded, name).tobytes() == getattr(full, name).tobytes()
