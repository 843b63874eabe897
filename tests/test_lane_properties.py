"""The premise of scheme 2's lockstep bisection, as a property of its lane
table: each lane's test holds on an interval [0, t*] of floats.  Racing's
proof that a dropped lane loses its cell rests on it, and so would any
bracket-based speed-up."""

import numpy as np
from hypothesis import given, settings, strategies as st

from beamshare.beam_aggregation import STRATEGIES, _Lanes, _SetTable
from beamshare.channel_model import SystemConfig, realize_block


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
