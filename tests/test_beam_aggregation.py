import itertools
import math

import numpy as np
import pytest

from beamshare import beam_aggregation
from beamshare.beam_aggregation import (
    STRATEGIES,
    AggregationCandidate,
    _Lanes,
    _SetTable,
    _layout,
    certify_solution,
    enumerate_candidates,
    evaluate_scheme1_block,
    evaluate_scheme2,
    evaluate_scheme2_block,
    min_primary_power,
    oracle_grid_solver,
    solve_problem4,
)
from beamshare.beam_selection import evaluate_selection_block
from beamshare.channel_model import (
    ChannelBlock,
    SystemConfig,
    TrialSeed,
    realize,
    realize_block,
)
from beamshare.montecarlo import SweepSpec, snr_db_to_linear
from beamshare.power_allocation import alpha_s_cap, eta, log2_each, mode_i_alpha_p
from beamshare.validation import exhaustive_scheme2, random_feasible_instance

from oracles import same_choice, written_tau

# closed-form optimum of the two-beam instance h=(2,1), g=(1,1), rho=10,
# eps_p=1 (both decode constraints tight at the fixed point)
U_REF = 0.9 * (3.0 + 2.0 * math.sqrt(2.0)) / (4.0 + 2.0 * math.sqrt(2.0))
WORKED = AggregationCandidate(
    beams=(0, 1), h=(2.0, 1.0), etas=(0.55, 0.55), tau_d=0.1, eps_p=1.0
)


def _col(values):
    # hand-picked gains of one trial, as the (M, 1) array a block pass takes
    return np.array(values, dtype=float)[:, None]


def _chan(g_gain, h_gain):
    # a block of one trial with hand-picked gains; the schemes and the set
    # enumeration read only the gains, so the matrices are left out
    return ChannelBlock(None, None, None, _col(g_gain), _col(h_gain), [0])


def _chosen(cells, s=0, t=0):
    return tuple(np.flatnonzero(cells.chosen[:, s, t]).tolist())


def test_enumerate_counts_and_order():
    cfg = SystemConfig(3, 3, 10.0, 1.0, 1.0)
    chan = _chan([1.0, 1.0, 1.0], [0.5, 2.0, 1.0])
    plus = enumerate_candidates(chan, cfg, "prefixes_plus_singletons")
    # the first M candidates are the prefixes, strongest k beams for k = 1..M
    assert [c.beams for c in plus] == [(1,), (1, 2), (1, 2, 0), (2,), (0,)]
    everything = enumerate_candidates(chan, cfg, "all_subsets")
    assert len(everything) == 7
    for cand in everything:
        assert cand.h == tuple(chan.h_gain[b, 0] for b in cand.beams)
        assert list(cand.h) == sorted(cand.h, reverse=True)
        assert cand.etas == tuple(eta(1.0, cfg.rho, cfg.eps_p) for _ in cand.beams)
        assert cand.eps_p == cfg.eps_p


def test_enumerate_single_beam_dedupes():
    cfg = SystemConfig(2, 1, 10.0, 1.0, 1.0)
    chan = _chan([1.0], [1.0])
    assert len(enumerate_candidates(chan, cfg, "prefixes_plus_singletons")) == 1


def test_enumerate_flags_infeasible():
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    chan = _chan([1.0, 0.05], [2.0, 1.0])  # beam 1 below eps_p/rho
    for cand in enumerate_candidates(chan, cfg, "all_subsets"):
        assert cand.feasible == (1 not in cand.beams)


def test_enumerate_rejects_unknown_strategy_and_large_subsets():
    # the layout owns the strategy rule, so a spec that runs scheme 2, the
    # block pass and the candidate list reject a bad strategy in one wording
    for strategy, m in (("everything", 2), ("prefixes", 2), ("all_subsets", 9)):
        with pytest.raises(ValueError) as want:
            _layout(strategy, m)
        cfg = SystemConfig(m, m, 10.0, 1.0, 1.0)
        chan = _chan([1.0] * m, [1.0] * m)
        calls = (
            lambda: SweepSpec(
                n_antennas=m, m_beams=m, r_p=1.0, r_s=1.0, snr_grid_db=(10.0,),
                schemes=("scheme2",), metric="outage", trials=1, seed=0,
                candidate_strategy=strategy,
            ),
            lambda: evaluate_scheme2_block(chan.g_gain, chan.h_gain, cfg, strategy),
            lambda: enumerate_candidates(chan, cfg, strategy),
        )
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
    assert str(want.value) == "candidate_strategy all_subsets is limited to m_beams <= 8"
    with pytest.raises(ValueError, match=r"^candidate_strategy must be one of \("):
        _layout("everything", 2)


def test_enumerate_takes_one_trial():
    # candidates belong to one trial: a block of three raises rather than
    # listing trial 0's sets
    cfg = SystemConfig(3, 3, 10.0, 0.1, 1.0)
    block, = realize_block([cfg], [(7, t, 0) for t in range(3)])
    with pytest.raises(ValueError, match="one trial"):
        enumerate_candidates(block, cfg, "all_subsets")


def test_enumerate_takes_one_snr_point():
    # candidates belong to one SNR point: a grid config raises rather than
    # listing its first point's sets; a 1-tuple is that one point
    chan = realize(SystemConfig(2, 2, 10.0, 0.1, 1.0), TrialSeed(5, 0))
    with pytest.raises(ValueError, match="one SNR point"):
        enumerate_candidates(chan, SystemConfig(2, 2, (10.0, 1000.0), 0.1, 1.0), "all_subsets")
    one = enumerate_candidates(chan, SystemConfig(2, 2, (10.0,), 0.1, 1.0), "all_subsets")
    assert one == enumerate_candidates(chan, SystemConfig(2, 2, 10.0, 0.1, 1.0), "all_subsets")


def _listed_candidates(chan, cfg, strategy):
    # enumerate_candidates written set by set: combinations of the
    # descending-h order, written_tau() of each set, deduplicated in listing order
    m = cfg.m_beams
    h, g = chan.h_gain[:, 0].tolist(), chan.g_gain[:, 0].tolist()
    order = sorted(range(m), key=lambda i: (-h[i], i))
    if strategy == "all_subsets":
        sets = [c for k in range(1, m + 1) for c in itertools.combinations(order, k)]
    else:
        sets = [tuple(order[:k]) for k in range(1, m + 1)] + [(i,) for i in order]
    base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p).tolist()
    etas = [eta(x, cfg.rho, cfg.eps_p) for x in g]
    return [
        AggregationCandidate(
            beams=b,
            h=tuple(h[i] for i in b),
            etas=tuple(etas[i] for i in b),
            tau_d=written_tau(b, h, base, cfg.rho),
            eps_p=cfg.eps_p,
        )
        for b in dict.fromkeys(sets)
    ]


def _table(chan, cfg, strategy="all_subsets"):
    return _SetTable(chan.g_gain, chan.h_gain, cfg, strategy)


def _counts(chan, cfg, strategy="all_subsets"):
    return evaluate_scheme2_block(chan.g_gain, chan.h_gain, cfg, strategy).counts


def test_subset_lattice_matches_the_per_set_sums():
    # The set sums, built as arrays over all sets at once, must be the
    # per-set sums bit for bit: tau_d as written_tau() adds it, and the bound as a
    # sequential sum in candidate order. repr spells every float exactly.
    infeasible_sets = 0
    for m in range(1, 9):
        for t in range(6):
            cfg = SystemConfig(m, m, 10.0 ** (t - 2), (0.1, 1.0)[t % 2], 1.0)
            chan = realize(cfg, TrialSeed(83, 10 * m + t))
            for strategy in STRATEGIES:
                got = enumerate_candidates(chan, cfg, strategy)
                assert [repr(c) for c in got] == [
                    repr(c) for c in _listed_candidates(chan, cfg, strategy)
                ]
            h, g = chan.h_gain[:, 0].tolist(), chan.g_gain[:, 0].tolist()
            base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p).tolist()
            table = _table(chan, cfg)
            bounds = table.power_bound()[:, 0].tolist()
            assert len(table.slots) == 2 ** m - 1
            for i in range(len(table.slots)):
                cand = table.candidate(i, 0)
                want = written_tau(cand.beams, h, base, cfg.rho)
                assert repr(table.tau_d[i, 0].item()) == repr(want)
                if not cand.feasible:
                    assert math.isnan(bounds[i])
                    infeasible_sets += 1
                    continue
                bound = 0.0
                for h_k, e_k in zip(cand.h, cand.etas):
                    bound += math.sqrt(h_k * (1.0 - e_k))
                assert repr(bounds[i]) == repr(bound)
    assert infeasible_sets > 0


def _lane_results(table, sets, cells, floor=None):
    """t* and the split, in slots, of each (sets[l], cells[l]) lane of one
    _Lanes, racing within the table's cells above floor; with no floor,
    each lane is its own cell with no incumbent, and none may be raced."""
    lanes = _Lanes(table, sets, cells)
    if floor is None:
        t_star, _, raced = lanes.solve(np.arange(len(sets)), np.full(len(sets), -np.inf))
        assert raced == 0
    else:
        t_star, _, raced = lanes.solve(cells, floor)
    alpha_p, x = lanes.split(np.where(np.isnan(t_star), 0.0, t_star))
    return t_star, alpha_p, x, raced


def _same_lane(got, l, want, size):
    # lane l of _lane_results against solve_problem4, bit for bit
    t_star, alpha_p, x = got[:3]
    if want.status == "infeasible":
        return bool(np.isnan(t_star[l]))
    lane = (t_star[l].item(), alpha_p[-size:, l].tolist(), x[-size:, l].tolist())
    return repr(lane) == repr((want.t_star, list(want.alpha_p), list(want.x)))


def test_flat_lanes_mix_set_sizes_in_the_callers_order():
    # At M = 8, every set of 2..8 beams of three draws at two SNR points
    # shares one _Lanes, shuffled so sizes interleave; each 7- and 8-beam
    # set is also solved as a lane alone, where numpy would sum the cap's
    # 8 slots pairwise, not in order. Each lane's t* and split must be
    # solve_problem4's bit for bit.
    cfg = SystemConfig(8, 8, (1e2, 1e4), 0.1, 1.0)
    block, = realize_block([cfg], [(41, t, 0) for t in range(3)])
    table = _SetTable(block.g_gain, block.h_gain, cfg, "all_subsets")
    sizes = table.members.sum(axis=1)
    sets, cells = np.nonzero(np.broadcast_to(sizes[:, None] > 1, table.tau_d.shape))
    order = np.random.default_rng(3).permutation(len(sets))
    sets, cells = sets[order], cells[order]
    mixed = _lane_results(table, sets, cells)
    optimal = np.zeros(9, dtype=int)
    for l, (i, c) in enumerate(zip(sets.tolist(), cells.tolist())):
        want = solve_problem4(table.candidate(i, c))
        assert _same_lane(mixed, l, want, sizes[i])
        if sizes[i] >= 7:
            alone = _lane_results(table, sets[l : l + 1], cells[l : l + 1])
            assert _same_lane(alone, 0, want, sizes[i])
        optimal[sizes[i]] += want.status == "optimal"
    assert (optimal[2:] > 0).all(), optimal


def test_a_lane_alone_in_its_cell_races_nothing():
    # One multi-beam set per (SNR point, trial) cell of an M = 5 block, each
    # lane under the table's own cell, with no incumbent (floor 1 + 0): no
    # lane shares a cell, so none is raced, and every lane is
    # solve_problem4's bit for bit.
    cfg = SystemConfig(5, 5, (1e1, 1e3), 0.1, 1.0)
    block, = realize_block([cfg], [(43, t, 0) for t in range(20)])
    table = _SetTable(block.g_gain, block.h_gain, cfg, "all_subsets")
    multi = np.flatnonzero(table.members.sum(axis=1) > 1)
    cells = np.arange(len(table.trial))
    sets = np.random.default_rng(5).choice(multi, len(cells))
    got = _lane_results(table, sets, cells, np.ones(len(cells)))
    assert got[3] == 0
    for l, (i, c) in enumerate(zip(sets.tolist(), cells.tolist())):
        want = solve_problem4(table.candidate(i, c))
        assert _same_lane(got, l, want, table.members[i].sum())


def test_raced_lanes_lose_their_cell():
    # Every multi-beam set of each cell of an M = 5 block races within its
    # cell, in shuffled lane order. The race drops lanes; each survivor is
    # solve_problem4's bit for bit, and each raced lane's own solution
    # ranks strictly below the best rate in its cell.
    cfg = SystemConfig(5, 5, (1e1, 1e3), 0.1, 1.0)
    block, = realize_block([cfg], [(47, t, 0) for t in range(4)])
    table = _SetTable(block.g_gain, block.h_gain, cfg, "all_subsets")
    sizes = table.members.sum(axis=1)
    sets, cells = np.nonzero(np.broadcast_to(sizes[:, None] > 1, table.tau_d.shape))
    order = np.random.default_rng(7).permutation(len(sets))
    sets, cells = sets[order], cells[order]
    got = _lane_results(table, sets, cells, np.ones(len(table.trial)))
    want = [solve_problem4(table.candidate(i, c)) for i, c in zip(sets, cells)]
    best = np.zeros(len(table.trial))
    np.maximum.at(best, cells, [w.objective_rate for w in want])
    raced = 0
    for l, (w, c) in enumerate(zip(want, cells)):
        if w.status == "optimal" and np.isnan(got[0][l]):
            raced += 1
            assert w.objective_rate < best[c]
        else:
            assert _same_lane(got, l, w, sizes[sets[l]])
    assert raced == got[3] > 0


def test_min_primary_power_worked_recursion():
    # backward sweep at the optimal amplitude: both shares are u + tau
    ap = min_primary_power(WORKED, math.sqrt(U_REF))
    assert ap == pytest.approx([U_REF + 0.1, U_REF + 0.1], abs=1e-12)


def test_min_primary_power_floor_and_overflow():
    ap = min_primary_power(WORKED, 0.0)
    # at t=0 the tau term dominates: max(eta, eps (acc + tau)/h)
    assert ap == pytest.approx([0.55, 0.55], abs=1e-12)
    assert min_primary_power(WORKED, 10.0) is None


def test_min_primary_power_eta_floor():
    cand = AggregationCandidate(
        beams=(0, 1), h=(5.0, 4.0), etas=(0.9, 0.9), tau_d=0.01, eps_p=0.1
    )
    ap = min_primary_power(cand, 0.0)
    assert ap == [0.9, 0.9]


def test_solve_worked_instance_closed_form():
    sol = solve_problem4(WORKED)
    assert sol.status == "optimal"
    assert sol.t_star ** 2 == pytest.approx(U_REF, abs=1e-9)
    assert sol.alpha_p == pytest.approx([U_REF + 0.1, U_REF + 0.1], abs=1e-8)
    assert [x * x for x in sol.x] == pytest.approx([0.9 - U_REF, 0.9 - U_REF], abs=1e-8)
    assert sol.objective_rate == pytest.approx(math.log2(1.0 + U_REF / 0.1), abs=1e-8)
    assert certify_solution(WORKED, sol) == []
    # both decode constraints are tight at the optimum
    for k in range(2):
        tail = sum(WORKED.h[j] * sol.alpha_p[j] for j in range(k + 1, 2))
        slack = WORKED.h[k] * sol.alpha_p[k] - (tail + sol.t_star ** 2 + 0.1)
        assert abs(slack) < 1e-8


def test_solve_calls_min_primary_power_once_per_bisection_step(monkeypatch):
    # The plain bisection sweeps once at t = 0, then once per bisection
    # step: 34 calls, alpha_p being the sweep at t*. The patch also checks
    # that the name is looked up per call, as the benchmark tracer needs.
    calls = []
    original = beam_aggregation.min_primary_power

    def counting(candidate, t):
        calls.append(t)
        return original(candidate, t)

    monkeypatch.setattr(beam_aggregation, "min_primary_power", counting)
    sol = solve_problem4(WORKED)
    hi = sum(math.sqrt(v) for v in WORKED.h)
    steps = math.ceil(math.log2(hi / (1e-10 * (1.0 + hi))))
    assert steps == 33
    assert len(calls) == steps + 1
    assert calls[0] == 0.0
    assert sol.alpha_p == tuple(original(WORKED, sol.t_star))


def test_solve_singleton_matches_selection_cap_exactly():
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    for t in range(300):
        chan = realize(cfg, TrialSeed(91, t))
        h = chan.h_gain[:, 0].tolist()
        g = chan.g_gain[:, 0].tolist()
        base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p)
        for cand in enumerate_candidates(chan, cfg, "prefixes_plus_singletons"):
            if len(cand.beams) != 1:
                continue
            m = cand.beams[0]
            expected = alpha_s_cap(
                h[m], eta(g[m], cfg.rho, cfg.eps_p), written_tau((m,), h, base, cfg.rho), cfg.eps_p
            )
            sol = solve_problem4(cand)
            got = sol.x[0] ** 2 if sol.status == "optimal" else 0.0
            assert got == pytest.approx(expected, abs=1e-9)


def test_solve_infeasible_cases():
    # interference floor too high for the strongest beam
    cand = AggregationCandidate(
        beams=(0, 1), h=(2.0, 1.0), etas=(0.5, 0.5), tau_d=50.0, eps_p=1.0
    )
    assert solve_problem4(cand).status == "infeasible"
    flagged = AggregationCandidate(
        beams=(0,), h=(2.0,), etas=(1.2,), tau_d=0.1, eps_p=1.0
    )
    assert not flagged.feasible
    assert solve_problem4(flagged).status == "infeasible"
    zero_gain = AggregationCandidate(
        beams=(0,), h=(0.0,), etas=(0.5,), tau_d=0.1, eps_p=1.0
    )
    assert zero_gain.feasible
    assert solve_problem4(zero_gain).status == "infeasible"


def test_cap_is_nonincreasing():
    rng = np.random.default_rng(37)
    for _ in range(50):
        cand = random_feasible_instance(rng, 2)
        last = math.inf
        for t in np.linspace(0.0, sum(math.sqrt(v) for v in cand.h), 40):
            ap = min_primary_power(cand, float(t))
            cap = (
                -math.inf
                if ap is None
                else sum(math.sqrt(v * (1.0 - a)) for v, a in zip(cand.h, ap))
            )
            assert cap <= last + 1e-12
            last = cap


def test_certifier_catches_violations():
    sol = solve_problem4(WORKED)
    broken = type(sol)(
        alpha_p=(0.5, sol.alpha_p[1]),  # drops the first decode constraint
        x=sol.x,
        t_star=sol.t_star,
        objective_rate=sol.objective_rate,
        status="optimal",
    )
    assert certify_solution(WORKED, broken)


def test_oracle_agreement_worked_instance():
    sol = solve_problem4(WORKED)
    oracle = oracle_grid_solver(WORKED, 1e-3)
    budget = 2.0 * 1e-3 * (math.sqrt(2.0) + 1.0)
    assert oracle.status == "optimal"
    assert abs(sol.t_star - oracle.t_star) <= budget
    assert abs(sol.t_star - oracle.t_star) <= 5e-3  # coarse sanity bound
    assert certify_solution(WORKED, oracle) == []


def test_oracle_resolution_one_examines_corners():
    # at resolution 1 only the {0,1}-corners exist; replicate by hand
    cand, h = WORKED, WORKED.h
    best = -1.0
    for x0 in (0.0, 1.0):
        for x1 in (0.0, 1.0):
            t = math.sqrt(h[0]) * x0 + math.sqrt(h[1]) * x1
            ap = min_primary_power(cand, t)
            if ap is None:
                continue
            if all(a <= 1.0 - x * x for a, x in zip(ap, (x0, x1))):
                best = max(best, t)
    oracle = oracle_grid_solver(cand, 1.0)
    assert oracle.t_star == pytest.approx(best)


def test_oracle_infeasible_candidate():
    cand = AggregationCandidate(
        beams=(0, 1), h=(2.0, 1.0), etas=(0.5, 0.5), tau_d=50.0, eps_p=1.0
    )
    assert oracle_grid_solver(cand, 0.01).status == "infeasible"


def _dense_oracle(candidate, resolution):
    # oracle_grid_solver as a scan of every grid point, in chunks of the
    # first axis, keeping the first best point in C order
    h, eps_p, d = candidate.h, candidate.eps_p, len(candidate.h)
    ap0 = min_primary_power(candidate, 0.0)
    sqrt_h = [math.sqrt(h_k) for h_k in h]
    axes = []
    for k in range(d):
        axis = np.arange(0.0, 1.0 + 0.5 * resolution, resolution)
        axes.append(axis[axis <= math.sqrt(1.0 - ap0[k]) + 1e-12])
    best_t, best_x = -1.0, None
    for start in range(0, len(axes[0]), 7):
        coords = [axes[0][start : start + 7]] + axes[1:]
        xs = np.meshgrid(*coords, indexing="ij")
        t = sum(sqrt_h[k] * xs[k] for k in range(d))
        u = t * t
        feasible = np.ones(t.shape, dtype=bool)
        acc = np.zeros(t.shape)
        for k in range(d - 1, -1, -1):
            a = np.maximum(candidate.etas[k], eps_p * (acc + u + candidate.tau_d) / h[k])
            feasible &= a <= 1.0 - xs[k] * xs[k]
            acc += h[k] * a
        if not feasible.any():
            continue
        t_masked = np.where(feasible, t, -np.inf)
        flat = int(np.argmax(t_masked))
        if t_masked.flat[flat] > best_t:
            idx = np.unravel_index(flat, t.shape)
            best_t = float(t_masked.flat[flat])
            best_x = tuple(float(coords[k][idx[k]]) for k in range(d))
    return best_t, best_x


def test_oracle_search_equals_the_dense_scan():
    # the binary search over the last axis finds the dense scan's point,
    # bit for bit, on random instances at a coarse resolution; some have
    # the t = 0 pruning cut an axis short
    rng = np.random.default_rng(43)
    for set_size, resolution, count in ((1, 1e-2, 10), (2, 4e-3, 40), (3, 2e-2, 40)):
        for _ in range(count):
            cand = random_feasible_instance(rng, set_size)
            oracle = oracle_grid_solver(cand, resolution)
            assert (oracle.t_star, oracle.x) == _dense_oracle(cand, resolution)
    oracle = oracle_grid_solver(WORKED, 0.05)
    assert (oracle.t_star, oracle.x) == _dense_oracle(WORKED, 0.05)


def test_oracle_random_agreement():
    rng = np.random.default_rng(41)
    plans = ((2, 1e-3, 12), (3, 2e-3, 4))
    for set_size, resolution, count in plans:
        for _ in range(count):
            cand = random_feasible_instance(rng, set_size)
            sol = solve_problem4(cand)
            oracle = oracle_grid_solver(cand, resolution)
            sum_sqrt = sum(math.sqrt(v) for v in cand.h)
            assert oracle.status == "optimal"
            assert abs(sol.t_star - oracle.t_star) <= 2.0 * resolution * sum_sqrt
            assert certify_solution(cand, sol) == []


def test_scheme1_worked_values():
    # one beam: alpha = (0.55, 0.45), signal 2*0.45 over 2*0.55 + 1/rho
    one_cfg = SystemConfig(1, 1, 10.0, 1.0, 1.0)
    one = evaluate_scheme1_block(_col([1.0]), _col([2.0]), one_cfg)
    rate = one.secondary_rate.item()
    assert rate == pytest.approx(math.log2(1.0 + 0.9 / 1.2), abs=1e-12)
    assert _chosen(one) == (0,)
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    both = evaluate_scheme1_block(_col([1.0, 1.0]), _col([2.0, 1.0]), cfg)
    coherent = (math.sqrt(0.9) + math.sqrt(0.45)) ** 2
    assert both.secondary_rate.item() == pytest.approx(
        math.log2(1.0 + coherent / 1.75), abs=1e-12
    )
    assert _chosen(both) == (0, 1)
    assert not both.outage.item()  # 1.32 BPCU > r_s = 1


def test_scheme1_blocked_channel():
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1_block(_col([0.05, 0.05]), _col([2.0, 1.0]), cfg)
    assert out.secondary_rate.item() == 0.0
    assert out.outage.item()
    assert np.all(out.alpha_s == 0.0)


def test_scheme2_worked_instance_beats_selection():
    g, h = _col([1.0, 1.0]), _col([2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme2_block(g, h, cfg, "prefixes_plus_singletons")
    assert _chosen(out) == (0, 1)
    rate = out.secondary_rate.item()
    assert rate == pytest.approx(math.log2(1.0 + U_REF / 0.1), abs=1e-8)
    sel = evaluate_selection_block(g, h, cfg)
    assert rate > sel.secondary_rate.item()
    assert not out.outage.item()


def test_scheme2_blocked_channel():
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme2_block(_col([0.05, 0.05]), _col([2.0, 1.0]), cfg)
    assert _chosen(out) == ()
    assert out.secondary_rate.item() == 0.0
    assert out.outage.item()
    assert np.all(out.alpha_s == 0.0)


def test_scheme2_dominates_selection_pointwise():
    # 1,000 draws, scored by each scheme as one block
    cfg = SystemConfig(4, 4, 100.0, 0.1, 1.0)
    block, = realize_block([cfg], [(97, t, 0) for t in range(1000)])
    sel = evaluate_selection_block(block.g_gain, block.h_gain, cfg).secondary_rate[0]
    agg = evaluate_scheme2_block(
        block.g_gain, block.h_gain, cfg, "prefixes_plus_singletons"
    ).secondary_rate[0]
    for t, (sel_rate, agg_rate) in enumerate(zip(sel.tolist(), agg.tolist())):
        assert agg_rate >= sel_rate, f"draw {t}"
    strictly_better = int(np.count_nonzero(agg > sel))
    assert strictly_better > 0


def test_scheme2_deterministic():
    cfg = SystemConfig(4, 4, 31.6, 0.5, 1.0)
    chan = realize(cfg, TrialSeed(101, 3))
    a = evaluate_scheme2(chan, cfg)
    b = evaluate_scheme2(chan, cfg)
    assert a.secondary_rate.item() == b.secondary_rate.item()
    assert _chosen(a) == _chosen(b)


def test_scheme2_set_search_makes_a_fifth_of_the_exhaustive_calls():
    # One N = M = 8 all_subsets draw at 20 dB. Solving every candidate
    # solves 247 multi-beam sets; the pruned search must solve at most a
    # fifth of the 255 sets. All 247 are ranked (none fits no alpha_p);
    # the first round takes the 8 best-bound sets as lanes, of which the
    # race leaves one, the winner, and the next round's first bound ends
    # the visit.
    cfg = SystemConfig(8, 8, 100.0, 0.1, 1.0)
    chan = realize(cfg, TrialSeed(0, 0))
    assert sum(c.feasible for c in enumerate_candidates(chan, cfg, "all_subsets")) == 255
    counts = _counts(chan, cfg)
    assert counts == dict(
        ranked=247,
        bound_drops=239,
        t_r_drops=0,
        lanes=8,
        raced=7,
        rounds=2,
        iterations=33,
    )
    assert counts["lanes"] <= 255 / 5
    out = evaluate_scheme2(chan, cfg, "all_subsets")
    assert same_choice(out, exhaustive_scheme2(chan, cfg, "all_subsets"))


def test_scheme2_search_counts_add_up():
    # every ranked multi-beam set is dropped by its bound, dropped by the
    # t_R test or solved as a lane, on every cell of a block
    cfg = SystemConfig(6, 6, 10.0, 0.1, 1.0)
    chans = [realize(cfg, TrialSeed(3, t)) for t in range(20)]
    g = np.concatenate([c.g_gain for c in chans], axis=1)
    h = np.concatenate([c.h_gain for c in chans], axis=1)
    grid = SystemConfig(6, 6, tuple(10.0 ** x for x in (0.0, 1.0, 2.0, 3.0)), 0.1, 1.0)
    for strategy in STRATEGIES:
        counts = evaluate_scheme2_block(g, h, grid, strategy).counts
        assert counts["ranked"] == (
            counts["bound_drops"] + counts["t_r_drops"] + counts["lanes"]
        )
        assert counts["rounds"] >= 1 and counts["iterations"] >= 33


def _tables_built(monkeypatch, g_gain, h_gain, cfg):
    # the counts of an all_subsets block pass and the _Lanes tables it
    # builds, before its split is read and after reading alpha_p
    built = []
    init = _Lanes.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_Lanes, "__init__", counting)
    cells = evaluate_scheme2_block(g_gain, h_gain, cfg, "all_subsets")
    before = len(built)
    cells.alpha_p
    return cells.counts, before, len(built)


def test_scheme2_builds_one_lane_table_per_round(monkeypatch):
    # A round with visited pairs sweeps them at t_R and solves the survivors
    # on one _Lanes table, and the winners' split builds one more, on its
    # first read only. The N = M = 8 draw above visits one round: 1 table,
    # 2 once the split is read. The benchmark's dense_m8 block (seed 0,
    # trials 0-9, 0:40:5 dB) visits pairs in 7 of its 8 rounds and solves
    # lanes in 2 of them: 7 tables, 8 with the split, where a table for the
    # t_R test and another for the solve made 10 with the split. The counts
    # are those of the two-table rounds.
    cfg = SystemConfig(8, 8, 100.0, 0.1, 1.0)
    chan = realize(cfg, TrialSeed(0, 0))
    assert _tables_built(monkeypatch, chan.g_gain, chan.h_gain, cfg) == (
        dict(
            ranked=247, bound_drops=239, t_r_drops=0, lanes=8, raced=7, rounds=2, iterations=33
        ),
        1,
        2,
    )
    grid = SystemConfig(8, 8, tuple(snr_db_to_linear(x) for x in range(0, 45, 5)), 0.1, 1.0)
    block, = realize_block([grid], [(0, t, 0) for t in range(10)])
    assert _tables_built(monkeypatch, block.g_gain, block.h_gain, grid) == (
        dict(
            ranked=17879,
            bound_drops=16813,
            t_r_drops=407,
            lanes=659,
            raced=567,
            rounds=8,
            iterations=66,
        ),
        7,
        8,
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scheme2_held_rates_are_the_log2_of_its_sinr(strategy):
    # the outcome takes the rates the search already holds; they must be
    # log2_each(1 + sinr) bit for bit, 0.0 on a cell with no winner (every
    # set infeasible, so sinr 0), which low SNR points and high r_p give
    rng = np.random.default_rng(31)
    empty = 0
    for k in range(40):
        m = int(rng.integers(1, 7))
        grid = tuple(snr_db_to_linear(x) for x in sorted(rng.uniform(-30.0, 40.0, 3)))
        cfg = SystemConfig(m, m, grid, float(rng.uniform(0.05, 3.0)), 1.0)
        block, = realize_block([cfg], [(k, t, 0) for t in range(5)])
        cells = evaluate_scheme2_block(block.g_gain, block.h_gain, cfg, strategy)
        assert cells.rate is not None
        want = log2_each(1.0 + cells.sinr)
        assert cells.secondary_rate_raw.shape == want.shape
        assert cells.secondary_rate_raw.tobytes() == want.tobytes()
        empty += int((~cells.chosen.any(axis=0)).sum())
    assert empty > 0


def test_taken_lanes_are_the_lanes_built_from_the_kept_pairs():
    # A round solves the lanes that survive its t_R sweep on the same table,
    # compressed by _take: that must hold the arrays a table built from the
    # kept pairs alone holds, byte for byte, each slot's row contiguous.
    cfg = SystemConfig(4, 4, (1e1, 1e3), 0.1, 1.0)
    block, = realize_block([cfg], [(53, t, 0) for t in range(6)])
    table = _SetTable(block.g_gain, block.h_gain, cfg, "all_subsets")
    sets, cells = np.nonzero(np.ones(table.tau_d.shape, dtype=bool))
    rng = np.random.default_rng(11)
    order = rng.permutation(len(sets))
    sets, cells = sets[order], cells[order]
    keep = rng.random(len(sets)) < 0.5
    assert 0 < keep.sum() < len(keep)
    taken = _Lanes(table, sets, cells)._take(keep)
    built = _Lanes(table, sets[keep], cells[keep])
    for name in ("hc", "h", "etas", "tau_d"):
        got, want = getattr(taken, name), getattr(built, name)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert taken.eps_p == built.eps_p


def test_scheme2_solves_a_set_tied_with_the_incumbent(monkeypatch):
    # beams 0 and 2 are twins, so {0, 1} and {1, 2} are the same program and
    # tie exactly. Visited one set per round, {1, 2} comes after the {0, 1}
    # incumbent and still gets a full solve (2 lanes; the t_R test drops
    # {0, 1, 2}, and the bound of {0, 2} ends the visit), and the tie goes to
    # the lexicographically smaller set, as in the exhaustive search; in
    # one round of every set the incumbent update breaks the same tie.
    chan = _chan([1.0, 1.0, 1.0], [0.5, 1.0, 0.5])
    cfg = SystemConfig(3, 3, 30.0, 1.0, 1.0)
    table = _table(chan, cfg)
    rates = {
        table.beams(i, 0): solve_problem4(table.candidate(i, 0)).objective_rate
        for i in range(len(table.slots))
    }
    assert rates[(1, 0)] == rates[(1, 2)]
    reference = exhaustive_scheme2(chan, cfg, "all_subsets")
    out = evaluate_scheme2(chan, cfg, "all_subsets")
    assert _chosen(out) == (0, 1)
    assert out.secondary_rate_raw.item() == rates[(1, 0)]
    assert same_choice(out, reference)
    monkeypatch.setattr(beam_aggregation, "_ROUND", 1)
    counts = _counts(chan, cfg)
    assert counts == dict(
        ranked=4, bound_drops=1, t_r_drops=1, lanes=2, raced=0, rounds=4, iterations=66
    )
    assert same_choice(evaluate_scheme2(chan, cfg, "all_subsets"), reference)


def test_scheme2_breaks_ties_cell_by_cell_in_one_block(monkeypatch):
    # The twin-beam instance above (beams 0 and 2 twins) and a copy with
    # beams 1 and 2 twins, at several SNR points in one block: from rho = 30
    # up two two-beam sets tie exactly on every cell, and the search picks
    # the exhaustive winner (0, 1) cell by cell, whatever a round's width
    chans = [_chan([1.0, 1.0, 1.0], [0.5, 1.0, 0.5]), _chan([1.0, 1.0, 1.0], [1.0, 0.5, 0.5])]
    g = np.concatenate([chan.g_gain for chan in chans], axis=1)
    h = np.concatenate([chan.h_gain for chan in chans], axis=1)
    grid = SystemConfig(3, 3, (10.0, 30.0, 100.0, 1000.0), 1.0, 1.0)
    for width in (8, 1):
        monkeypatch.setattr(beam_aggregation, "_ROUND", width)
        cells = evaluate_scheme2_block(g, h, grid, "all_subsets")
        for s, rho in enumerate(grid.rho):
            cfg = SystemConfig(3, 3, rho, 1.0, 1.0)
            for t, chan in enumerate(chans):
                want = exhaustive_scheme2(chan, cfg, "all_subsets")
                assert same_choice(cells, want, s, t)
                assert (_chosen(cells, s, t) == (0, 1)) == (cfg.rho >= 30.0)


def test_scheme2_rounded_rate_tie_goes_to_the_smaller_set(monkeypatch):
    # At rho = 1e-9 the SNRs s = t*^2 / tau_d are near 3e-9, and 1 + s rounds
    # SNRs up to about 7e-8 apart (relative) onto one rate. Here {0, 1, 2}
    # has an SNR 4.4e-9 above that of {0, 1}, more than the 1e-9 pruning
    # margin, yet the same rate, so the smaller set {0, 1} wins. Pruning on
    # the SNR alone would drop {0, 1} behind a {0, 1, 2} incumbent. The
    # winner must not depend on how many sets a round takes.
    chan = _chan([1.0, 1.0, 1.0], [1.0, 0.7, 0.06931477635546292])
    cfg = SystemConfig(3, 3, 1e-9, 1e-10, 1.0)
    sols = {
        tuple(sorted(c.beams)): (c, solve_problem4(c))
        for c in enumerate_candidates(chan, cfg, "all_subsets")
    }
    (c2, s2), (c3, s3) = sols[(0, 1)], sols[(0, 1, 2)]
    assert s2.objective_rate == s3.objective_rate > 0.0
    snr2 = s2.t_star * s2.t_star / c2.tau_d
    snr3 = s3.t_star * s3.t_star / c3.tau_d
    assert snr3 > snr2 * (1.0 + 1e-9)
    reference = exhaustive_scheme2(chan, cfg, "all_subsets")
    for width in (8, 1):
        monkeypatch.setattr(beam_aggregation, "_ROUND", width)
        out = evaluate_scheme2(chan, cfg, "all_subsets")
        assert _chosen(out) == (0, 1)
        assert same_choice(out, reference)


def test_scheme2_weak_beam_edge_drops_sets_before_they_are_built():
    # eps_p = 1 and tau_d = 0.1 for the full set. A solution must keep the
    # last decode (beam 2, h = 0.25) within h: t*^2 <= 0.25 - tau_d. That
    # is below 0 for {2} and {1, 2}, which fit no alpha_p and are not
    # ranked, and it caps {0, 2} and {0, 1, 2} at rates 0.32 and 1.32.
    # {0, 1} ranks first (its edge bounds its SNR by 0.875 / 0.125 = 7);
    # the next bound, 1.32, is below the best singleton's rate (2.30), so
    # {0, 1} is the only set solved. Ranked by B^2 / tau_d alone,
    # {0, 1, 2} (38 against 21) went first.
    chan = _chan([1.0, 1.0, 1.0], [2.0, 1.0, 0.25])
    cfg = SystemConfig(3, 3, 10.0, 1.0, 1.0)
    counts = _counts(chan, cfg)
    assert counts == dict(
        ranked=3, bound_drops=2, t_r_drops=0, lanes=1, raced=0, rounds=1, iterations=33
    )
    out = evaluate_scheme2(chan, cfg, "all_subsets")
    assert _chosen(out) == (0, 1)
    assert same_choice(out, exhaustive_scheme2(chan, cfg, "all_subsets"))


def _edge_instance():
    # Two beams, eps_p = 1, tau_d = 1 for the pair, and h_1 the fixed point
    # of h_1 = (hi / 4)^2 + tau_d with hi = sqrt(h_0) + sqrt(h_1): the
    # bisection's second midpoint hi / 4 lands exactly on beam 1's edge, and
    # every later one is past it.
    h_0, h_1 = 9.0, 2.0
    for _ in range(100):
        hi = 0.0
        for h_k in (h_0, h_1):
            hi += math.sqrt(h_k)
        if (hi / 4) ** 2 + 1.0 == h_1:
            break
        h_1 = (hi / 4) ** 2 + 1.0
    return _chan([10.0, 1.0], [h_0, h_1]), SystemConfig(2, 2, 1.0, 1.0, 1.0)


def _zero_edge_instance():
    # The weakest beam has h = eps_p tau_d of the full set, so h/eps_p -
    # tau_d is 0 and the set fits alpha_p only while t^2 is below the
    # rounding of t^2 + tau_d.
    cfg = SystemConfig(3, 3, 0.3, 0.1, 1.0)
    h_2 = cfg.eps_p * (1.0 / cfg.rho)
    return _chan([10.0, 10.0, 10.0], [400.0 * h_2, 20.0 * h_2, h_2]), cfg


def test_scheme2_edge_bound_holds_at_the_edge():
    # In both draws the set of every beam ends on its weakest beam's edge:
    # t*^2 equals h/eps_p - tau_d (edge binding, the winner) or exceeds the
    # float difference h/eps_p - tau_d = 0 by the rounding of t^2 + tau_d
    # (zero edge). Every set that solves must still be ranked, under a
    # bound at least its solved SNR, and the search must pick the
    # exhaustive winner.
    for chan, cfg in (_edge_instance(), _zero_edge_instance()):
        m = cfg.m_beams
        table = _table(chan, cfg)
        bounds = table.snr[:, 0].tolist()
        for i in range(len(table.slots)):
            cand = table.candidate(i, 0)
            sol = solve_problem4(cand)
            if sol.status == "optimal":
                assert sol.t_star * sol.t_star / cand.tau_d <= bounds[i]
        full = table.candidate(len(table.slots) - 1, 0)
        assert len(full.beams) == m
        sol = solve_problem4(full)
        u, edge = sol.t_star * sol.t_star, full.h[-1] / cfg.eps_p - full.tau_d
        assert sol.alpha_p[-1] == 1.0
        out = evaluate_scheme2(chan, cfg, "all_subsets")
        assert same_choice(out, exhaustive_scheme2(chan, cfg, "all_subsets"))
        if m == 2:
            assert u == edge < table.power_bound()[-1, 0] ** 2
            assert _chosen(out) == (0, 1)
        else:
            assert edge == 0.0 < u < 1e-15
            assert _chosen(out) == (0,)


def test_scheme2_without_a_primary_threshold():
    # r_p = 1e-17 rounds eps_p = 2**r_p - 1 to 0: no decode constraint
    # binds, so no set has a weakest-beam edge, and the search still picks
    # the exhaustive winner under every strategy
    cfg = SystemConfig(4, 4, 100.0, 1e-17, 1.0)
    assert cfg.eps_p == 0.0
    chan = realize(cfg, TrialSeed(0, 0))
    for strategy in STRATEGIES:
        out = evaluate_scheme2(chan, cfg, strategy)
        assert _chosen(out) == (0, 1, 2, 3)
        assert same_choice(out, exhaustive_scheme2(chan, cfg, strategy))
