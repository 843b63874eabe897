import math

import numpy as np
import pytest

from beamshare.beam_aggregation import (
    AggregationCandidate,
    certify_solution,
    enumerate_candidates,
    evaluate_scheme1,
    evaluate_scheme2,
    min_primary_power,
    oracle_grid_solver,
    solve_problem4,
)
from beamshare.beam_selection import evaluate_selection
from beamshare.channel_model import ChannelRealization, SystemConfig, TrialSeed, realize
from beamshare.power_allocation import alpha_s_selection, mode_i_alpha_p
from beamshare.validation import random_feasible_instance

# closed-form optimum of the two-beam instance h=(2,1), g=(1,1), rho=10,
# eps_p=1 (both decode constraints tight at the fixed point)
U_REF = 0.9 * (3.0 + 2.0 * math.sqrt(2.0)) / (4.0 + 2.0 * math.sqrt(2.0))
WORKED = AggregationCandidate(beams=(0, 1), tau_d=0.1, etas=(0.55, 0.55), feasible=True)
WORKED_H = [2.0, 1.0]


def _chan(g_gain, h_gain):
    m = len(g_gain)
    return ChannelRealization(
        G=np.eye(m, dtype=complex),
        h=np.zeros(m, dtype=complex),
        F=np.eye(m, dtype=complex),
        g_gain=np.array(g_gain, dtype=float),
        h_gain=np.array(h_gain, dtype=float),
    )


def test_enumerate_counts_and_order():
    cfg = SystemConfig(3, 3, 10.0, 1.0, 1.0)
    chan = _chan([1.0, 1.0, 1.0], [0.5, 2.0, 1.0])
    prefixes = enumerate_candidates(chan, cfg, "prefixes")
    assert [c.beams for c in prefixes] == [(1,), (1, 2), (1, 2, 0)]
    plus = enumerate_candidates(chan, cfg, "prefixes_plus_singletons")
    assert [c.beams for c in plus] == [(1,), (1, 2), (1, 2, 0), (2,), (0,)]
    everything = enumerate_candidates(chan, cfg, "all_subsets")
    assert len(everything) == 7
    for cand in everything:
        gains = [chan.h_gain[b] for b in cand.beams]
        assert gains == sorted(gains, reverse=True)


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
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    chan = _chan([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        enumerate_candidates(chan, cfg, "everything")
    big = SystemConfig(9, 9, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        enumerate_candidates(
            _chan([1.0] * 9, [1.0] * 9), big, "all_subsets"
        )


def test_min_primary_power_worked_recursion():
    # backward sweep at the optimal amplitude: both shares are u + tau
    ap = min_primary_power(WORKED, WORKED_H, math.sqrt(U_REF), 1.0)
    assert ap == pytest.approx([U_REF + 0.1, U_REF + 0.1], abs=1e-12)


def test_min_primary_power_floor_and_overflow():
    ap = min_primary_power(WORKED, WORKED_H, 0.0, 1.0)
    # at t=0 the tau term dominates: max(eta, eps (acc + tau)/h)
    assert ap == pytest.approx([0.55, 0.55], abs=1e-12)
    assert min_primary_power(WORKED, WORKED_H, 10.0, 1.0) is None


def test_min_primary_power_eta_floor():
    cand = AggregationCandidate(beams=(0, 1), tau_d=0.01, etas=(0.9, 0.9), feasible=True)
    ap = min_primary_power(cand, [5.0, 4.0], 0.0, 0.1)
    assert ap == [0.9, 0.9]


def test_solve_worked_instance_closed_form():
    sol = solve_problem4(WORKED, WORKED_H, 1.0)
    assert sol.status == "optimal"
    assert sol.t_star ** 2 == pytest.approx(U_REF, abs=1e-9)
    assert sol.alpha_p == pytest.approx([U_REF + 0.1, U_REF + 0.1], abs=1e-8)
    assert [x * x for x in sol.x] == pytest.approx([0.9 - U_REF, 0.9 - U_REF], abs=1e-8)
    assert sol.objective_rate == pytest.approx(math.log2(1.0 + U_REF / 0.1), abs=1e-8)
    assert certify_solution(WORKED, WORKED_H, 1.0, sol) == []
    # both decode constraints are tight at the optimum
    for k in range(2):
        tail = sum(WORKED_H[j] * sol.alpha_p[j] for j in range(k + 1, 2))
        slack = WORKED_H[k] * sol.alpha_p[k] - (tail + sol.t_star ** 2 + 0.1)
        assert abs(slack) < 1e-8


def test_solve_singleton_matches_selection_cap_exactly():
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    for t in range(300):
        chan = realize(cfg, TrialSeed(91, t))
        h = chan.h_gain.tolist()
        base = mode_i_alpha_p(chan.g_gain.tolist(), cfg.rho, cfg.eps_p)
        for cand in enumerate_candidates(chan, cfg, "prefixes_plus_singletons"):
            if len(cand.beams) != 1:
                continue
            m = cand.beams[0]
            expected = alpha_s_selection(
                m, h, float(chan.g_gain[m]), base, cfg.rho, cfg.eps_p
            )
            sol = solve_problem4(cand, h, cfg.eps_p)
            got = sol.x[0] ** 2 if sol.status == "optimal" else 0.0
            assert got == pytest.approx(expected, abs=1e-9)


def test_solve_infeasible_cases():
    # interference floor too high for the strongest beam
    cand = AggregationCandidate(beams=(0, 1), tau_d=50.0, etas=(0.5, 0.5), feasible=True)
    assert solve_problem4(cand, [2.0, 1.0], 1.0).status == "infeasible"
    flagged = AggregationCandidate(beams=(0,), tau_d=0.1, etas=(1.2,), feasible=False)
    assert solve_problem4(flagged, [2.0], 1.0).status == "infeasible"
    zero_gain = AggregationCandidate(beams=(0,), tau_d=0.1, etas=(0.5,), feasible=True)
    assert solve_problem4(zero_gain, [0.0], 1.0).status == "infeasible"


def test_cap_is_nonincreasing():
    rng = np.random.default_rng(37)
    for _ in range(50):
        cand, h, eps = random_feasible_instance(rng, 2)
        hs = [h[b] for b in cand.beams]
        last = math.inf
        for t in np.linspace(0.0, sum(math.sqrt(v) for v in hs), 40):
            ap = min_primary_power(cand, h, float(t), eps)
            cap = (
                -math.inf
                if ap is None
                else sum(math.sqrt(v * (1.0 - a)) for v, a in zip(hs, ap))
            )
            assert cap <= last + 1e-12
            last = cap


def test_certifier_catches_violations():
    sol = solve_problem4(WORKED, WORKED_H, 1.0)
    broken = type(sol)(
        alpha_p=(0.5, sol.alpha_p[1]),  # drops the first decode constraint
        x=sol.x,
        t_star=sol.t_star,
        objective_rate=sol.objective_rate,
        status="optimal",
    )
    assert certify_solution(WORKED, WORKED_H, 1.0, broken)


def test_oracle_agreement_worked_instance():
    sol = solve_problem4(WORKED, WORKED_H, 1.0)
    oracle = oracle_grid_solver(WORKED, WORKED_H, 1.0, 1e-3)
    budget = 2.0 * 1e-3 * (math.sqrt(2.0) + 1.0)
    assert oracle.status == "optimal"
    assert abs(sol.t_star - oracle.t_star) <= budget
    assert abs(sol.t_star - oracle.t_star) <= 5e-3  # coarse sanity bound
    assert certify_solution(WORKED, WORKED_H, 1.0, oracle) == []


def test_oracle_resolution_one_examines_corners():
    # at resolution 1 only the {0,1}-corners exist; replicate by hand
    cand, h = WORKED, WORKED_H
    best = -1.0
    for x0 in (0.0, 1.0):
        for x1 in (0.0, 1.0):
            t = math.sqrt(h[0]) * x0 + math.sqrt(h[1]) * x1
            ap = min_primary_power(cand, h, t, 1.0)
            if ap is None:
                continue
            if all(a <= 1.0 - x * x for a, x in zip(ap, (x0, x1))):
                best = max(best, t)
    oracle = oracle_grid_solver(cand, h, 1.0, 1.0)
    assert oracle.t_star == pytest.approx(best)


def test_oracle_infeasible_candidate():
    cand = AggregationCandidate(beams=(0, 1), tau_d=50.0, etas=(0.5, 0.5), feasible=True)
    assert oracle_grid_solver(cand, [2.0, 1.0], 1.0, 0.01).status == "infeasible"


def test_oracle_random_agreement():
    rng = np.random.default_rng(41)
    plans = ((2, 1e-3, 12), (3, 2e-3, 4))
    for set_size, resolution, count in plans:
        for _ in range(count):
            cand, h, eps = random_feasible_instance(rng, set_size)
            sol = solve_problem4(cand, h, eps)
            oracle = oracle_grid_solver(cand, h, eps, resolution)
            sum_sqrt = sum(math.sqrt(h[b]) for b in cand.beams)
            assert oracle.status == "optimal"
            assert abs(sol.t_star - oracle.t_star) <= 2.0 * resolution * sum_sqrt
            assert certify_solution(cand, h, eps, sol) == []


def test_scheme1_worked_values():
    chan = _chan([1.0, 1.0], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    one = evaluate_scheme1(chan, cfg, active_set=(0,))
    assert one.secondary_rate == pytest.approx(math.log2(1.0 + 0.9 / 1.3), abs=1e-12)
    both = evaluate_scheme1(chan, cfg, active_set=(0, 1))
    coherent = (math.sqrt(0.9) + math.sqrt(0.45)) ** 2
    assert both.secondary_rate == pytest.approx(
        math.log2(1.0 + coherent / 1.75), abs=1e-12
    )
    assert both.chosen_set == (0, 1)
    assert not both.outage  # 1.32 BPCU > r_s = 1


def test_scheme1_blocked_channel():
    chan = _chan([0.05, 0.05], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1(chan, cfg)
    assert out.secondary_rate == 0.0
    assert out.outage
    assert np.all(out.coefficients.alpha_s == 0.0)


def test_scheme2_worked_instance_beats_selection():
    chan = _chan([1.0, 1.0], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme2(chan, cfg, "prefixes")
    assert out.chosen_set == (0, 1)
    assert out.secondary_rate == pytest.approx(math.log2(1.0 + U_REF / 0.1), abs=1e-8)
    sel = evaluate_selection(chan, cfg)
    assert out.secondary_rate > sel.secondary_rate
    assert not out.outage


def test_scheme2_blocked_channel():
    chan = _chan([0.05, 0.05], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme2(chan, cfg)
    assert out.chosen_set == ()
    assert out.secondary_rate == 0.0
    assert out.outage
    assert np.all(out.coefficients.alpha_s == 0.0)


def test_scheme2_dominates_selection_pointwise():
    cfg = SystemConfig(4, 4, 100.0, 0.1, 1.0)
    strictly_better = 0
    for t in range(1000):
        chan = realize(cfg, TrialSeed(97, t))
        sel = evaluate_selection(chan, cfg)
        agg = evaluate_scheme2(chan, cfg, "prefixes_plus_singletons")
        assert agg.secondary_rate >= sel.secondary_rate
        strictly_better += agg.secondary_rate > sel.secondary_rate
    assert strictly_better > 0


def test_scheme2_deterministic():
    cfg = SystemConfig(4, 4, 31.6, 0.5, 1.0)
    chan = realize(cfg, TrialSeed(101, 3))
    a = evaluate_scheme2(chan, cfg)
    b = evaluate_scheme2(chan, cfg)
    assert a.secondary_rate == b.secondary_rate
    assert a.chosen_set == b.chosen_set
