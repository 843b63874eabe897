import math

import numpy as np
import pytest

from beamshare.beam_aggregation import (
    enumerate_candidates,
    evaluate_scheme1_block,
    solve_problem4,
)
from beamshare.beam_selection import evaluate_selection_block
from beamshare.channel_model import SystemConfig, TrialSeed, realize
from beamshare.power_allocation import (
    SIC_SLACK,
    alpha_s_cap,
    eta,
    mode_i_alpha_p,
    primary_rates,
)


def _col(values):
    # hand-picked gains of one trial, as the (M, 1) array a block pass takes
    return np.array(values, dtype=float)[:, None]


def _tau(beams, h, alpha_p, rho):
    # tau written out: the beams outside the set, in ascending order, plus 1/rho
    acc = 0.0
    for j in range(len(h)):
        if j not in beams:
            acc += float(h[j]) * float(alpha_p[j])
    return acc + 1.0 / rho


def _decode_rate(out, h_gain, rho):
    # rate at which the secondary user decodes the primary signal on the
    # beam selection chose, from the one cell's own shares
    (b,) = np.flatnonzero(out.chosen[:, 0, 0]).tolist()
    alpha_p, alpha_s = out.alpha_p[:, 0, 0], out.alpha_s[:, 0, 0]
    tau_b = _tau((b,), h_gain, alpha_p, rho)
    h_b = h_gain[b]
    return math.log2(1.0 + h_b * alpha_p[b] / (h_b * alpha_s[b] + tau_b))


def _signal_power(out, h_gain, rho):
    # scheme 1's coherent signal power: SINR times interference-plus-noise
    noise = sum(h * a for h, a in zip(h_gain, out.alpha_p[:, 0, 0])) + 1.0 / rho
    return (2.0 ** out.secondary_rate.item() - 1.0) * noise


def test_rate_sel_decode_primary_hand_value():
    # h = (2, 1), beam 0 splits 0.55/0.45, beam 1 inactive at 0.1, rho = 10:
    # numerator 2*0.55 = 1.1; denominator 2*0.45 + tau = 0.9 + (1*0.1 + 0.1)
    h = [2.0, 1.0]
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection_block(_col([1.0, 1.0]), _col(h), [cfg])
    assert out.alpha_p[:, 0, 0].tolist() == pytest.approx([0.55, 0.1])
    assert out.alpha_s[:, 0, 0].tolist() == pytest.approx([0.45, 0.0])
    assert _tau((0,), h, out.alpha_p[:, 0, 0], 10.0) == pytest.approx(0.2)
    assert _decode_rate(out, h, 10.0) == pytest.approx(1.0)
    assert out.sic_ok.item()


def test_rate_sel_decode_primary_zero_and_limit():
    # a beam the secondary user cannot hear leaves nothing to decode
    blind = [0.0, 0.0]
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection_block(_col([1.0, 1.0]), _col(blind), [cfg])
    assert _decode_rate(out, blind, cfg.rho) == 0.0
    assert not out.sic_ok.item() and out.secondary_rate.item() == 0.0
    # growing the budget pushes the decode rate down onto r_p, never below:
    # both caps tend to 1/(1 + eps_p) and tau to 0
    h = [2.0, 1.0]
    gaps = []
    for rho in (1e1, 1e3, 1e5):
        cfg = SystemConfig(2, 2, rho, 1.0, 1.0)
        out = evaluate_selection_block(_col([0.5, 2.0]), _col(h), [cfg])
        assert np.flatnonzero(out.chosen[:, 0, 0]).tolist() == [0]
        gaps.append(_decode_rate(out, h, rho) - cfg.r_p)
    assert -SIC_SLACK <= gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-4


def test_rate_scheme1_secondary_hand_value():
    # beam 1 is below the legacy threshold, so only beam 0 carries secondary
    # power: 2*0.45 over 2*0.55 + 1*1.0 + 0.1
    h = [2.0, 1.0]
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1_block(_col([1.0, 0.05]), _col(h), [cfg])
    assert out.alpha_s[:, 0, 0].tolist() == pytest.approx([0.45, 0.0])
    assert out.alpha_p[1, 0, 0] == 1.0
    rate = out.secondary_rate.item()
    assert rate == pytest.approx(math.log2(1.0 + 0.9 / 2.2), abs=1e-12)


def test_rate_scheme1_secondary_zero_and_coherence():
    # no beam can spare anything for the secondary user
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1_block(_col([0.05, 0.05]), _col([2.0, 1.0]), [cfg])
    assert out.secondary_rate.item() == 0.0
    # two equal beams combine coherently: 4x the single-beam signal power,
    # (2 sqrt(0.45))^2 = 1.8 over 2*0.55 + 0.1, an SINR of exactly 1.5
    rho = 10.0
    one_cfg = SystemConfig(1, 1, rho, 1.0, 1.0)
    one = evaluate_scheme1_block(_col([1.0]), _col([1.0]), [one_cfg])
    two = evaluate_scheme1_block(_col([1.0, 1.0]), _col([1.0, 1.0]), [cfg])
    s1 = _signal_power(one, [1.0], rho)
    s2 = _signal_power(two, [1.0, 1.0], rho)
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)
    assert 2.0 ** two.secondary_rate.item() - 1.0 == pytest.approx(1.5, rel=1e-12)


def test_rate_primary_values():
    # selection's split on h=(2,1), g=(1,1), rho=10: both legacy rates are 1
    alpha_p, alpha_s = np.array([0.55, 0.1]), np.array([0.45, 0.0])
    rates = primary_rates([1.0, 1.0], alpha_p, alpha_s, [True, False], 10.0)
    assert rates.tolist() == pytest.approx([1.0, 1.0])
    # with no secondary power the chosen-beam formula reduces to the legacy one
    quiet = primary_rates(
        [1.7, 1.7], np.array([0.3, 0.3]), np.zeros(2), [True, False], 10.0
    )
    assert quiet[0] == pytest.approx(quiet[1], abs=1e-12)


def test_primary_rates_marks_the_active_set():
    alpha_p, alpha_s = np.array([0.55, 0.1, 0.3]), np.array([0.45, 0.0, 0.0])
    got = primary_rates([1.0, 1.0, 2.0], alpha_p, alpha_s, [True, False, False], 10.0)
    assert got.tolist() == [
        math.log2(1.0 + 1.0 * 0.55 / (1.0 * 0.45 + 1.0 / 10.0)),
        math.log2(1.0 + 1.0 * 0.1 * 10.0),
        math.log2(1.0 + 2.0 * 0.3 * 10.0),
    ]


def test_aggregation_reduces_to_selection_on_singletons():
    # on a single beam the scheme 2 program's optimum is the selection
    # share, and its rate is the selection rate
    cfg = SystemConfig(4, 4, 100.0, 0.1, 1.0)
    solved = 0
    for t in range(100):
        chan = realize(cfg, TrialSeed(61, t))
        h = chan.h_gain[:, 0].tolist()
        g = chan.g_gain[:, 0].tolist()
        base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p)
        for cand in enumerate_candidates(chan, cfg, "prefixes_plus_singletons"):
            if len(cand.beams) != 1:
                continue
            (m,) = cand.beams
            sol = solve_problem4(cand)
            if sol.status != "optimal":
                continue
            solved += 1
            tau_m = _tau((m,), h, base, cfg.rho)
            a_s = alpha_s_cap(h[m], eta(g[m], cfg.rho, cfg.eps_p), tau_m, cfg.eps_p)
            gamma = h[m] * a_s / tau_m
            assert sol.objective_rate == pytest.approx(math.log2(1.0 + gamma), abs=1e-12)
    assert solved > 100


def test_rate_monotonicity_random():
    # a larger budget or a stronger legacy channel lowers the primary share
    # each beam needs: more signal share and less interference for the
    # secondary user, so neither closed-form rate can fall
    rng = np.random.default_rng(29)
    for _ in range(100):
        g = [float(v) for v in rng.exponential(1.0, size=3) + 0.05]
        h = [float(v) for v in rng.exponential(1.0, size=3) + 0.05]
        rho = float(10.0 ** rng.uniform(0.0, 2.0))
        r_p = float(rng.uniform(0.2, 2.0))
        stronger = list(g)
        stronger[0] *= 1.5
        cfg = SystemConfig(3, 3, rho, r_p, 1.0)
        rich = SystemConfig(3, 3, 1.5 * rho, r_p, 1.0)
        for evaluate in (evaluate_selection_block, evaluate_scheme1_block):
            base = evaluate(_col(g), _col(h), [cfg])
            richer = evaluate(_col(g), _col(h), [rich])
            clearer = evaluate(_col(stronger), _col(h), [cfg])
            assert richer.secondary_rate.item() >= base.secondary_rate.item()
            assert clearer.secondary_rate.item() >= base.secondary_rate.item()
