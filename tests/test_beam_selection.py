import math

import numpy as np
import pytest

from beamshare.beam_selection import evaluate_selection
from beamshare.channel_model import ChannelRealization, SystemConfig, TrialSeed, realize


def _chan(g_gain, h_gain):
    # scheme evaluation only consumes the scalar gains; the matrices are
    # placeholders for hand-built instances
    m = len(g_gain)
    return ChannelRealization(
        G=np.eye(m, dtype=complex),
        h=np.zeros(m, dtype=complex),
        F=np.eye(m, dtype=complex),
        g_gain=np.array(g_gain, dtype=float),
        h_gain=np.array(h_gain, dtype=float),
    )


def test_worked_two_beam_chain():
    chan = _chan([1.0, 1.0], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 2.0)
    out = evaluate_selection(chan, cfg)
    assert out.chosen_set == (0,)
    assert out.coefficients.alpha_s[0] == pytest.approx(0.45, abs=1e-12)
    assert out.secondary_rate == pytest.approx(math.log2(5.5), abs=1e-12)
    assert not out.outage  # r_s = 2 < 2.459
    assert out.scheme_tag == "selection"

    tight = SystemConfig(2, 2, 10.0, 1.0, 2.5)
    out2 = evaluate_selection(chan, tight)
    assert out2.outage  # r_s = 2.5 > 2.459
    # SIC held, so the rate is still earned
    assert out2.secondary_rate == pytest.approx(math.log2(5.5), abs=1e-12)


def test_all_beams_blocked():
    # every beam below the legacy threshold: no secondary power anywhere
    chan = _chan([0.05, 0.08], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection(chan, cfg)
    assert np.all(out.coefficients.alpha_s == 0.0)
    assert out.secondary_rate == 0.0
    assert out.outage


def test_zero_target_boundary():
    # r_s = 0 and a positive SINR with SIC intact cannot be an outage
    chan = _chan([1.0, 1.0], [2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 0.0)
    out = evaluate_selection(chan, cfg)
    assert out.secondary_rate > 0.0
    assert not out.outage


def test_tie_breaks_to_lowest_index():
    chan = _chan([1.0, 1.0], [1.5, 1.5])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection(chan, cfg)
    assert out.chosen_set == (0,)


def test_argmax_gamma_equals_argmax_rate():
    cfg = SystemConfig(4, 4, 31.6, 0.5, 1.0)
    from beamshare.power_allocation import alpha_s_selection, mode_i_alpha_p, tau

    for t in range(200):
        chan = realize(cfg, TrialSeed(71, t))
        h = chan.h_gain.tolist()
        base = mode_i_alpha_p(chan.g_gain.tolist(), cfg.rho, cfg.eps_p)
        gammas = []
        for m in range(4):
            a = alpha_s_selection(m, h, float(chan.g_gain[m]), base, cfg.rho, cfg.eps_p)
            gammas.append(h[m] * a / tau((m,), h, base, cfg.rho))
        rates = [math.log2(1.0 + g) for g in gammas]
        by_gamma = max(range(4), key=lambda m: (gammas[m], -m))
        by_rate = max(range(4), key=lambda m: (rates[m], -m))
        assert by_gamma == by_rate
        out = evaluate_selection(chan, cfg)
        assert out.chosen_set == (by_gamma,)


def test_outage_event_formulation():
    # outage == {gamma_best < eps_s} union {decode rate < r_p}, away from
    # the measure-zero comparison boundaries
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.5)
    eps_s = 2.0 ** cfg.r_s - 1.0
    for t in range(300):
        chan = realize(cfg, TrialSeed(73, t))
        out = evaluate_selection(chan, cfg)
        gamma = 2.0 ** out.secondary_rate_raw - 1.0
        if abs(gamma - eps_s) < 1e-9:
            continue
        expected = (gamma < eps_s) or (not out.sic_ok)
        assert out.outage == expected


def test_rate_earned_only_with_sic():
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    seen_fail = False
    for t in range(500):
        chan = realize(cfg, TrialSeed(79, t))
        out = evaluate_selection(chan, cfg)
        if out.sic_ok:
            assert out.secondary_rate == out.secondary_rate_raw
        else:
            seen_fail = True
            assert out.secondary_rate == 0.0
    assert seen_fail  # the convention is actually exercised at this SNR


def test_deterministic_outcome():
    cfg = SystemConfig(3, 3, 100.0, 1.0, 1.0)
    a = evaluate_selection(realize(cfg, TrialSeed(83, 5)), cfg)
    b = evaluate_selection(realize(cfg, TrialSeed(83, 5)), cfg)
    assert a.secondary_rate == b.secondary_rate
    assert a.chosen_set == b.chosen_set
    assert np.array_equal(a.primary_rates, b.primary_rates)
