import math

import numpy as np
import pytest

from beamshare import beam_selection, power_allocation
from beamshare.beam_selection import evaluate_selection, evaluate_selection_block
from beamshare.channel_model import SystemConfig, TrialSeed, realize
from beamshare.power_allocation import alpha_s_cap, eta, mode_i_alpha_p, tau

from oracles import written_tau


def _col(values):
    # hand-picked gains of one trial, as the (M, 1) array a block pass takes
    return np.array(values, dtype=float)[:, None]


def _chosen(out):
    return tuple(np.flatnonzero(out.chosen[:, 0, 0]).tolist())


def test_worked_two_beam_chain():
    g, h = _col([1.0, 1.0]), _col([2.0, 1.0])
    cfg = SystemConfig(2, 2, 10.0, 1.0, 2.0)
    out = evaluate_selection_block(g, h, cfg)
    assert _chosen(out) == (0,)
    assert out.alpha_s[0, 0, 0] == pytest.approx(0.45, abs=1e-12)
    assert out.alpha_p[:, 0, 0].tolist() == pytest.approx([0.55, 0.1])
    assert out.primary_rates[:, 0, 0].tolist() == pytest.approx([1.0, 1.0])
    assert out.secondary_rate.item() == pytest.approx(math.log2(5.5), abs=1e-12)
    assert not out.outage.item()  # r_s = 2 < 2.459
    assert out.chosen.shape == (2, 1, 1)  # one cell: the block of one

    tight = SystemConfig(2, 2, 10.0, 1.0, 2.5)
    out2 = evaluate_selection_block(g, h, tight)
    assert out2.outage.item()  # r_s = 2.5 > 2.459
    # SIC held, so the rate is still earned
    assert out2.secondary_rate.item() == pytest.approx(math.log2(5.5), abs=1e-12)


def test_all_beams_blocked():
    # every beam below the legacy threshold: no secondary power anywhere
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection_block(_col([0.05, 0.08]), _col([2.0, 1.0]), cfg)
    assert np.all(out.alpha_s == 0.0)
    assert out.secondary_rate.item() == 0.0
    assert out.outage.item()


def test_zero_target_boundary():
    # r_s = 0 and a positive SINR with SIC intact cannot be an outage
    cfg = SystemConfig(2, 2, 10.0, 1.0, 0.0)
    out = evaluate_selection_block(_col([1.0, 1.0]), _col([2.0, 1.0]), cfg)
    assert out.secondary_rate.item() > 0.0
    assert not out.outage.item()


def test_tie_breaks_to_lowest_index():
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_selection_block(_col([1.0, 1.0]), _col([1.5, 1.5]), cfg)
    assert _chosen(out) == (0,)


def test_argmax_gamma_equals_argmax_rate():
    cfg = SystemConfig(4, 4, 31.6, 0.5, 1.0)
    for t in range(200):
        chan = realize(cfg, TrialSeed(71, t))
        h = chan.h_gain[:, 0].tolist()
        g = chan.g_gain[:, 0].tolist()
        base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p)
        gammas = []
        for m in range(4):
            tau_m = written_tau((m,), h, base, cfg.rho)
            a = alpha_s_cap(h[m], eta(g[m], cfg.rho, cfg.eps_p), tau_m, cfg.eps_p)
            gammas.append(h[m] * a / tau_m)
        rates = [math.log2(1.0 + g) for g in gammas]
        by_gamma = max(range(4), key=lambda m: (gammas[m], -m))
        by_rate = max(range(4), key=lambda m: (rates[m], -m))
        assert by_gamma == by_rate
        out = evaluate_selection(chan, cfg)
        assert _chosen(out) == (by_gamma,)


def test_outage_event_formulation():
    # outage == {gamma_best < eps_s} union {decode rate < r_p}, away from
    # the measure-zero comparison boundaries
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.5)
    eps_s = 2.0 ** cfg.r_s - 1.0
    for t in range(300):
        chan = realize(cfg, TrialSeed(73, t))
        out = evaluate_selection(chan, cfg)
        gamma = 2.0 ** out.secondary_rate_raw.item() - 1.0
        if abs(gamma - eps_s) < 1e-9:
            continue
        expected = (gamma < eps_s) or (not out.sic_ok.item())
        assert out.outage.item() == expected


def test_sic_flag_follows_decode_rate():
    # worked chain: decoding the primary signal on beam 0 runs at
    # log2(1 + 2*0.55 / (2*0.45 + 0.2)) = 1 = r_p, met with equality
    cfg = SystemConfig(2, 2, 10.0, 1.0, 2.0)
    out = evaluate_selection_block(_col([1.0, 1.0]), _col([2.0, 1.0]), cfg)
    assert out.sic_ok.item()
    # both beams too weak to carry secondary power: beam 0 decodes at
    # log2(1 + 0.05 / (0.05*0.1 + 0.1)) = 0.56 < r_p
    weak = evaluate_selection_block(_col([1.0, 1.0]), _col([0.05, 0.05]), cfg)
    assert _chosen(weak) == (0,) and not weak.sic_ok.item() and weak.outage.item()
    # on random draws the flag is log2(1 + h a_p / (h a_s + tau)) >= r_p
    # evaluated on the outcome's own shares
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    for t in range(300):
        chan = realize(cfg, TrialSeed(79, t))
        out = evaluate_selection(chan, cfg)
        (b,) = _chosen(out)
        h = chan.h_gain[:, 0].tolist()
        alpha_p, alpha_s = out.alpha_p[:, 0, 0], out.alpha_s[:, 0, 0]
        tau_b = written_tau((b,), h, alpha_p, cfg.rho)
        sinr = h[b] * alpha_p[b] / (h[b] * alpha_s[b] + tau_b)
        decode = math.log2(1.0 + sinr)
        assert out.sic_ok.item() == (decode >= cfg.r_p - power_allocation.SIC_SLACK)


def test_tau_called_once_per_selection_block_pass(monkeypatch):
    # every beam's tau, on every cell of the block, comes from one call
    calls = []

    def counted(*args):
        calls.append(args)
        return tau(*args)

    monkeypatch.setattr(beam_selection, "tau", counted)
    cfg = SystemConfig(4, 4, (3.16, 31.6), 0.5, 1.0)
    rng = np.random.default_rng(71)
    g, h = rng.exponential(size=(4, 5)), rng.exponential(size=(4, 5))
    out = evaluate_selection_block(g, h, cfg)
    assert len(calls) == 1
    assert out.chosen.shape == (4, 2, 5)


def test_rate_earned_only_with_sic():
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    seen_fail = False
    for t in range(500):
        chan = realize(cfg, TrialSeed(79, t))
        out = evaluate_selection(chan, cfg)
        if out.sic_ok.item():
            assert out.secondary_rate.item() == out.secondary_rate_raw.item()
        else:
            seen_fail = True
            assert out.secondary_rate.item() == 0.0
    assert seen_fail  # the convention is actually exercised at this SNR


def test_deterministic_outcome():
    cfg = SystemConfig(3, 3, 100.0, 1.0, 1.0)
    a = evaluate_selection(realize(cfg, TrialSeed(83, 5)), cfg)
    b = evaluate_selection(realize(cfg, TrialSeed(83, 5)), cfg)
    assert a.secondary_rate.item() == b.secondary_rate.item()
    assert _chosen(a) == _chosen(b)
    assert np.array_equal(a.primary_rates, b.primary_rates)
