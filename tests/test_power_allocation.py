import math

import numpy as np
import pytest

from beamshare.beam_aggregation import evaluate_scheme1, evaluate_scheme2
from beamshare.beam_selection import evaluate_selection
from beamshare.channel_model import ChannelRealization, SystemConfig, TrialSeed, realize
from beamshare.power_allocation import alpha_s_cap, eta, mode_i_alpha_p, tau


def _chan(g_gain, h_gain):
    m = len(g_gain)
    return ChannelRealization(
        G=np.eye(m, dtype=complex),
        h=np.zeros(m, dtype=complex),
        F=np.eye(m, dtype=complex),
        g_gain=np.array(g_gain, dtype=float),
        h_gain=np.array(h_gain, dtype=float),
    )


def test_alpha_p_inactive_values():
    # 0.1 on a unit-gain beam, clamped to 1 below the legacy threshold
    assert mode_i_alpha_p([1.0, 0.05], 10.0, 1.0) == pytest.approx([0.1, 1.0])
    assert mode_i_alpha_p([0.05], 10.0, 1.0) == [1.0]
    # vanishes monotonically as the budget grows
    values = [mode_i_alpha_p([1.0], rho, 1.0)[0] for rho in (1e2, 1e3, 1e4)]
    assert values[0] > values[1] > values[2]
    assert values[-1] == pytest.approx(1e-4)


def _selection_cap(m, h, g, rho, eps):
    # the share selection gives beam m, all other beams inactive
    base = mode_i_alpha_p(g, rho, eps)
    return alpha_s_cap(h[m], eta(g[m], rho, eps), tau((m,), h, base, rho), eps)


def test_alpha_s_selection_hand_value():
    # h=(2,1), g=(1,1), inactive share on beam 2 = 0.1, rho=10, eps=1:
    # QoS cap = (1 - 0.1)/2 = 0.45 and SIC cap = (2 - 0.1 - 0.1)/4 = 0.45
    assert tau((0,), [2.0, 1.0], [0.1, 0.1], 10.0) == pytest.approx(0.2)
    got = _selection_cap(0, [2.0, 1.0], [1.0, 1.0], 10.0, 1.0)
    assert got == pytest.approx(0.45, abs=1e-12)


def test_alpha_s_selection_clamps():
    # legacy beam cannot even meet its own target: no secondary power
    assert _selection_cap(0, [2.0, 1.0], [0.05, 1.0], 10.0, 1.0) == 0.0
    # secondary channel too weak to decode the primary signal first
    assert _selection_cap(0, [0.15, 1.0], [1.0, 1.0], 10.0, 1.0) == 0.0
    # degenerate zero-gain beam
    assert _selection_cap(0, [0.0, 1.0], [1.0, 1.0], 10.0, 1.0) == 0.0
    assert alpha_s_cap(0.0, 0.5, 0.1, 1.0) == 0.0


def test_eta_values():
    assert eta(1.0, 10.0, 1.0) == pytest.approx(0.55)
    eps, rho = 1.0, 10.0
    assert eta(eps / rho, rho, eps) == pytest.approx(1.0, abs=1e-12)
    assert eta(1e12, rho, eps) == pytest.approx(eps / (1 + eps), rel=1e-9)


def test_eta_boundary_matches_clamp():
    # eta <= 1 exactly when g >= eps/rho
    assert eta(0.1000001, 10.0, 1.0) < 1.0
    assert eta(0.0999999, 10.0, 1.0) > 1.0


def test_tau_values():
    assert tau((0, 1), [2.0, 1.0], [0.5, 0.5], 10.0) == pytest.approx(0.1)
    assert tau((0,), [2.0, 1.0], [0.3, 0.1], 10.0) == pytest.approx(0.2)
    t1 = tau((0,), [2.0, 1.0], [0.3, 0.1], 10.0)
    t2 = tau((0,), [2.0, 1.0], [0.3, 0.1], 20.0)
    assert t2 < t1


def test_scheme1_coefficients_hand_values():
    # eta = eps (g + 1/rho) / (g (1 + eps)): 1.1/2 at g = 1, 2.1/4 at g = 2
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1(_chan([1.0, 2.0], [1.0, 1.0]), cfg)
    assert out.chosen_set == (0, 1)
    assert out.alpha_p.tolist() == pytest.approx([0.55, 0.525])
    assert out.alpha_s.tolist() == pytest.approx([0.45, 0.475])
    assert out.alpha_p[0] + out.alpha_s[0] == 1.0  # exactly


def test_scheme1_coefficients_clamp():
    # a beam below the legacy threshold keeps everything for its user
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1(_chan([0.05, 1.0], [1.0, 1.0]), cfg)
    assert out.alpha_p[0] == 1.0
    assert out.alpha_s[0] == 0.0


def test_selection_cap_equals_one_minus_eta_exactly():
    # when the QoS cap binds, the admissible share is bitwise 1 - eta; the
    # aggregation solver's singleton reduction leans on this identity
    rng = np.random.default_rng(8)
    binding = 0
    for _ in range(200):
        g = float(rng.uniform(0.2, 3.0))
        rho = float(rng.uniform(5.0, 500.0))
        eps = float(rng.uniform(0.1, 3.0))
        h = [float(rng.uniform(5.0, 50.0)), float(rng.uniform(0.01, 0.2))]
        others = mode_i_alpha_p([g, g], rho, eps)
        got = _selection_cap(0, h, [g, g], rho, eps)
        cap_qos = max(0.0, 1.0 - eta(g, rho, eps))
        interference = h[1] * others[1]
        cap_sic = (h[0] - eps * (interference + 1.0 / rho)) / ((1.0 + eps) * h[0])
        if cap_sic > cap_qos + 1e-9:  # QoS side clearly binds
            binding += 1
            assert got == cap_qos
        else:
            assert got <= cap_qos
    assert binding > 100  # the identity is actually exercised


def test_qos_preserved_under_any_mode():
    # whenever the beam can meet the legacy target at all, the NOMA split
    # keeps the primary SINR at or above the threshold
    rng = np.random.default_rng(17)
    for t in range(300):
        rho = float(10.0 ** rng.uniform(0.0, 3.0))
        eps = float(2.0 ** rng.uniform(0.1, 2.0) - 1.0)
        cfg = SystemConfig(3, 3, rho, math.log2(1 + eps), 1.0)
        chan = realize(cfg, TrialSeed(17, t))
        g, h = chan.g_gain.tolist(), chan.h_gain.tolist()
        out = evaluate_scheme1(chan, cfg)
        for m in range(3):
            if g[m] >= eps / rho:
                sinr = g[m] * out.alpha_p[m] / (g[m] * out.alpha_s[m] + 1 / rho)
                assert sinr >= eps - 1e-9
            else:
                assert out.alpha_s[m] == 0.0
        for m in range(3):
            a_s = _selection_cap(m, h, g, rho, eps)
            if g[m] >= eps / rho:
                sinr = g[m] * (1 - a_s) / (g[m] * a_s + 1 / rho)
                assert sinr >= eps - 1e-9
            else:
                assert a_s == 0.0


def test_coefficient_ranges_random():
    cfg = SystemConfig(4, 4, 31.6, 0.5, 1.0)
    for t in range(100):
        chan = realize(cfg, TrialSeed(55, t))
        for out in (
            evaluate_selection(chan, cfg),
            evaluate_scheme1(chan, cfg),
            evaluate_scheme2(chan, cfg),
        ):
            assert np.all(out.alpha_p >= 0.0) and np.all(out.alpha_p <= 1.0)
            assert np.all(out.alpha_s >= 0.0) and np.all(out.alpha_s <= 1.0)
            assert np.all(out.alpha_p + out.alpha_s <= 1.0 + 1e-12)
            # secondary power sits on the chosen beams only
            off = [m for m in range(4) if m not in out.chosen_set]
            assert np.all(out.alpha_s[off] == 0.0)
        assert evaluate_scheme1(chan, cfg).chosen_set == (0, 1, 2, 3)
