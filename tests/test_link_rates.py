import math

import numpy as np
import pytest

from beamshare.beam_aggregation import enumerate_candidates, solve_problem4
from beamshare.channel_model import SystemConfig, TrialSeed, realize
from beamshare.link_rates import (
    primary_rates,
    rate_primary,
    rate_scheme1_secondary,
    rate_sel_decode_primary,
)
from beamshare.power_allocation import (
    PowerCoefficients,
    alpha_s_selection,
    mode_i_alpha_p,
    tau,
)


def _coeffs(alpha_p, alpha_s, active):
    return PowerCoefficients(np.array(alpha_p), np.array(alpha_s), tuple(active))


def test_rate_sel_decode_primary_hand_value():
    # h = (2, 1), beam 0 splits 0.55/0.45, beam 1 inactive at 0.1, rho = 10:
    # numerator 2*0.55 = 1.1; denominator 2*0.45 + tau = 0.9 + (1*0.1 + 0.1)
    tau_0 = tau((0,), [2.0, 1.0], [0.55, 0.1], 10.0)
    assert rate_sel_decode_primary(2.0, 0.45, tau_0) == pytest.approx(1.0)


def test_rate_sel_decode_primary_zero_and_limit():
    # all of the beam to the secondary signal leaves nothing to decode
    assert rate_sel_decode_primary(2.0, 1.0, 0.2) == 0.0
    # interference-limited: growing the budget cannot push the rate past
    # the zero-noise value
    limit = math.log2(1.0 + 2 * 0.5 / (2 * 0.5 + 1 * 0.1))
    last = 0.0
    for rho in (1e1, 1e3, 1e5):
        r = rate_sel_decode_primary(2.0, 0.5, tau((0,), [2.0, 1.0], [0.5, 0.1], rho))
        assert last < r <= limit
        last = r


def test_rate_scheme1_secondary_hand_value():
    # secondary power on beam 0 only: 0.9 / (1.1 + 0.1 + 0.1)
    coeffs = _coeffs([0.55, 0.1], [0.45, 0.0], (0,))
    expected = math.log2(1.0 + 0.9 / 1.3)
    assert rate_scheme1_secondary([2.0, 1.0], coeffs, 10.0) == pytest.approx(
        expected
    )


def test_rate_scheme1_secondary_zero_and_coherence():
    coeffs = _coeffs([0.55, 0.55], [0.0, 0.0], (0, 1))
    assert rate_scheme1_secondary([2.0, 1.0], coeffs, 10.0) == 0.0
    # two equal beams combine coherently: 4x the single-beam signal power
    one = _coeffs([0.0, 0.0], [0.4, 0.0], (0,))
    two = _coeffs([0.0, 0.0], [0.4, 0.4], (0, 1))
    rho = 10.0
    s1 = 2 ** rate_scheme1_secondary([1.0, 1.0], one, rho) - 1.0
    s2 = 2 ** rate_scheme1_secondary([1.0, 1.0], two, rho) - 1.0
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_rate_primary_values():
    coeffs = _coeffs([0.55, 0.1], [0.45, 0.0], (0,))
    assert rate_primary(0, 1.0, coeffs, 10.0, in_active_set=True) == pytest.approx(1.0)
    assert rate_primary(1, 1.0, coeffs, 10.0, in_active_set=False) == pytest.approx(1.0)
    # with no secondary power the active formula reduces to the legacy one
    quiet = _coeffs([0.3, 0.1], [0.0, 0.0], (0,))
    active = rate_primary(0, 1.7, quiet, 10.0, in_active_set=True)
    legacy = rate_primary(0, 1.7, quiet, 10.0, in_active_set=False)
    assert active == pytest.approx(legacy, abs=1e-12)


def test_primary_rates_marks_the_active_set():
    coeffs = _coeffs([0.55, 0.1, 0.3], [0.45, 0.0, 0.0], (0,))
    got = primary_rates([1.0, 1.0, 2.0], coeffs, 10.0)
    assert got.tolist() == [
        rate_primary(0, 1.0, coeffs, 10.0, in_active_set=True),
        rate_primary(1, 1.0, coeffs, 10.0, in_active_set=False),
        rate_primary(2, 2.0, coeffs, 10.0, in_active_set=False),
    ]


def test_aggregation_reduces_to_selection_on_singletons():
    # on a single beam the scheme 2 program's optimum is the selection
    # share, and its rate is the selection rate
    cfg = SystemConfig(4, 4, 100.0, 0.1, 1.0)
    solved = 0
    for t in range(100):
        chan = realize(cfg, TrialSeed(61, t))
        h = chan.h_gain.tolist()
        g = chan.g_gain.tolist()
        base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p)
        for cand in enumerate_candidates(chan, cfg, "prefixes_plus_singletons"):
            if len(cand.beams) != 1:
                continue
            (m,) = cand.beams
            sol = solve_problem4(cand, h, cfg.eps_p)
            if sol.status != "optimal":
                continue
            solved += 1
            a_s = alpha_s_selection(m, h, g[m], base, cfg.rho, cfg.eps_p)
            gamma = h[m] * a_s / tau((m,), h, base, cfg.rho)
            assert sol.objective_rate == pytest.approx(math.log2(1.0 + gamma), abs=1e-12)
    assert solved > 100


def test_rate_monotonicity_random():
    # each rate grows with its own signal share and shrinks with interference
    rng = np.random.default_rng(29)
    for _ in range(100):
        h = [float(v) for v in rng.exponential(1.0, size=3) + 0.05]
        ap = [float(v) for v in rng.uniform(0.1, 0.5, size=3)]
        as_ = [float(v) for v in rng.uniform(0.05, 0.4, size=3)]
        rho = float(10.0 ** rng.uniform(0.0, 2.0))
        coeffs = _coeffs(ap, as_, (0, 1, 2))
        up = list(as_)
        up[0] = min(1.0 - ap[0], as_[0] + 0.05)
        more_signal = _coeffs(ap, up, (0, 1, 2))
        assert rate_scheme1_secondary(h, more_signal, rho) >= rate_scheme1_secondary(
            h, coeffs, rho
        )
        # decoding the primary signal gets harder as the secondary share or
        # the other beams' interference grows
        tau_0 = tau((0,), h, ap, rho)
        base = rate_sel_decode_primary(h[0], as_[0], tau_0)
        assert rate_sel_decode_primary(h[0], up[0], tau_0) <= base
        assert rate_sel_decode_primary(h[0], as_[0], tau_0 + h[1] * 0.05) <= base
