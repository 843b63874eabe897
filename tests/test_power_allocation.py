import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamshare.beam_aggregation import (
    evaluate_scheme1,
    evaluate_scheme1_block,
    evaluate_scheme2,
)
from beamshare import power_allocation
from beamshare.beam_selection import evaluate_selection, evaluate_selection_block
from beamshare.channel_model import SystemConfig, TrialSeed, realize, realize_block
from beamshare.power_allocation import (
    SIC_SLACK,
    alpha_s_cap,
    beam_sum,
    eta,
    log2_at_least,
    log2_each,
    mode_i_alpha_p,
    tau,
)

from oracles import written_tau


def _col(values):
    # hand-picked gains of one trial, as the (M, 1) array a block pass takes
    return np.array(values, dtype=float)[:, None]


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
    return alpha_s_cap(h[m], eta(g[m], rho, eps), written_tau((m,), h, base, rho), eps)


def test_alpha_s_selection_hand_value():
    # h=(2,1), g=(1,1), inactive share on beam 2 = 0.1, rho=10, eps=1:
    # QoS cap = (1 - 0.1)/2 = 0.45 and SIC cap = (2 - 0.1 - 0.1)/4 = 0.45
    assert written_tau((0,), [2.0, 1.0], [0.1, 0.1], 10.0) == pytest.approx(0.2)
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
    # outside marks the beams outside the set; None means every beam
    assert tau([2.0, 1.0], [0.5, 0.5], 10.0, [False, False]) == pytest.approx(0.1)
    assert tau([2.0, 1.0], [0.3, 0.1], 10.0, [False, True]) == pytest.approx(0.2)
    assert tau([2.0, 1.0], [0.3, 0.1], 10.0) == pytest.approx(0.8)
    t1 = tau([2.0, 1.0], [0.3, 0.1], 10.0, [False, True])
    t2 = tau([2.0, 1.0], [0.3, 0.1], 20.0, [False, True])
    assert t2 < t1


# finite terms of any sign and scale, small enough that 8 cannot overflow
_TERM = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def _in_order(terms, where):
    # the sum written out: every cell adds its kept beams one at a time as
    # Python floats, in ascending beam order, from 0.0
    shape = np.broadcast_shapes(terms.shape[1:], where.shape[1:])
    terms = np.broadcast_to(terms, (len(terms), *shape))
    where = np.broadcast_to(where, terms.shape)
    out = np.empty(shape)
    for cell in np.ndindex(shape):
        acc = 0.0
        for k in range(len(terms)):
            if where[k][cell]:
                acc += float(terms[k][cell])
        out[cell] = acc
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    beams=st.integers(min_value=1, max_value=8),
    cells=st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    data=st.data(),
)
def test_beam_sum_adds_in_beam_order(beams, cells, data):
    # bit for bit the in-order loop, on terms and masks that broadcast
    # against each other, without a mask, with one, and with the masks
    # given one beam at a time
    def operand(elements):
        shape = [data.draw(st.sampled_from((1, n))) for n in cells]
        size = beams * math.prod(shape)
        values = data.draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(values).reshape(beams, *shape)

    terms, where = operand(_TERM), operand(st.booleans())
    every = np.ones(terms.shape, dtype=bool)
    want_all, want = _in_order(terms, every), _in_order(terms, where)
    assert np.asarray(beam_sum(terms)).tobytes() == want_all.tobytes()
    assert np.asarray(beam_sum(terms, where)).tobytes() == want.tobytes()
    assert np.asarray(beam_sum(terms, iter(where))).tobytes() == want.tobytes()


def test_beam_sum_is_not_a_pairwise_sum():
    # np.sum adds the 8 terms pairwise and keeps the small ones, 7e-16 in all
    terms = np.array([1.0] + [1e-16] * 7)
    assert beam_sum(terms) == 1.0
    assert beam_sum(terms, np.ones(8, dtype=bool)) == 1.0
    assert np.sum(terms) == 1.0000000000000007


def test_scheme1_coefficients_hand_values():
    # eta = eps (g + 1/rho) / (g (1 + eps)): 1.1/2 at g = 1, 2.1/4 at g = 2
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1_block(_col([1.0, 2.0]), _col([1.0, 1.0]), cfg)
    assert np.flatnonzero(out.chosen[:, 0, 0]).tolist() == [0, 1]
    assert out.alpha_p[:, 0, 0].tolist() == pytest.approx([0.55, 0.525])
    assert out.alpha_s[:, 0, 0].tolist() == pytest.approx([0.45, 0.475])
    assert out.alpha_p[0, 0, 0] + out.alpha_s[0, 0, 0] == 1.0  # exactly


def test_scheme1_coefficients_clamp():
    # a beam below the legacy threshold keeps everything for its user
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    out = evaluate_scheme1_block(_col([0.05, 1.0]), _col([1.0, 1.0]), cfg)
    assert out.alpha_p[0, 0, 0] == 1.0
    assert out.alpha_s[0, 0, 0] == 0.0


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
        g, h = chan.g_gain[:, 0].tolist(), chan.h_gain[:, 0].tolist()
        out = evaluate_scheme1(chan, cfg)
        alpha_p, alpha_s = out.alpha_p[:, 0, 0], out.alpha_s[:, 0, 0]
        for m in range(3):
            if g[m] >= eps / rho:
                sinr = g[m] * alpha_p[m] / (g[m] * alpha_s[m] + 1 / rho)
                assert sinr >= eps - 1e-9
            else:
                assert alpha_s[m] == 0.0
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
            assert np.all(out.alpha_s[~out.chosen] == 0.0)
        assert evaluate_scheme1(chan, cfg).chosen.all()


def _steps(x, k):
    # the float k steps above x (below for k < 0)
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


# a width relative to 2**level that the cases below probe on both sides,
# far wider than log2_at_least's own band, _band(level)
_BAND = 1e-9


def _band(level):
    # log2_at_least's band, relative to 2**level
    return 2.0 ** -50 * (1.0 + abs(level))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    level=st.one_of(st.sampled_from([0.0, 1.0, 0.1 - SIC_SLACK]), st.floats(0.0, 20.0)),
    data=st.data(),
)
def test_log2_at_least_is_the_log2_comparison(level, data):
    # element by element log2_each(x) >= level, on x around 2**level, on
    # and beside the band's edges, across the band, and at 1, inf and NaN
    edge = 2.0 ** level
    lo, hi = edge * (1.0 - _BAND), edge * (1.0 + _BAND)
    near = [_steps(edge, k) for k in data.draw(st.lists(st.integers(-4, 4), max_size=9))]
    rims = [_steps(x, k) for x in (lo, hi) for k in (-2, -1, 0, 1, 2)]
    offsets = data.draw(st.lists(st.floats(-3 * _BAND, 3 * _BAND), max_size=6))
    across = [edge * (1.0 + d) for d in offsets]
    wide = data.draw(st.lists(st.floats(1.0, 2.0 ** 21), max_size=4))
    x = np.array(near + rims + across + wide + [1.0, math.inf, math.nan])
    x = x[data.draw(st.permutations(range(len(x))))]
    want = log2_each(x) >= level
    assert log2_at_least(x, level).tolist() == want.tolist()
    assert log2_at_least(x[:, None], level).tolist() == want[:, None].tolist()


def test_log2_at_least_takes_log2_only_inside_its_band(monkeypatch):
    taken = []

    def counted(x):
        taken.extend(x.tolist())
        return log2_each(x)

    monkeypatch.setattr(power_allocation, "log2_each", counted)
    band = _band(1.0)
    outside = [1.0, 1.999999, 2.000001, 3.0, math.inf, math.nan]
    outside += [2.0 * (1.0 - 1.1 * band), 2.0 * (1.0 + 1.1 * band)]
    inside = [2.0, _steps(2.0, -1), _steps(2.0, 1), 2.0 * (1.0 + 0.9 * band)]
    got = log2_at_least(np.array(outside + inside), 1.0)
    assert got.tolist() == [
        False, False, True, True, True, False, False, True, True, False, True, True
    ]
    assert taken == inside
    # a level past the float range: only inf reaches it, and nothing raises
    taken.clear()
    assert log2_at_least(np.array([3.0, 1e308, math.inf]), 2000.0).tolist() == [
        False, False, True
    ]
    assert taken == [math.inf]


@pytest.mark.parametrize(
    "level",
    [r_p - SIC_SLACK for r_p in (1e-9, 0.1, 2.0, 256.0)] + [1e-10, 1.0, -50.0, 1000.0],
)
def test_log2_at_least_is_the_log2_comparison_within_4096_ulps_of_the_edge(level):
    # every float from 4096 ulps below 2**level to 4096 above, across the
    # band and well past it on either side
    edge = np.array(2.0 ** level)
    x = (edge.view(np.int64) + np.arange(-4096, 4097)).view(np.float64)
    assert (abs(x / edge - 1.0) > _band(level)).any()
    assert log2_at_least(x, level).tolist() == (log2_each(x) >= level).tolist()


def _selection_decode_rates(out, h_gain, rhos):
    # selection's rate of decoding the primary signal on each cell's chosen
    # beam, written out from the outcome's own shares
    rates = np.empty(out.sic_ok.shape)
    for s, t in np.ndindex(*rates.shape):
        (b,) = np.flatnonzero(out.chosen[:, s, t])
        h = h_gain[:, t].tolist()
        alpha_p, alpha_s = out.alpha_p[:, s, t], out.alpha_s[:, s, t]
        tau_b = written_tau((b,), h, alpha_p, rhos[s])
        rates[s, t] = math.log2(1.0 + h[b] * alpha_p[b] / (h[b] * alpha_s[b] + tau_b))
    return rates


def test_outage_inside_the_band_is_the_log2_comparison():
    # r_s is one cell's own rate, or a float beside it, so that this cell's
    # outage is decided inside log2_at_least's band; selection's decode
    # rates land in its band by themselves wherever the SIC cap binds
    rhos = tuple(10.0 ** (db / 10.0) for db in (0.0, 10.0, 20.0, 30.0))
    cfg = SystemConfig(4, 4, rhos, 0.1, 1.0)
    block, = realize_block([cfg], [(67, t, 0) for t in range(50)])
    g, h = block.g_gain, block.h_gain
    cell = (2, 7)
    for block_pass in (evaluate_selection_block, evaluate_scheme1_block):
        probe = block_pass(g, h, cfg)
        rate = math.log2(1.0 + probe.sinr[cell])
        for k in (-1, 0, 1):
            r_s = _steps(rate, k)
            out = block_pass(g, h, replace(cfg, r_s=r_s))
            assert abs(1.0 + out.sinr[cell] - 2.0 ** r_s) <= _BAND * 2.0 ** r_s
            assert out.outage[cell] == (k == 1)
            if block_pass is evaluate_scheme1_block:
                assert np.array_equal(out.outage, out.secondary_rate_raw < r_s)
                continue
            decode = _selection_decode_rates(out, h, rhos)
            level = cfg.r_p - SIC_SLACK
            assert (abs(2.0 ** decode - 2.0 ** level) <= _BAND * 2.0 ** level).sum() >= 10
            assert np.array_equal(out.sic_ok, decode >= level)
            met = out.secondary_rate_raw >= r_s
            assert np.array_equal(out.outage, ~(out.sic_ok & met))


def test_a_nan_rate_keeps_the_comparison_it_replaced():
    # a NaN SINR is an outage for selection (its rate is not >= r_s, and
    # its SIC test fails) and none for scheme 1 (its rate is not < r_s)
    cfg = SystemConfig(2, 2, 10.0, 0.1, 1.0)
    g, h = _col([1.0, 1.0]), _col([math.nan, 1.0])
    sel = evaluate_selection_block(g, h, cfg)
    s1 = evaluate_scheme1_block(g, h, cfg)
    assert np.isnan(sel.sinr).all() and np.isnan(s1.sinr).all()
    rate = sel.secondary_rate_raw.item()
    assert not sel.sic_ok.item() and not rate >= cfg.r_s and sel.outage.item()
    rate = s1.secondary_rate_raw.item()
    assert not rate < cfg.r_s and not s1.outage.item()
