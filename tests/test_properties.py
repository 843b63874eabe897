"""Property tests for invariants every scheme must keep on any channel draw."""

import math

from hypothesis import given, settings, strategies as st

from beamshare import (
    SystemConfig,
    TrialSeed,
    evaluate_scheme1,
    evaluate_scheme2,
    evaluate_selection,
    realize,
)

# (r_p, r_s): the paper's operating point, vanishing targets, extreme targets
TARGETS = [(0.1, 1.0), (1e-9, 0.0), (8.0, 8.0)]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    log10_rho=st.floats(min_value=-8.0, max_value=30.0),
    targets=st.sampled_from(TARGETS),
    m_beams=st.integers(min_value=1, max_value=4),
    extra_antennas=st.integers(min_value=0, max_value=2),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_rates_finite_and_scheme2_dominates_selection(
    log10_rho, targets, m_beams, extra_antennas, trial
):
    r_p, r_s = targets
    cfg = SystemConfig(m_beams + extra_antennas, m_beams, 10.0 ** log10_rho, r_p, r_s)
    chan = realize(cfg, TrialSeed(2026, trial))
    sel = evaluate_selection(chan, cfg)
    agg = evaluate_scheme2(chan, cfg, "prefixes_plus_singletons")
    for out in (sel, evaluate_scheme1(chan, cfg), agg):
        for rate in (out.secondary_rate, out.secondary_rate_raw, *out.primary_rates):
            assert math.isfinite(rate) and rate >= 0.0, (out.scheme_tag, rate)
    assert agg.secondary_rate >= sel.secondary_rate
