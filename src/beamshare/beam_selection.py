"""Single-beam secondary access: evaluate one channel draw end to end.

Every beam is tried with itself in NOMA mode and all others inactive.  Its
tau, computed once, sets the largest admissible secondary share, the
secondary SINR gamma and the rate at which the secondary user decodes the
primary signal on that beam.  The beam with the best gamma wins (ties to the
lowest index).  The rate is credited only when the SIC precondition holds on
the chosen beam -- the secondary user cannot decode anything if it fails to
strip the primary signal first; the unconditioned value log2(1 + gamma) is
what the outcome stores.
"""

from __future__ import annotations

import math

import numpy as np

from .channel_model import ChannelRealization, SystemConfig
from .power_allocation import (
    SIC_SLACK,
    SchemeOutcome,
    alpha_s_cap,
    eta,
    mode_i_alpha_p,
    primary_rates,
    tau,
)

__all__ = ["evaluate_selection"]


def evaluate_selection(
    chan: ChannelRealization, cfg: SystemConfig
) -> SchemeOutcome:
    """Evaluate beam selection on one realization.

    The candidate with the largest secondary SINR gamma_m wins (argmax of
    gamma equals argmax of the rate since log2 is monotone).
    """
    m_beams = cfg.m_beams
    rho, eps_p = cfg.rho, cfg.eps_p
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    base_ap = mode_i_alpha_p(g_gain, rho, eps_p)

    gammas = [0.0] * m_beams
    caps = [0.0] * m_beams
    taus = [0.0] * m_beams
    for m in range(m_beams):
        taus[m] = tau((m,), h_gain, base_ap, rho)
        caps[m] = alpha_s_cap(h_gain[m], eta(g_gain[m], rho, eps_p), taus[m], eps_p)
        gammas[m] = h_gain[m] * caps[m] / taus[m]

    best = max(range(m_beams), key=lambda m: (gammas[m], -m))
    h_b, a_s = h_gain[best], caps[best]
    alpha_p = np.array(base_ap)
    alpha_s = np.zeros(m_beams)
    alpha_p[best] = 1.0 - a_s
    alpha_s[best] = a_s
    # rate of decoding the primary signal on the chosen beam, the other
    # beams' inactive power and the noise making up tau
    decode = math.log2(1.0 + h_b * (1.0 - a_s) / (h_b * a_s + taus[best]))
    sic_ok = decode >= cfg.r_p - SIC_SLACK
    rate = math.log2(1.0 + gammas[best])
    return SchemeOutcome(
        scheme_tag="selection",
        chosen_set=(best,),
        secondary_rate_raw=rate,
        sic_ok=sic_ok,
        outage=not (sic_ok and rate >= cfg.r_s),
        primary_rates=primary_rates(g_gain, alpha_p, alpha_s, (best,), rho),
        alpha_p=alpha_p,
        alpha_s=alpha_s,
    )
