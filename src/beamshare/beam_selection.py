"""Single-beam secondary access: evaluate one channel draw end to end.

Per beam the largest admissible secondary share is computed, the beam with
the best secondary SINR wins (ties to the lowest index), and the outcome
records outage and the achieved rate.  The rate is credited only when the
SIC precondition holds on the chosen beam -- the secondary user cannot
decode anything if it fails to strip the primary signal first; the
unconditioned value log2(1 + sinr) is what the outcome stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelRealization, SystemConfig
from .link_rates import (
    SIC_SLACK,
    primary_rates,
    rate_sel_decode_primary,
    rate_sel_secondary,
)
from .power_allocation import (
    PowerCoefficients,
    alpha_s_selection,
    mode_i_alpha_p,
    tau,
)

__all__ = ["SchemeOutcome", "evaluate_selection"]


@dataclass(frozen=True)
class SchemeOutcome:
    """Result of evaluating one scheme on one channel realization."""

    scheme_tag: str                    # selection | scheme1 | scheme2
    chosen_set: tuple[int, ...]        # beams carrying secondary power
    secondary_rate_raw: float          # BPCU, ignoring the SIC precondition
    sic_ok: bool                       # SIC precondition holds on chosen_set
    outage: bool
    primary_rates: np.ndarray          # legacy users' rates, per beam
    coefficients: PowerCoefficients
    resamples: int = 0                 # singular-channel redraws (audit)

    @property
    def secondary_rate(self) -> float:
        """Rate the secondary user earns: 0 when SIC fails."""
        return self.secondary_rate_raw if self.sic_ok else 0.0


def evaluate_selection(
    chan: ChannelRealization, cfg: SystemConfig
) -> SchemeOutcome:
    """Evaluate beam selection on one realization.

    Every beam is tried with itself in NOMA mode and all others inactive;
    the candidate with the largest secondary SINR gamma_m wins (argmax of
    gamma equals argmax of the rate since log2 is monotone).
    """
    m_beams = cfg.m_beams
    rho, eps_p = cfg.rho, cfg.eps_p
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    base_ap = mode_i_alpha_p(g_gain, rho, eps_p)

    gammas = [0.0] * m_beams
    alpha_s = [0.0] * m_beams
    for m in range(m_beams):
        a = alpha_s_selection(m, h_gain, g_gain[m], base_ap, rho, eps_p)
        alpha_s[m] = a
        gammas[m] = h_gain[m] * a / tau((m,), h_gain, base_ap, rho)

    best = max(range(m_beams), key=lambda m: (gammas[m], -m))
    coeffs = _coeffs_for(best, alpha_s[best], base_ap)
    sic_ok = rate_sel_decode_primary(best, h_gain, coeffs, rho) >= cfg.r_p - SIC_SLACK
    rate = rate_sel_secondary(best, h_gain, coeffs, rho)
    return SchemeOutcome(
        scheme_tag="selection",
        chosen_set=(best,),
        secondary_rate_raw=rate,
        sic_ok=sic_ok,
        outage=not (sic_ok and rate >= cfg.r_s),
        primary_rates=primary_rates(g_gain, coeffs, rho),
        coefficients=coeffs,
    )


def _coeffs_for(
    m: int, alpha_s_m: float, base_ap: list[float]
) -> PowerCoefficients:
    """Coefficient vector with beam m in NOMA mode and the rest inactive."""
    ap = np.array(base_ap)
    as_ = np.zeros(len(base_ap))
    ap[m] = 1.0 - alpha_s_m
    as_[m] = alpha_s_m
    return PowerCoefficients(ap, as_, (m,))
