"""Achievable-rate formulas, in bits per channel use.

Every rate is assembled in the SINR domain and converted once through
log2(1 + sinr); nothing is computed by subtracting logarithms.  Interference
sums accumulate in ascending beam order with the 1/rho noise term added
last, so algebraically identical expressions evaluated by different callers
produce bit-identical floats.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .power_allocation import PowerCoefficients

__all__ = [
    "SIC_SLACK",
    "rate_sel_decode_primary",
    "rate_scheme1_secondary",
    "rate_primary",
    "primary_rates",
]

# Numerical slack on the SIC precondition r_tilde >= r_p: the constructed
# coefficients meet it with equality, so exact comparison would fail on
# rounding noise alone.
SIC_SLACK = 1e-12


def rate_sel_decode_primary(h_m: float, alpha_s_m: float, tau_m: float) -> float:
    """Secondary user's rate decoding the primary signal on the one beam m
    it uses: that beam carries alpha_p_m = 1 - alpha_s_m, and tau_m is the
    interference-plus-noise from the other (inactive) beams."""
    num = h_m * (1.0 - alpha_s_m)
    return math.log2(1.0 + num / (h_m * alpha_s_m + tau_m))


def rate_scheme1_secondary(
    h_gain: Sequence[float], coeffs: PowerCoefficients, rho: float
) -> float:
    """Aggregated rate when the secondary user combines every beam's share
    coherently and decodes directly, treating every primary signal
    (including those on its own beams) as noise."""
    t = 0.0
    for i in range(len(h_gain)):
        t += math.sqrt(float(h_gain[i]) * float(coeffs.alpha_s[i]))
    num = t * t
    acc = 0.0
    for j in range(len(h_gain)):
        acc += float(h_gain[j]) * float(coeffs.alpha_p[j])
    return math.log2(1.0 + num / (acc + 1.0 / rho))


def rate_primary(
    m: int,
    g_m: float,
    coeffs: PowerCoefficients,
    rho: float,
    in_active_set: bool,
) -> float:
    """Legacy user's rate on its own beam.

    Zero-forcing removes all inter-beam interference at the primary
    receivers, so only the superimposed secondary signal (|beta_m|^2 = 1)
    and noise remain when the beam is active.
    """
    ap = float(coeffs.alpha_p[m])
    if in_active_set:
        return math.log2(1.0 + g_m * ap / (g_m * float(coeffs.alpha_s[m]) + 1.0 / rho))
    return math.log2(1.0 + g_m * ap * rho)


def primary_rates(
    g_gain: Sequence[float], coeffs: PowerCoefficients, rho: float
) -> np.ndarray:
    """Every legacy user's rate under coeffs, beams in coeffs.active_set
    carrying secondary power."""
    active = set(coeffs.active_set)
    return np.array(
        [
            rate_primary(m, g_gain[m], coeffs, rho, in_active_set=(m in active))
            for m in range(len(g_gain))
        ]
    )
