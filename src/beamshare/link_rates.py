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
    "rate_sel_secondary",
    "rate_scheme1_secondary",
    "rate_primary",
    "primary_rates",
]

# Numerical slack on the SIC precondition r_tilde >= r_p: the constructed
# coefficients meet it with equality, so exact comparison would fail on
# rounding noise alone.
SIC_SLACK = 1e-12


def _interference_others(
    m: int, h_gain: Sequence[float], coeffs: PowerCoefficients, rho: float
) -> float:
    """sum_{i != m} h_i (alpha_p_i + alpha_s_i) + 1/rho."""
    ap, as_ = coeffs.alpha_p, coeffs.alpha_s
    acc = 0.0
    for i in range(len(h_gain)):
        if i != m:
            acc += float(h_gain[i]) * (float(ap[i]) + float(as_[i]))
    return acc + 1.0 / rho


def rate_sel_decode_primary(
    m: int, h_gain: Sequence[float], coeffs: PowerCoefficients, rho: float
) -> float:
    """Secondary user's rate decoding the primary signal on beam m, with the
    secondary signals independently encoded per beam (no aggregation)."""
    num = float(h_gain[m]) * float(coeffs.alpha_p[m])
    den = float(h_gain[m]) * float(coeffs.alpha_s[m]) + _interference_others(
        m, h_gain, coeffs, rho
    )
    return math.log2(1.0 + num / den)


def rate_sel_secondary(
    m: int, h_gain: Sequence[float], coeffs: PowerCoefficients, rho: float
) -> float:
    """Secondary user's own rate on beam m after cancelling that beam's
    primary signal."""
    num = float(h_gain[m]) * float(coeffs.alpha_s[m])
    den = _interference_others(m, h_gain, coeffs, rho)
    return math.log2(1.0 + num / den)


def rate_scheme1_secondary(
    active_set: Sequence[int],
    h_gain: Sequence[float],
    coeffs: PowerCoefficients,
    rho: float,
) -> float:
    """Aggregated rate when the secondary user decodes directly, treating
    every primary signal (including those on its own beams) as noise."""
    t = 0.0
    for i in active_set:
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
