"""Closed-form power-allocation coefficients.

Every beam splits its share of the budget between the legacy primary signal
(alpha_p) and the superimposed secondary signal (alpha_s), with
alpha_p + alpha_s <= 1 per beam.  Three closed forms cover all modes:

* inactive beam:   alpha_p = min(1, eps_p / (rho g_m)), alpha_s = 0, which is
  the cheapest allocation meeting the legacy target on a clean beam;
* single-beam NOMA: alpha_s capped by both the primary user's QoS on that
  beam and the secondary user's ability to decode the primary signal first;
* aggregated direct decoding: alpha_p = min(1, eta_m), alpha_s = 1 - alpha_p
  on every aggregated beam.

The shared quantities eta_m (minimum primary share preserving QoS under
NOMA) and tau_d (interference-plus-noise from beams outside the aggregation
set) also live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel_model import SystemConfig

__all__ = [
    "PowerCoefficients",
    "alpha_p_inactive",
    "alpha_s_selection",
    "scheme1_coefficients",
    "mode_i_alpha_p",
    "eta",
    "tau",
]


@dataclass(frozen=True)
class PowerCoefficients:
    """Per-beam power split plus the set of beams carrying secondary power."""

    alpha_p: np.ndarray
    alpha_s: np.ndarray
    active_set: tuple[int, ...]


def eta(g_m: float, rho: float, eps_p: float) -> float:
    """Minimum primary share on beam m preserving legacy QoS under NOMA.

    eta = eps_p (g_m + 1/rho) / (g_m (1 + eps_p)); eta <= 1 exactly when
    g_m >= eps_p / rho.
    """
    return eps_p * (g_m + 1.0 / rho) / (g_m * (1.0 + eps_p))


def tau(
    active_set: Sequence[int],
    h_gain: Sequence[float],
    alpha_p: Sequence[float],
    rho: float,
) -> float:
    """Residual interference-plus-noise from beams outside the active set.

    tau = sum over complement of h_j alpha_p_j, plus 1/rho.  Beams outside
    the active set are expected to carry their inactive-mode alpha_p.
    """
    active = set(active_set)
    acc = 0.0
    for j in range(len(h_gain)):
        if j not in active:
            acc += float(h_gain[j]) * float(alpha_p[j])
    return acc + 1.0 / rho


def alpha_p_inactive(g_m: float, rho: float, eps_p: float) -> float:
    """Primary share on a beam the secondary user does not touch."""
    return min(1.0, eps_p / (rho * g_m))


def mode_i_alpha_p(g_gain: Sequence[float], rho: float, eps_p: float) -> list[float]:
    """Inactive-mode alpha_p for every beam."""
    return [alpha_p_inactive(float(g), rho, eps_p) for g in g_gain]


def _alpha_s_capped(h_m: float, eta_m: float, tau_m: float, eps_p: float) -> float:
    """min of the QoS cap (1 - eta_m) and the SIC cap, both clamped at 0.

    The SIC cap (h_m - eps_p tau_m) / ((1 + eps_p) h_m) is the largest
    secondary share that still lets the secondary user decode the primary
    signal on beam m before its own.  Shared verbatim by the single-beam
    evaluation and the aggregation solver so the two stay bit-identical on
    singleton sets.
    """
    if h_m <= 0.0:
        return 0.0
    cap_qos = max(0.0, 1.0 - eta_m)
    cap_sic = max(0.0, (h_m - eps_p * tau_m) / ((1.0 + eps_p) * h_m))
    return min(cap_qos, cap_sic)


def alpha_s_selection(
    m: int,
    h_gain: Sequence[float],
    g_m: float,
    alpha_p_others: Sequence[float],
    rho: float,
    eps_p: float,
) -> float:
    """Largest admissible secondary share when only beam m serves the user.

    alpha_p_others holds inactive-mode coefficients for the beams i != m
    (entry m is ignored).  Returns 0 on a zero-gain beam.
    """
    tau_m = tau((m,), h_gain, alpha_p_others, rho)
    return _alpha_s_capped(float(h_gain[m]), eta(g_m, rho, eps_p), tau_m, eps_p)


def scheme1_coefficients(
    cfg: SystemConfig,
    g_gain: Sequence[float],
    active_set: Sequence[int],
) -> PowerCoefficients:
    """Power split for aggregated direct decoding.

    Active beams give the secondary user everything the legacy QoS can
    spare (alpha_p = min(1, eta_m), alpha_s = 1 - alpha_p, which sums to one
    exactly whenever g_m >= eps_p/rho); the rest run in inactive mode.
    """
    m_beams = cfg.m_beams
    rho, eps_p = cfg.rho, cfg.eps_p
    active = set(active_set)
    if not active <= set(range(m_beams)):
        raise ValueError("active_set contains an invalid beam index")
    alpha_p = np.empty(m_beams)
    alpha_s = np.zeros(m_beams)
    for m in range(m_beams):
        g = float(g_gain[m])
        if m in active:
            ap = min(1.0, eta(g, rho, eps_p))
            alpha_p[m] = ap
            alpha_s[m] = 1.0 - ap
        else:
            alpha_p[m] = alpha_p_inactive(g, rho, eps_p)
    return PowerCoefficients(alpha_p, alpha_s, tuple(sorted(active)))
