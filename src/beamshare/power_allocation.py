"""Per-beam budget rules shared by the three access schemes.

Every beam splits its share of the budget between the legacy primary signal
(alpha_p) and the superimposed secondary signal (alpha_s), with
alpha_p + alpha_s <= 1 per beam.  The rules more than one scheme uses live
here:

* the inactive split alpha_p = min(1, eps_p / (rho g_m)), alpha_s = 0, which
  is the cheapest allocation meeting the legacy target on a clean beam;
* eta_m, the minimum primary share preserving QoS under NOMA, and tau, the
  interference-plus-noise from the beams outside the secondary user's set;
* the single-beam alpha_s cap, the smaller of the QoS and SIC caps, which
  selection and scheme 2's singleton sets share;
* the legacy users' rates and the SchemeOutcome record every scheme returns.

Each scheme module builds its own split from these rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SIC_SLACK",
    "SchemeOutcome",
    "eta",
    "tau",
    "mode_i_alpha_p",
    "alpha_s_cap",
    "primary_rates",
]

# Numerical slack on the SIC precondition r_tilde >= r_p: the constructed
# coefficients meet it with equality, so exact comparison would fail on
# rounding noise alone.
SIC_SLACK = 1e-12


@dataclass(frozen=True)
class SchemeOutcome:
    """Result of evaluating one scheme on one channel realization."""

    scheme_tag: str                    # selection | scheme1 | scheme2
    chosen_set: tuple[int, ...]        # beams carrying secondary power
    secondary_rate_raw: float          # BPCU, ignoring the SIC precondition
    sic_ok: bool                       # SIC precondition holds on chosen_set
    outage: bool
    primary_rates: np.ndarray          # legacy users' rates, per beam
    alpha_p: np.ndarray                # primary share, per beam
    alpha_s: np.ndarray                # secondary share, per beam

    @property
    def secondary_rate(self) -> float:
        """Rate the secondary user earns: 0 when SIC fails."""
        return self.secondary_rate_raw if self.sic_ok else 0.0


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


def mode_i_alpha_p(g_gain: Sequence[float], rho: float, eps_p: float) -> list[float]:
    """Inactive-mode alpha_p = min(1, eps_p / (rho g_m)) for every beam."""
    return [min(1.0, eps_p / (rho * float(g))) for g in g_gain]


def alpha_s_cap(h_m: float, eta_m: float, tau_m: float, eps_p: float) -> float:
    """Largest admissible secondary share when beam m alone serves the
    secondary user: min of the QoS cap (1 - eta_m) and the SIC cap, both
    clamped at 0, and 0 on a zero-gain beam.

    The SIC cap (h_m - eps_p tau_m) / ((1 + eps_p) h_m) is the largest
    secondary share that still lets the secondary user decode the primary
    signal on beam m before its own.  Shared verbatim by selection and the
    aggregation solver so the two stay bit-identical on singleton sets.
    """
    if h_m <= 0.0:
        return 0.0
    cap_qos = max(0.0, 1.0 - eta_m)
    cap_sic = max(0.0, (h_m - eps_p * tau_m) / ((1.0 + eps_p) * h_m))
    return min(cap_qos, cap_sic)


def primary_rates(
    g_gain: Sequence[float],
    alpha_p: np.ndarray,
    alpha_s: np.ndarray,
    chosen: tuple[int, ...],
    rho: float,
) -> np.ndarray:
    """Every legacy user's rate, the beams in chosen carrying secondary power.

    Zero-forcing removes all inter-beam interference at the primary
    receivers, so only the superimposed secondary signal (|beta_m|^2 = 1)
    and noise remain on a chosen beam.  The two branches are kept apart
    because g a / (g alpha_s + 1/rho) and g a rho round differently.
    """
    rates = []
    for m, g_m in enumerate(g_gain):
        ap = float(alpha_p[m])
        if m in chosen:
            sinr = g_m * ap / (g_m * float(alpha_s[m]) + 1.0 / rho)
        else:
            sinr = g_m * ap * rho
        rates.append(math.log2(1.0 + sinr))
    return np.array(rates)
