"""Per-beam budget rules shared by the three access schemes.

Every beam splits its share of the budget between the legacy primary signal
(alpha_p) and the superimposed secondary signal (alpha_s), with
alpha_p + alpha_s <= 1 per beam.  The rules more than one scheme uses live
here:

* the inactive split alpha_p = min(1, eps_p / (rho g_m)), alpha_s = 0, which
  is the cheapest allocation meeting the legacy target on a clean beam;
* eta_m, the minimum primary share preserving QoS under NOMA, and tau, the
  interference-plus-noise from the beams outside the secondary user's set;
* beam_sum, the one sum over beams: one beam at a time in ascending order,
  because np.sum adds pairwise and would round differently;
* the single-beam alpha_s cap, the smaller of the QoS and SIC caps, which
  selection and scheme 2's singleton sets share;
* the legacy users' rates, and the CellOutcomes arrays every scheme returns
  for a block of cells, a single cell being the block of one.

Each scheme module builds its own split from these rules.  Every rule is
elementwise: a gain, share or rho may be a float or an array over cells, and
per-beam sequences are beam-major (item m belongs to beam m), so one rule
serves a single draw and a whole (SNR point, trial) block with the same
float operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SIC_SLACK",
    "CellOutcomes",
    "snr_points",
    "eta",
    "beam_sum",
    "tau",
    "mode_i_alpha_p",
    "alpha_s_cap",
    "primary_rates",
    "log2_each",
]

# Numerical slack on the SIC precondition r_tilde >= r_p: the constructed
# coefficients meet it with equality, so exact comparison would fail on
# rounding noise alone.
SIC_SLACK = 1e-12


@dataclass(frozen=True)
class CellOutcomes:
    """One scheme's outcomes on every (SNR point, trial) cell of a block.

    Cell values have shape (S, T); per-beam values are beam-major, (M, S, T),
    with g_gain (M, 1, T) and rho (S, 1) broadcasting to them.  One cell
    is the block of one, S = T = 1.
    """

    secondary_rate_raw: np.ndarray
    sic_ok: np.ndarray
    outage: np.ndarray
    chosen: np.ndarray                 # mask of the beams carrying secondary power
    alpha_p: np.ndarray
    alpha_s: np.ndarray
    g_gain: np.ndarray
    rho: np.ndarray
    counts: dict = field(default_factory=dict)  # the scheme's search counters

    @property
    def secondary_rate(self) -> np.ndarray:
        return np.where(self.sic_ok, self.secondary_rate_raw, 0.0)

    @property
    def primary_rates(self) -> np.ndarray:
        return primary_rates(
            self.g_gain, self.alpha_p, self.alpha_s, self.chosen, self.rho
        )


def snr_points(g_gain: np.ndarray, cfgs: Sequence) -> tuple:
    """The SNR points of a block of cells: the config they share, cfgs[0],
    and their rho as an (S, 1) column.  Raises ValueError unless every
    config equals cfgs[0] apart from rho and has one beam per row of
    g_gain, since a block pass applies cfgs[0]'s targets to every row."""
    cfg = cfgs[0]
    shared = (cfg.n_antennas, cfg.m_beams, cfg.r_p, cfg.r_s)
    if cfg.m_beams != len(g_gain) or any(
        (c.n_antennas, c.m_beams, c.r_p, c.r_s) != shared for c in cfgs
    ):
        raise ValueError(
            "a block's SNR points must differ in rho alone and have one beam "
            "per row of g_gain"
        )
    return cfg, np.array([c.rho for c in cfgs])[:, None]


def eta(g_m: float, rho: float, eps_p: float) -> float:
    """Minimum primary share on beam m preserving legacy QoS under NOMA.

    eta = eps_p (g_m + 1/rho) / (g_m (1 + eps_p)); eta <= 1 exactly when
    g_m >= eps_p / rho.
    """
    return eps_p * (g_m + 1.0 / rho) / (g_m * (1.0 + eps_p))


def beam_sum(terms, where=None):
    """terms[k] summed over the leading beam axis in ascending k from 0.0,
    each added only where its mask where[k] holds.  A term left out adds
    0.0, which leaves a sum from 0.0 unchanged bit for bit, so every cell is
    the scalar sum over its kept beams.  where may be any iterable of masks,
    so a caller can build them one beam at a time."""
    if where is not None:
        terms = (np.where(keep, term, 0.0) for term, keep in zip(terms, where))
    acc = 0.0
    for term in terms:
        acc = acc + term
    return acc


def tau(h_gain, alpha_p, rho, outside=None):
    """Residual interference-plus-noise from the beams outside the active
    set: beam_sum of h_j alpha_p_j where outside[j] holds (every beam when
    outside is None), plus 1/rho; those beams carry their inactive-mode
    alpha_p."""
    return beam_sum(np.multiply(h_gain, alpha_p), outside) + 1.0 / rho


def mode_i_alpha_p(g_gain: Sequence, rho, eps_p: float) -> np.ndarray:
    """Inactive-mode alpha_p = min(1, eps_p / (rho g_m)) for every beam."""
    return np.minimum(1.0, eps_p / (rho * np.asarray(g_gain, dtype=float)))


def alpha_s_cap(h_m, eta_m, tau_m, eps_p: float):
    """Largest admissible secondary share when beam m alone serves the
    secondary user: min of the QoS cap (1 - eta_m) and the SIC cap, both
    clamped at 0, and 0 on a zero-gain beam.

    The SIC cap (h_m - eps_p tau_m) / ((1 + eps_p) h_m) is the largest
    secondary share that still lets the secondary user decode the primary
    signal on beam m before its own.  Shared verbatim by selection and the
    aggregation solver so the two stay bit-identical on singleton sets.
    np.maximum and np.minimum equal max and min only on NaN-free input, and
    the SIC cap is NaN or infinite on a zero-gain beam, hence its own branch.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cap_sic = np.divide(h_m - eps_p * tau_m, (1.0 + eps_p) * h_m)
        cap = np.minimum(np.maximum(0.0, 1.0 - eta_m), np.maximum(0.0, cap_sic))
    return np.where(h_m <= 0.0, 0.0, cap)[()]


def primary_rates(
    g_gain: Sequence,
    alpha_p: np.ndarray,
    alpha_s: np.ndarray,
    chosen: np.ndarray,
    rho,
) -> np.ndarray:
    """Every legacy user's rate, the beams marked in the mask chosen
    carrying secondary power.

    Zero-forcing removes all inter-beam interference at the primary
    receivers, so only the superimposed secondary signal (|beta_m|^2 = 1)
    and noise remain on a chosen beam.  The two branches are kept apart
    because g a / (g alpha_s + 1/rho) and g a rho round differently.
    """
    g = np.asarray(g_gain, dtype=float)
    on = g * alpha_p / (g * alpha_s + 1.0 / rho)
    off = g * alpha_p * rho
    return log2_each(1.0 + np.where(chosen, on, off))


def log2_each(x: np.ndarray) -> np.ndarray:
    """math.log2 of every element.  np.log2 differs from it by 1 ulp on
    about 1 value in 4,000, and the rates are defined by math.log2."""
    values = map(math.log2, x.ravel().tolist())
    return np.fromiter(values, float, x.size).reshape(x.shape)
