"""Single-beam secondary access, scored on a block of cells at once.

Every beam is tried with itself in NOMA mode and all others inactive.  Its
tau, computed once, sets the largest admissible secondary share, the
secondary SINR gamma and the rate at which the secondary user decodes the
primary signal on that beam.  The beam with the best gamma wins (ties to the
lowest index).  The rate is credited only when the SIC precondition holds on
the chosen beam -- the secondary user cannot decode anything if it fails to
strip the primary signal first; the outcome stores the unconditioned gamma,
whose rate log2(1 + gamma) is taken when read.

evaluate_selection_block scores every (SNR point, trial) cell of a block as
numpy arrays, beam by beam, with each cell's floats computed in the order
of a scalar evaluation of that cell; evaluate_selection scores the block of
one, a one-trial ChannelBlock at one SNR point.
"""

from __future__ import annotations

import numpy as np

from .channel_model import ChannelBlock, SystemConfig
from .power_allocation import (
    SIC_SLACK,
    CellOutcomes,
    alpha_s_cap,
    eta,
    log2_at_least,
    mode_i_alpha_p,
    snr_points,
    tau,
)

__all__ = ["evaluate_selection", "evaluate_selection_block"]


def evaluate_selection_block(
    g_gain: np.ndarray, h_gain: np.ndarray, cfg: SystemConfig
) -> CellOutcomes:
    """Evaluate beam selection on every (SNR point, trial) cell of a block.

    g_gain and h_gain are (M, T), beam-major; cfg.rho holds the SNR points,
    one per row of the cells (see snr_points).  The candidate with the
    largest secondary SINR gamma_m wins (argmax of gamma equals argmax of
    the rate since log2 is monotone).
    """
    rho = snr_points(g_gain, cfg)
    eps_p = cfg.eps_p
    g, h = g_gain[:, None, :], h_gain[:, None, :]
    base_ap = mode_i_alpha_p(g, rho, eps_p)
    # beam m's tau sums every beam but m: row m of the mask
    taus = tau(h, base_ap, rho, ~np.eye(len(g), dtype=bool)[:, :, None, None])
    caps = alpha_s_cap(h, eta(g, rho, eps_p), taus, eps_p)
    gammas = h * caps / taus
    best = np.argmax(gammas, axis=0)  # ties to the lowest index
    rows, cols = np.indices(best.shape, sparse=True)
    pick = (best, rows, cols)  # each cell's chosen beam
    h_b, a_s = h_gain[best, cols], caps[pick]
    # whether the primary signal on the chosen beam decodes at r_p, the
    # other beams' inactive power and the noise making up tau
    sic_ok = log2_at_least(
        1.0 + h_b * (1.0 - a_s) / (h_b * a_s + taus[pick]), cfg.r_p - SIC_SLACK
    )
    sinr = gammas[pick]

    def split():
        chosen = np.arange(len(g))[:, None, None] == best
        return chosen, np.where(chosen, 1.0 - caps, base_ap), np.where(chosen, caps, 0.0)

    return CellOutcomes(
        sinr=sinr,
        sic_ok=sic_ok,
        outage=~(sic_ok & log2_at_least(1.0 + sinr, cfg.r_s)),
        build_split=split,
        g_gain=g,
        rho=rho,
    )


def evaluate_selection(chan: ChannelBlock, cfg: SystemConfig) -> CellOutcomes:
    """Evaluate beam selection on the draws of chan at cfg's SNR point."""
    return evaluate_selection_block(chan.g_gain, chan.h_gain, cfg)
