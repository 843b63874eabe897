"""Channel generation and zero-forcing beam construction.

The legacy downlink serves M single-antenna primary users from an N-antenna
base station over i.i.d. Rayleigh fading.  Beams are the classic zero-forcing
design F = G (G^H G)^-1 D with the column scaling chosen so that the total
beam power sums to one:

    D_ii = (M [(G^H G)^-1]_ii)^(-1/2)

which gives g_m^H f_i = 0 for m != i and ||f_m||^2 = 1/M for every beam.
The scalar quantities the power-allocation layer consumes are the effective
gains g_m = |g_m^H f_m|^2 and h_m = |h^H f_m|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SystemConfig",
    "TrialSeed",
    "ChannelRealization",
    "SingularChannel",
    "sample_channels",
    "zf_beams",
    "effective_gains",
    "realize",
]

# Draws with condition number at or above this are treated as numerically
# singular and redrawn (measure-zero event for continuous fading).
COND_LIMIT = 1e12

_MAX_RESAMPLES = 64


class SingularChannel(Exception):
    """Raised when G^H G is numerically singular (condition number >= 1e12)."""


@dataclass(frozen=True)
class SystemConfig:
    """Experiment parameters for one operating point.

    n_antennas : base-station antenna count N
    m_beams    : number of preconfigured beams / primary users M
    rho        : transmit SNR, linear scale (noise power is normalized to 1)
    r_p        : per-primary-user target rate, bits per channel use
    r_s        : secondary-user target rate, bits per channel use
    """

    n_antennas: int
    m_beams: int
    rho: float
    r_p: float
    r_s: float

    def __post_init__(self) -> None:
        if self.m_beams < 1:
            raise ValueError("m_beams must be >= 1")
        if self.n_antennas < self.m_beams:
            raise ValueError(
                "n_antennas must be >= m_beams (zero-forcing needs at least "
                "as many antennas as beams)"
            )
        if not (self.rho > 0.0) or not math.isfinite(self.rho):
            raise ValueError("rho must be a positive finite linear SNR")
        if not (self.r_p > 0.0):
            raise ValueError("r_p must be > 0 BPCU")
        if self.r_s < 0.0:
            raise ValueError("r_s must be >= 0 BPCU")
        try:
            eps_p = self.eps_p
        except OverflowError:
            eps_p = math.inf
        if not math.isfinite(eps_p):
            raise ValueError("r_p is too large: the SINR threshold 2**r_p - 1 overflows")

    @cached_property
    def eps_p(self) -> float:
        """SINR threshold 2^r_p - 1 protecting the primary users."""
        return 2.0 ** self.r_p - 1.0


@dataclass(frozen=True)
class TrialSeed:
    """Counter-based seed: (experiment_seed, trial_index) -> random stream.

    The mapping is a pure function, so any trial can be replayed in
    isolation and workers never share generator state.  ``attempt`` is bumped
    only when a singular draw forces a redraw, keeping resampling
    reproducible as well.
    """

    experiment_seed: int
    trial_index: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.experiment_seed < 2 ** 64:
            raise ValueError("experiment_seed must fit in 64 bits")
        if self.trial_index < 0 or self.attempt < 0:
            raise ValueError("trial_index and attempt must be >= 0")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            (self.experiment_seed, self.trial_index, self.attempt)
        )


@dataclass(frozen=True)
class ChannelRealization:
    """One Monte Carlo draw with its zero-forcing beams and scalar gains."""

    G: np.ndarray        # N x M primary channel matrix, columns g_m
    h: np.ndarray        # length-N secondary channel
    F: np.ndarray        # N x M beam matrix, columns f_m
    g_gain: np.ndarray   # g_m = |g_m^H f_m|^2
    h_gain: np.ndarray   # h_m = |h^H f_m|^2
    resamples: int = 0   # singular-channel redraws consumed by this trial


def sample_channels(
    cfg: SystemConfig, seed: TrialSeed
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (G, h) with i.i.d. CN(0, 1) entries, deterministically from seed.

    Real and imaginary parts are each N(0, 1/2) so every entry has unit
    variance.  G is drawn before h, in a fixed order, to keep the stream
    layout stable.
    """
    rng = seed.rng()
    n, m = cfg.n_antennas, cfg.m_beams
    scale = math.sqrt(0.5)
    G = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    h = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return G, h


def zf_beams(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the normalized zero-forcing beams for channel matrix G.

    Returns (F, g_gain) with F = G (G^H G)^-1 D and g_gain[m] = |g_m^H f_m|^2.
    Raises SingularChannel when G is rank deficient at working precision.
    """
    n, m = G.shape
    if n < m:
        raise ValueError("G must have at least as many rows as columns")
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] <= 0.0 or not np.isfinite(sv[0]) or sv[0] / sv[-1] >= COND_LIMIT:
        raise SingularChannel(
            f"channel matrix condition number {sv[0] / max(sv[-1], 1e-300):.3e} "
            f"exceeds {COND_LIMIT:.0e}"
        )
    gram_inv = np.linalg.inv(G.conj().T @ G)
    diag = np.real(np.diag(gram_inv))
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise SingularChannel("Gram inverse has non-positive diagonal")
    d = 1.0 / np.sqrt(m * diag)
    F = (G @ gram_inv) * d
    g_gain = np.abs(np.einsum("nm,nm->m", G.conj(), F)) ** 2
    return F, g_gain


def effective_gains(h: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Secondary-user gains h_m = |h^H f_m|^2.

    The aggregation schemes assume the combining phases that align the beams
    coherently at the secondary user, so only the gains enter the rates.
    """
    return np.abs(h.conj() @ F) ** 2


def realize(cfg: SystemConfig, seed: TrialSeed) -> ChannelRealization:
    """Draw a full channel realization, redrawing on singular channels.

    Each redraw derives a fresh sub-seed (same experiment seed and trial
    index, bumped attempt counter), so the result is a pure function of
    (cfg, seed) regardless of how many redraws occur.
    """
    for attempt in range(seed.attempt, seed.attempt + _MAX_RESAMPLES):
        sub = TrialSeed(seed.experiment_seed, seed.trial_index, attempt)
        G, h = sample_channels(cfg, sub)
        try:
            F, g_gain = zf_beams(G)
        except SingularChannel:
            continue
        return ChannelRealization(
            G=G,
            h=h,
            F=F,
            g_gain=g_gain,
            h_gain=effective_gains(h, F),
            resamples=attempt - seed.attempt,
        )
    raise SingularChannel(
        f"{_MAX_RESAMPLES} consecutive singular draws for {seed}"
    )
