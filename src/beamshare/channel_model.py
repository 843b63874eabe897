"""Channel generation and zero-forcing beam construction.

The legacy downlink serves M single-antenna primary users from an N-antenna
base station over i.i.d. Rayleigh fading.  Beams are the classic zero-forcing
design F = G (G^H G)^-1 D with the column scaling chosen so that the total
beam power sums to one:

    D_ii = (M [(G^H G)^-1]_ii)^(-1/2)

which gives g_m^H f_i = 0 for m != i and ||f_m||^2 = 1/M for every beam.
The scalar quantities the power-allocation layer consumes are the effective
gains g_m = |g_m^H f_m|^2 and h_m = |h^H f_m|^2.

A block of trials is drawn one trial at a time, each from its own seed, and
zero-forced as one stack; realize is the block of one.  The stacked linear
algebra does per matrix what the single call does, so every trial's values
are bit for bit the same whatever block it is drawn in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

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
    "realize_block",
]

# Draws with condition number at or above this are treated as numerically
# singular and redrawn (measure-zero event for continuous fading).
COND_LIMIT = 1e12

_MAX_RESAMPLES = 64


class SingularChannel(Exception):
    """Raised when G^H G is numerically singular (condition number >= 1e12).

    ``rows`` holds the indices of the singular matrices of a stack; None
    means every matrix.
    """

    def __init__(self, message: str, rows: Sequence[int] | None = None):
        super().__init__(message)
        self.rows = rows


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
    """Build the normalized zero-forcing beams for channel matrix G, or for
    each matrix of a stack G[..., N, M].

    Returns (F, g_gain) with F = G (G^H G)^-1 D and g_gain[m] = |g_m^H f_m|^2.
    Raises SingularChannel, naming the stack's offending matrices, when any
    is rank deficient at working precision.
    """
    n, m = G.shape[-2:]
    if n < m:
        raise ValueError("G must have at least as many rows as columns")
    sv = np.linalg.svd(G, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[..., 0] / sv[..., -1]  # inf or nan when rank deficient
    _raise_if_any(~(cond < COND_LIMIT), f"condition number >= {COND_LIMIT:.0e}")
    gram_inv = np.linalg.inv(G.conj().swapaxes(-1, -2) @ G)
    diag = np.real(np.diagonal(gram_inv, axis1=-2, axis2=-1))
    ok = np.all((diag > 0.0) & np.isfinite(diag), axis=-1)
    _raise_if_any(~ok, "Gram inverse has a non-positive diagonal")
    d = 1.0 / np.sqrt(m * diag)
    F = (G @ gram_inv) * d[..., None, :]
    g_gain = np.abs(np.einsum("...nm,...nm->...m", G.conj(), F)) ** 2
    return F, g_gain


def _raise_if_any(singular: np.ndarray, reason: str) -> None:
    if singular.any():
        rows = np.flatnonzero(singular).tolist()
        raise SingularChannel(f"singular channel matrix {rows}: {reason}", rows)


def effective_gains(h: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Secondary-user gains h_m = |h^H f_m|^2.

    The aggregation schemes assume the combining phases that align the beams
    coherently at the secondary user, so only the gains enter the rates.
    """
    return np.abs((h.conj()[..., None, :] @ F)[..., 0, :]) ** 2


def realize(cfg: SystemConfig, seed: TrialSeed) -> ChannelRealization:
    """Draw a full channel realization, redrawing on singular channels.

    Each redraw derives a fresh sub-seed (same experiment seed and trial
    index, bumped attempt counter), so the result is a pure function of
    (cfg, seed) regardless of how many redraws occur.
    """
    return realize_block(cfg, [seed])[0]


def realize_block(
    cfg: SystemConfig, seeds: Sequence[TrialSeed]
) -> list[ChannelRealization]:
    """Draw one realization per seed, zero-forced as one stack.

    Each trial samples from its own seed, as realize does.  A singular
    matrix redraws only its own trial, from the next attempt's stream, and
    the stack is zero-forced again; so each realization equals
    realize(cfg, seed) bit for bit.
    """
    attempts = [seed.attempt for seed in seeds]
    draws = [sample_channels(cfg, seed) for seed in seeds]
    while True:
        try:
            F, g_gain = zf_beams(np.stack([G for G, _ in draws]))
            break
        except SingularChannel as exc:
            for i in range(len(seeds)) if exc.rows is None else exc.rows:
                attempts[i] += 1
                if attempts[i] - seeds[i].attempt >= _MAX_RESAMPLES:
                    raise SingularChannel(
                        f"{_MAX_RESAMPLES} consecutive singular draws for {seeds[i]}"
                    ) from None
                draws[i] = sample_channels(cfg, replace(seeds[i], attempt=attempts[i]))
    h = np.stack([h for _, h in draws])
    h_gain = effective_gains(h, F)
    return [
        ChannelRealization(
            G=G,
            h=h[i],
            F=F[i],
            g_gain=g_gain[i],
            h_gain=h_gain[i],
            resamples=attempts[i] - seed.attempt,
        )
        for i, ((G, _), seed) in enumerate(zip(draws, seeds))
    ]
