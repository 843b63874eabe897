"""Channel generation and zero-forcing beam construction.

The legacy downlink serves M single-antenna primary users from an N-antenna
base station over i.i.d. Rayleigh fading.  Beams are the classic zero-forcing
design F = G (G^H G)^-1 D with the column scaling chosen so that the total
beam power sums to one:

    D_ii = (M [(G^H G)^-1]_ii)^(-1/2)

which gives g_m^H f_i = 0 for m != i and ||f_m||^2 = 1/M for every beam.
The scalar quantities the power-allocation layer consumes are the effective
gains g_m = |g_m^H f_m|^2 and h_m = |h^H f_m|^2.

Each trial's random stream is the PCG64 generator that
default_rng((experiment_seed, trial_index, attempt)) returns.  Its first
2NM + 2N standard normals are, in order, the real and imaginary parts of G
(both row-major), and the real and imaginary parts of h, so an (N, M) draw
is a prefix of a larger geometry's: a block of trials is drawn once, as far
as its largest geometry needs.  Seeds are (experiment_seed, trial_index,
attempt) rows of a uint64 array.  numpy's SeedSequence hash runs as uint32
array arithmetic over them, the PCG64 seeding in Python integers, and each
trial's normals come from one standard_normal call on a generator that
each sample_channels call builds, its state set to that trial's (one call
equals the reference's four, as each call only continues the stream).
Each geometry's block is zero-forced as one stack; realize is the block of
one.  The stacked linear algebra does per matrix what the single call
does, so every trial's values are bit for bit the same whatever block it
is drawn in.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SystemConfig",
    "TrialSeed",
    "ChannelBlock",
    "SingularChannel",
    "sample_channels",
    "zf_beams",
    "effective_gains",
    "realize",
    "realize_block",
]

# A draw whose Gram matrix A = G^H G has ||A||_F ||A^-1||_F at or above
# this is treated as numerically singular and redrawn (zf_beams); that puts
# the limit on cond(G) between 1e6 / sqrt(M) and 1e6
COND_LIMIT = 1e12

_MAX_RESAMPLES = 64

# numpy's SeedSequence (bit_generator.pyx): pool size, hash constants and
# the right shift of its hashmix and mix steps
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (pcg_setseq_128_step_r)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


class SingularChannel(Exception):
    """Raised when A = G^H G is numerically singular (||A||_F ||A^-1||_F
    not below COND_LIMIT) or cannot be inverted, and when a trial stays
    singular for _MAX_RESAMPLES draws.

    ``rows`` holds the indices of the singular matrices of a stack, or of
    the trial in its block.
    """

    def __init__(self, message: str, rows: Sequence[int]):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class SystemConfig:
    """Experiment parameters for one operating point, or for a block of SNR
    points that share everything but rho.

    n_antennas : base-station antenna count N
    m_beams    : number of preconfigured beams / primary users M
    rho        : transmit SNR, linear scale (noise power is normalized to 1),
                 in [1e-100, 1e100], or a nonempty tuple of them, one per
                 SNR point of a block
    r_p        : per-primary-user target rate, bits per channel use, in
                 (0, 256]
    r_s        : secondary-user target rate, bits per channel use, >= 0
    """

    n_antennas: int
    m_beams: int
    rho: float | tuple[float, ...]
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
        # past these ranges a block's interference, SINR thresholds or
        # rates can overflow a double
        rhos = self.rho if isinstance(self.rho, tuple) else (self.rho,)
        if not rhos or not all(1e-100 <= rho <= 1e100 for rho in rhos):
            raise ValueError(
                "rho must be a linear SNR in [1e-100, 1e100] (snr_db in [-1000, 1000])"
            )
        if not 0.0 < self.r_p <= 256.0:
            raise ValueError("r_p must be in (0, 256] BPCU")
        if self.r_s < 0.0:
            raise ValueError("r_s must be >= 0 BPCU")

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
        if not (0 <= self.trial_index < 2 ** 64 and 0 <= self.attempt < 2 ** 64):
            raise ValueError("trial_index and attempt must be in [0, 2**64)")

    def rng(self) -> np.random.Generator:
        """The trial's stream, the mapping sample_channels reproduces."""
        return np.random.default_rng(
            (self.experiment_seed, self.trial_index, self.attempt)
        )


def _schedule(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants of `calls` hashmix steps, init * mult**k mod
    2**32 for k <= calls, as a column; they do not depend on the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of value with each of len(consts) - 1 successive constants."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


# an entropy of at most 6 words (three parts below 2**64) takes 4 hashmix
# calls per word, and generate_state one per output word
_CONSTS_A = _schedule(_INIT_A, _MULT_A, 6 * _POOL)
_CONSTS_B = _schedule(_INIT_B, _MULT_B, 2 * _POOL)
# the pool words each source word is mixed into, in order; the pool words
# generate_state cycles through
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]
_CYCLE = np.arange(2 * _POOL) % _POOL


def _seed_states(seeds: np.ndarray) -> list[list[int]]:
    """SeedSequence((experiment_seed, trial_index, attempt))
    .generate_state(4, uint64) of every row of the (T, 3) uint64 array
    seeds, hashed for all rows at once.

    The entropy is each part's little-endian uint32 words: the low word,
    then the high word unless it is 0.  SeedSequence hashes a missing pool
    word as 0, so seeds of at most _POOL words need no more than zero
    padding; longer ones mix their extra words in.  Seeds whose parts have
    the same high words present share one pass.
    """
    words = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").T
    layout = np.array([1, 2, 4]) @ (words[1::2] != 0)  # which high words are present
    state = np.empty((len(seeds), 2 * _POOL), dtype="<u4")
    for code in set(layout.tolist()):
        cols = layout == code
        used = [k for k in range(6) if k % 2 == 0 or code >> k // 2 & 1]
        count = max(len(used), _POOL)
        # an absent high word is 0: it pads a short entropy with zeros
        entropy = words[used + [k for k in range(6) if k not in used]][:count, cols]
        pool = _hashmix(entropy[:_POOL], _CONSTS_A[: _POOL + 1])
        k = _POOL
        for src, dst in enumerate(_OTHERS):  # mix every pool word into the others
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], _CONSTS_A[k : k + _POOL]))
            k += _POOL - 1
        for word in entropy[_POOL:]:  # then each word beyond the pool
            pool = _mix(pool, _hashmix(word, _CONSTS_A[k : k + _POOL + 1]))
            k += _POOL
        state[cols] = _hashmix(pool[_CYCLE], _CONSTS_B).T
    return state.view("<u8").tolist()


def sample_channels(
    cfgs: Sequence[SystemConfig], seeds: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw G[T, N, M] and h[T, N] with i.i.d. CN(0, 1) entries for the
    geometry of each of cfgs, row t deterministically from seeds[t], an
    (experiment_seed, trial_index, attempt) row of a uint64 array.

    Real and imaginary parts are each N(0, 1/2) so every entry has unit
    variance.  Row t's normals are the first of TrialSeed(*seeds[t]).rng()'s
    stream, drawn once for the largest geometry, in the layout of the
    module docstring: that generator's PCG64 state and increment are
    derived from the seed's SeedSequence words as pcg_setseq_128_srandom_r
    does, and set on the call's own generator, which fills the row with one
    standard_normal call.
    """
    sizes = [(cfg.n_antennas, cfg.m_beams) for cfg in cfgs]
    normals = np.empty((len(seeds), max(2 * n * m + 2 * n for n, m in sizes)))
    states = _seed_states(seeds)
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(normals, states):
        # pcg_setseq_128_srandom_r: inc = 2 seq + 1, then two LCG steps
        # from state 0 with the seed added in between
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    scale = math.sqrt(0.5)
    draws = []
    for n, m in sizes:
        re, im, h_re, h_im, _ = np.split(normals, np.cumsum([n * m, n * m, n, n]), axis=1)
        G = scale * (re.reshape(-1, n, m) + 1j * im.reshape(-1, n, m))
        draws.append((G, scale * (h_re + 1j * h_im)))
    return draws


def zf_beams(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the normalized zero-forcing beams for channel matrix G, or for
    each matrix of a stack G[..., N, M].

    Returns (F, g_gain) with F = G (G^H G)^-1 D and g_gain[m] = |g_m^H f_m|^2.
    Raises SingularChannel, naming the stack's offending matrices, when any
    is rank deficient at working precision: A = G^H G cannot be inverted,
    or ||A||_F ||A^-1||_F is not a finite number below COND_LIMIT.  The
    product lies between kappa_2(A) = cond(G)^2 and M cond(G)^2, so every
    accepted matrix has cond(G) < 1e6, and every one with cond(G) <
    1e6 / sqrt(M) is accepted.
    """
    n, m = G.shape[-2:]
    if n < m:
        raise ValueError("G must have at least as many rows as columns")
    gram = G.conj().swapaxes(-1, -2) @ G
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:  # rare: find the matrices inv fails on one at a time
        failed = np.ones(gram.shape[:-2], dtype=bool)
        for i, a in enumerate(gram.reshape(-1, m, m)):
            with suppress(np.linalg.LinAlgError):
                np.linalg.inv(a)
                failed.flat[i] = False
        _raise_if_any(failed, "Gram matrix is not invertible")
        raise
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [np.asarray(a, complex).view(float) for a in (gram, gram_inv)]
        sq = [np.einsum("...ij,...ij", a, a) for a in parts]  # squared norms
        ill = ~(sq[0] * sq[1] < COND_LIMIT ** 2)
    _raise_if_any(ill, f"||A||_F ||A^-1||_F of A = G^H G is not below {COND_LIMIT:.0e}")
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


class ChannelBlock(NamedTuple):
    """A block of draws, zero-forced as one stack, trial t in row t of G,
    h and F and in column t of the beam-major gain arrays."""

    G: np.ndarray          # T x N x M primary channel matrices
    h: np.ndarray          # T x N secondary channels
    F: np.ndarray          # T x N x M beam matrices
    g_gain: np.ndarray     # M x T, g_m = |g_m^H f_m|^2
    h_gain: np.ndarray     # M x T, h_m = |h^H f_m|^2
    resamples: list[int]   # singular-channel redraws consumed per trial


def realize(cfg: SystemConfig, seed: TrialSeed) -> ChannelBlock:
    """Draw one trial, redrawing on singular channels: the block of one,
    with (M, 1) gains and resamples [redraws].

    Each redraw derives a fresh sub-seed (same experiment seed and trial
    index, bumped attempt counter), so the result is a pure function of
    (cfg, seed) regardless of how many redraws occur.
    """
    row = (seed.experiment_seed, seed.trial_index, seed.attempt)
    return realize_block([cfg], [row])[0]


def realize_block(
    cfgs: Sequence[SystemConfig], seeds: np.ndarray
) -> list[ChannelBlock]:
    """Draw one trial per row of seeds with one sample_channels call for
    every geometry of cfgs, and zero-force each geometry's block as one
    stack.

    A singular matrix redraws only its own trial in its own geometry, from
    the next attempt's stream, with one more sample_channels call for all
    such rows, and the stack is zero-forced again; so trial t of each block
    equals realize(cfg, TrialSeed(*seeds[t])) bit for bit.  The gains are
    beam-major, (M, T) and C-contiguous, as the schemes' block passes take
    them.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    blocks = []
    for cfg, (G, h) in zip(cfgs, sample_channels(cfgs, seeds)):
        resamples = [0] * len(seeds)
        while True:
            try:
                F, g_gain = zf_beams(G)
                break
            except SingularChannel as exc:
                rows, redraws = exc.rows, seeds[exc.rows].tolist()
                for i, redraw in zip(rows, redraws):
                    resamples[i] += 1
                    if resamples[i] >= _MAX_RESAMPLES:
                        seed = TrialSeed(*seeds[i].tolist())
                        raise SingularChannel(
                            f"{_MAX_RESAMPLES} consecutive singular draws for {seed}", [i]
                        ) from None
                    redraw[2] += resamples[i]
                (G[rows], h[rows]), = sample_channels([cfg], redraws)
        h_gain = effective_gains(h, F)
        g_gain, h_gain = np.ascontiguousarray(g_gain.T), np.ascontiguousarray(h_gain.T)
        blocks.append(ChannelBlock(G, h, F, g_gain, h_gain, resamples))
    return blocks
