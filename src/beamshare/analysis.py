"""Closed-form outage quantities and the statistics behind the self-tests.

For i.i.d. complex Gaussian channels the diagonal entries of (G^H G)^-1
are inverse-gamma distributed, so the scaled effective gains M g_m follow
Gamma(N - M + 1, 1).  That law yields an exact expression for the
probability that a beam cannot even sustain its legacy target,

    Q1 = P(g_m <= eps_p / rho) = P(N - M + 1, M eps_p / rho)

with P the regularized lower incomplete gamma function, and its high-SNR
expansion (M eps_p / rho)^(N-M+1) / (N-M+1)!, which decays to zero --
the reason the secondary user's outage has no error floor.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "gamma_lower_regularized",
    "q1_exact",
    "q1_high_snr",
    "gain_cdf",
    "ks_statistic",
]

_EPS = 1e-16
_MAX_ITER = 500


def gamma_lower_regularized(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Power series for x < s + 1, Lentz continued fraction for the upper tail
    otherwise; both converge to full double precision in this regime split.
    """
    if s <= 0.0:
        raise ValueError("shape parameter s must be > 0")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    log_prefix = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        # P(s,x) = e^{-x} x^s / Gamma(s+1) * sum_n x^n / ((s+1)...(s+n))
        term = 1.0 / s
        total = term
        denom = s
        for _ in range(_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = total * math.exp(log_prefix)
    else:
        # Q(s,x) via the standard continued fraction, then P = 1 - Q
        tiny = 1e-300
        b = x + 1.0 - s
        c = 1.0 / tiny
        d = 1.0 / b
        f = d
        for i in range(1, _MAX_ITER):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            f *= delta
            if abs(delta - 1.0) < _EPS:
                break
        p = 1.0 - math.exp(log_prefix) * f
    return min(1.0, max(0.0, p))


def gain_cdf(x: float, n_antennas: int, m_beams: int) -> float:
    """CDF of the scaled effective gain M g_m, which is Gamma(N - M + 1, 1)."""
    if x <= 0.0:
        return 0.0
    return gamma_lower_regularized(float(n_antennas - m_beams + 1), x)


def q1_exact(n_antennas: int, m_beams: int, eps_p: float, rho: float) -> float:
    """Exact P(g_m <= eps_p / rho) for the zero-forcing gain law."""
    if n_antennas < m_beams or m_beams < 1:
        raise ValueError("need n_antennas >= m_beams >= 1")
    return gamma_lower_regularized(
        float(n_antennas - m_beams + 1), m_beams * eps_p / rho
    )


def q1_high_snr(n_antennas: int, m_beams: int, eps_p: float, rho: float) -> float:
    """Leading-order high-SNR approximation of q1_exact."""
    if n_antennas < m_beams or m_beams < 1:
        raise ValueError("need n_antennas >= m_beams >= 1")
    shape = n_antennas - m_beams + 1
    arg = m_beams * eps_p / rho
    return arg ** shape / math.factorial(shape)


def ks_statistic(
    samples: Sequence[float], cdf: Callable[[float], float]
) -> float:
    """Kolmogorov-Smirnov sup-distance between the empirical CDF and cdf."""
    data = np.sort(np.asarray(samples, dtype=float))
    n = len(data)
    if n == 0:
        raise ValueError("samples must be nonempty")
    theo = np.array([cdf(v) for v in data])
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - theo)
    d_minus = np.max(theo - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))
