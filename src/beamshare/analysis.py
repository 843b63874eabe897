"""Closed-form outage quantities and the statistics behind the self-tests.

For i.i.d. complex Gaussian channels the diagonal entries of (G^H G)^-1
are inverse-gamma distributed, so the scaled effective gains M g_m follow
Gamma(N - M + 1, 1).  That law yields an exact expression for the
probability that a beam cannot even sustain its legacy target,

    Q1 = P(g_m <= eps_p / rho) = P(N - M + 1, M eps_p / rho)

with P(k, x) the regularized lower incomplete gamma function, at the
whole-number shape k the Erlang CDF 1 - e^-x sum_{j<k} x^j / j!, and its
high-SNR expansion (M eps_p / rho)^(N-M+1) / (N-M+1)!, which decays to
zero -- the reason the secondary user's outage has no error floor.
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


def gamma_lower_regularized(k: int, x: float) -> float:
    """P(k, x) = 1 - e^-x sum_{j<k} x^j / j!, the regularized lower
    incomplete gamma at a positive whole-number shape k.

    Below x = k + 1 the series e^-x sum_{j>=k} x^j / j!, summed from its
    x^k term, keeps a tiny P's relative precision; above, 1 - fsum of the
    k terms e^(j ln x - x) / j!.
    """
    if not (k >= 1 and float(k).is_integer()):
        raise ValueError("shape k must be a positive whole number")
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    if x == math.inf:  # its log-space terms would be 0 * inf
        return 1.0
    k = int(k)
    if x < k + 1.0:
        # P(k,x) = e^{-x} x^k / k! * sum_n x^n / ((k+1)...(k+n))
        term = 1.0 / k
        total = term
        denom = float(k)
        for _ in range(_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = total * math.exp(k * math.log(x) - x - math.lgamma(k))
    else:
        log_x = math.log(x)
        p = 1.0 - math.fsum(
            math.exp(j * log_x - x - math.lgamma(j + 1)) for j in range(k)
        )
    return min(1.0, max(0.0, p))


def _shape(n_antennas: int, m_beams: int) -> int:
    """The gain law's shape N - M + 1; zero forcing needs N >= M >= 1."""
    if n_antennas < m_beams or m_beams < 1:
        raise ValueError("need n_antennas >= m_beams >= 1")
    return n_antennas - m_beams + 1


def gain_cdf(x: float, n_antennas: int, m_beams: int) -> float:
    """CDF of the scaled effective gain M g_m, which is Gamma(N - M + 1, 1)."""
    shape = _shape(n_antennas, m_beams)
    if x <= 0.0:
        return 0.0
    return gamma_lower_regularized(shape, x)


def q1_exact(n_antennas: int, m_beams: int, eps_p: float, rho: float) -> float:
    """Exact P(g_m <= eps_p / rho) = P(M g_m <= M eps_p / rho)."""
    return gain_cdf(m_beams * eps_p / rho, n_antennas, m_beams)


def q1_high_snr(n_antennas: int, m_beams: int, eps_p: float, rho: float) -> float:
    """Leading-order high-SNR approximation of q1_exact."""
    shape = _shape(n_antennas, m_beams)
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
