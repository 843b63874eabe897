import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from beamshare.analysis import (
    gain_cdf,
    gamma_lower_regularized,
    ks_statistic,
    q1_exact,
    q1_high_snr,
)


def test_gamma_shape_one_is_exponential():
    for x in (0.01, 0.5, 1.0, 3.0, 10.0):
        assert gamma_lower_regularized(1, x) == pytest.approx(
            1.0 - math.exp(-x), rel=1e-12
        )


def test_gamma_at_zero_and_domain():
    assert gamma_lower_regularized(3, 0.0) == 0.0
    # the shape is a positive whole number; 3.0 is one, 2.5 is not
    assert gamma_lower_regularized(3.0, 2.0) == gamma_lower_regularized(3, 2.0)
    for shape in (0, -1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            gamma_lower_regularized(shape, 1.0)
    with pytest.raises(ValueError):
        gamma_lower_regularized(1, -0.1)


def test_gamma_edges():
    # every beam is weak once M eps_p / rho overflows to inf
    for k in (1, 3, 8):
        assert gamma_lower_regularized(k, math.inf) == 1.0
        assert gamma_lower_regularized(k, 1e308) == 1.0
        with pytest.raises(ValueError):
            gamma_lower_regularized(k, math.nan)
    assert gain_cdf(math.inf, 4, 2) == 1.0
    with pytest.raises(ValueError):
        gain_cdf(math.nan, 4, 2)
    assert q1_exact(4, 2, 1.0, 1e-320) == 1.0


def _decimal_p(k, x):
    """e^-x sum_{j>=k} x^j / j!, summed at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        term = x ** k / math.factorial(k)
        total, j = Decimal(0), k
        while term > total * Decimal("1e-45"):
            total += term
            j += 1
            term = term * x / j
        return total * (-x).exp()


def test_gamma_matches_a_decimal_reference():
    # both branches and their seam, against the series at 60 digits
    for k in range(1, 9):
        grid = [*np.logspace(-12.0, 3.0, 31).tolist(), k + 1.0 - 1e-9, k + 1.0 + 1e-9]
        for x in grid:
            ref = _decimal_p(k, x)
            err = abs(Decimal(gamma_lower_regularized(k, x)) - ref) / ref
            assert err < Decimal("1e-12"), (k, x, err)


def test_gamma_shape_two_closed_form():
    # P(2, x) = 1 - e^{-x} (1 + x); at x = 2 this is 0.59399415...
    assert gamma_lower_regularized(2, 2.0) == pytest.approx(
        1.0 - math.exp(-2.0) * 3.0, rel=1e-12
    )
    assert gamma_lower_regularized(2, 2.0) == pytest.approx(0.59399415, abs=5e-9)
    for x in (0.1, 1.0, 5.0, 12.0):
        assert gamma_lower_regularized(2, x) == pytest.approx(
            1.0 - math.exp(-x) * (1.0 + x), rel=1e-10
        )


def test_gamma_shape_three_closed_form():
    # P(3, x) = 1 - e^{-x} (1 + x + x^2/2), covering both algorithm branches
    for x in (0.5, 2.0, 3.9, 4.1, 20.0):
        ref = 1.0 - math.exp(-x) * (1.0 + x + 0.5 * x * x)
        assert gamma_lower_regularized(3, x) == pytest.approx(ref, rel=1e-10)


def test_gamma_branch_continuity():
    # series takes x just below k+1, the finite Erlang sum just above
    k = 4
    below = gamma_lower_regularized(k, k + 1.0 - 1e-9)
    above = gamma_lower_regularized(k, k + 1.0 + 1e-9)
    assert abs(above - below) < 1e-8


def test_gamma_monotone_and_clamped():
    grid = np.linspace(0.0, 30.0, 400)
    for k in (1, 4, 8):
        last = -1.0
        for x in grid:
            p = gamma_lower_regularized(k, float(x))
            assert 0.0 <= p <= 1.0
            assert p >= last - 1e-15
            last = p


def test_q1_exact_values():
    # shape 1: 1 - exp(-M eps / rho)
    assert q1_exact(2, 2, 1.0, 10.0) == pytest.approx(1.0 - math.exp(-0.2), rel=1e-12)
    assert q1_exact(2, 2, 1.0, 10.0) == pytest.approx(0.181269, abs=1e-6)
    # shape 2 with argument 0.1
    assert q1_exact(3, 2, 0.5, 10.0) == pytest.approx(
        1.0 - math.exp(-0.1) * 1.1, rel=1e-10
    )
    assert q1_exact(3, 2, 0.5, 10.0) == pytest.approx(0.0046788, abs=1e-7)
    # vanishes with the budget
    values = [q1_exact(2, 2, 1.0, rho) for rho in (10.0, 100.0, 1000.0)]
    assert values[0] > values[1] > values[2]
    with pytest.raises(ValueError):
        q1_exact(1, 2, 1.0, 10.0)
    # the weak-beam probability is the gain law's CDF at M eps_p / rho
    for n, m, eps_p, rho in ((2, 2, 1.0, 10.0), (4, 2, 0.5, 3.0), (8, 3, 1.0, 0.1)):
        assert q1_exact(n, m, eps_p, rho) == gain_cdf(m * eps_p / rho, n, m)


def test_q1_high_snr_values():
    assert q1_high_snr(2, 2, 1.0, 200.0) == pytest.approx(0.01)
    assert q1_high_snr(4, 2, 0.05, 1.0) == pytest.approx(0.1 ** 3 / 6.0)
    # approximation closes on the exact value at high SNR
    ratio = q1_exact(2, 2, 1.0, 1e4) / q1_high_snr(2, 2, 1.0, 1e4)
    assert abs(ratio - 1.0) < 0.01


def test_gain_cdf():
    assert gain_cdf(0.0, 4, 4) == 0.0
    assert gain_cdf(-1.0, 4, 4) == 0.0
    for x in (0.2, 1.0, 2.5):
        assert gain_cdf(x, 3, 3) == pytest.approx(1.0 - math.exp(-x), rel=1e-12)
    with pytest.raises(ValueError):
        gain_cdf(1.0, 2, 3)  # N < M has no gain law
    with pytest.raises(ValueError):
        gain_cdf(0.0, 2, 3)


def test_ks_statistic_basics():
    assert ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)
    constant = [0.3] * 100
    assert ks_statistic(constant, lambda x: x) >= 0.5
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_ks_statistic_null_calibration():
    # exponential samples against their own CDF stay under the 1% threshold
    rng = np.random.default_rng(7)
    n = 10_000
    samples = rng.exponential(1.0, size=n)
    stat = ks_statistic(samples, lambda x: 1.0 - math.exp(-x))
    assert stat < 1.63 / math.sqrt(n)


def test_ks_statistic_detects_mismatch():
    rng = np.random.default_rng(11)
    samples = rng.exponential(2.0, size=2000)  # wrong scale
    stat = ks_statistic(samples, lambda x: 1.0 - math.exp(-x))
    assert stat > 1.63 / math.sqrt(2000)
