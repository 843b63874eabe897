import math

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
        assert gamma_lower_regularized(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), rel=1e-12
        )


def test_gamma_at_zero_and_domain():
    assert gamma_lower_regularized(2.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        gamma_lower_regularized(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_lower_regularized(-1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_lower_regularized(1.0, -0.1)


def test_gamma_shape_two_closed_form():
    # P(2, x) = 1 - e^{-x} (1 + x); at x = 2 this is 0.59399415...
    assert gamma_lower_regularized(2.0, 2.0) == pytest.approx(
        1.0 - math.exp(-2.0) * 3.0, rel=1e-12
    )
    assert gamma_lower_regularized(2.0, 2.0) == pytest.approx(0.59399415, abs=5e-9)
    for x in (0.1, 1.0, 5.0, 12.0):
        assert gamma_lower_regularized(2.0, x) == pytest.approx(
            1.0 - math.exp(-x) * (1.0 + x), rel=1e-10
        )


def test_gamma_shape_three_closed_form():
    # P(3, x) = 1 - e^{-x} (1 + x + x^2/2), covering both algorithm branches
    for x in (0.5, 2.0, 3.9, 4.1, 20.0):
        ref = 1.0 - math.exp(-x) * (1.0 + x + 0.5 * x * x)
        assert gamma_lower_regularized(3.0, x) == pytest.approx(ref, rel=1e-10)


def test_gamma_branch_continuity():
    # series takes x just below s+1, continued fraction just above
    s = 4.0
    below = gamma_lower_regularized(s, s + 1.0 - 1e-9)
    above = gamma_lower_regularized(s, s + 1.0 + 1e-9)
    assert abs(above - below) < 1e-8


def test_gamma_monotone_and_clamped():
    grid = np.linspace(0.0, 30.0, 400)
    last = -1.0
    for x in grid:
        p = gamma_lower_regularized(3.7, float(x))
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
