"""The statistical tests behind the validate suites, the suites' reports,
and the input guards of the exhaustive scheme 2 reference."""

import hashlib
import math

import numpy as np
import pytest

from beamshare.channel_model import SystemConfig, TrialSeed, realize, realize_block
from beamshare.cli import main
from beamshare.validation import LEVEL_3SE, binomial_two_sided_p

from oracles import exhaustive_scheme2


def test_binomial_test_is_exact_for_rare_events():
    # the q1 row at N=4, M=2, rho=100: one weak draw in 10 000 is 8.6
    # normal standard errors out, but likely enough under the exact law
    p = 1.313e-6
    assert binomial_two_sided_p(1, 10_000, p) >= LEVEL_3SE
    assert binomial_two_sided_p(3, 10_000, p) < LEVEL_3SE


def test_binomial_test_matches_normal_level_for_common_events():
    # q1 at N=M=2, rho=10 and the acceptance sample size: 2 se passes,
    # 4 se fails, on either side
    n, p = 100_000, 0.181269
    se = math.sqrt(n * p * (1.0 - p))
    for sign in (1.0, -1.0):
        assert binomial_two_sided_p(round(n * p + sign * 2.0 * se), n, p) >= LEVEL_3SE
        assert binomial_two_sided_p(round(n * p + sign * 4.0 * se), n, p) < LEVEL_3SE


def test_validate_distribution_seed_52_passes(capsys):
    # seed 52 draws one weak channel on the q1 row with q1 = 1.3e-6
    assert main(["validate", "distribution", "--seed", "52"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] distribution.q1[N=4,M=2,rho=100]" in out


def test_validate_distribution_prints_the_recorded_bytes(capsys):
    # SHA-256 of the table the closed forms print (q1_exact, q1_high_snr
    # and the KS statistics against gain_cdf), recorded before the upper
    # tail of P became the finite Erlang sum
    assert main(["validate", "distribution", "--seed", "0"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b7c3a24f7bed6fa4329947ae0fd8af9e19b9ce3664c5c06fe43ea029c407cabc"


def test_exhaustive_scheme2_takes_one_trial():
    # the reference scores one cell: a block of three trials raises rather
    # than answering for trial 0
    cfg = SystemConfig(3, 3, 10.0, 0.1, 1.0)
    block, = realize_block([cfg], [(7, t, 0) for t in range(3)])
    with pytest.raises(ValueError, match="one trial"):
        exhaustive_scheme2(block, cfg, "all_subsets")


def test_exhaustive_scheme2_takes_one_snr_point():
    # a grid config would pair beam m with rho entry m in the inactive
    # split, so the one-cell reference raises; a 1-tuple is one point
    chan = realize(SystemConfig(2, 2, 10.0, 0.1, 1.0), TrialSeed(5, 0))
    with pytest.raises(ValueError, match="one SNR point"):
        exhaustive_scheme2(chan, SystemConfig(2, 2, (10.0, 1000.0), 0.1, 1.0), "all_subsets")
    got = exhaustive_scheme2(chan, SystemConfig(2, 2, (10.0,), 0.1, 1.0), "all_subsets")
    want = exhaustive_scheme2(chan, SystemConfig(2, 2, 10.0, 0.1, 1.0), "all_subsets")
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
