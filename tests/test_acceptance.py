"""Acceptance suite: one test per release criterion, at full size and
stated tolerance, each printing a single PASS line with the measured
numbers (run pytest with -rA or -s to see them collected)."""

import math
import time

import numpy as np
import pytest

from beamshare.analysis import q1_exact
from beamshare.beam_aggregation import (
    AggregationCandidate,
    _SetTable,
    certify_solution,
    evaluate_scheme1_block,
    evaluate_scheme2_block,
    oracle_grid_solver,
    solve_problem4,
)
from beamshare.beam_selection import evaluate_selection_block
from beamshare.channel_model import SystemConfig, realize_block
from beamshare.cli import main
from beamshare.montecarlo import SweepSpec, estimate
from beamshare.power_allocation import alpha_s_cap, eta, mode_i_alpha_p
from beamshare.validation import (
    Z_95,
    distribution_checks,
    dominance_checks,
    random_feasible_instance,
    zf_checks,
)

SEED = 20260808


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num:02d}: {text}")


def test_criterion_01_zf_construction():
    start = time.perf_counter()
    checks = zf_checks(SEED, realizations=1000, sizes=(2, 3, 4))
    elapsed = time.perf_counter() - start
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(1, f"ZF identities on 3x1000 draws in {elapsed:.1f}s")


def test_criterion_02_gain_law():
    start = time.perf_counter()
    checks = distribution_checks(SEED, samples=10_000)
    elapsed = time.perf_counter() - start
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, f"KS accepts Gamma(N-M+1,1) at 1% for 3 geometries in {elapsed:.1f}s")


def test_criterion_03_q1_closed_form():
    spot = q1_exact(2, 2, 1.0, 10.0)
    assert spot == pytest.approx(1.0 - math.exp(-0.2), abs=1e-12)
    assert spot == pytest.approx(0.181269, abs=1e-6)

    checks = distribution_checks(SEED + 3, samples=100_000, configs=((2, 2),))
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    details = [c.detail for c in checks if c.name.startswith("distribution.q1[")]
    _report(3, "Monte Carlo matches the exact form; " + "; ".join(details))


def test_criterion_04_no_outage_floor():
    start = time.perf_counter()
    spec = SweepSpec(
        n_antennas=2,
        m_beams=2,
        r_p=0.1,
        r_s=1.0,
        snr_grid_db=(10.0, 20.0, 30.0, 40.0),
        schemes=("selection",),
        metric="outage",
        trials=100_000,
        seed=SEED + 4,
    )
    rows = estimate(spec, workers=2).rows
    elapsed = time.perf_counter() - start
    values = [row.estimate.value for row in rows]
    for a, b in zip(rows, rows[1:]):
        z_den = math.hypot(a.estimate.std_err, b.estimate.std_err)
        z = (a.estimate.value - b.estimate.value) / z_den
        assert z > Z_95, f"{a.snr_db}->{b.snr_db} dB decrease not significant (z={z:.2f})"
    assert values[3] < 0.5 * values[1], (
        f"outage(40dB)={values[3]:.2e} not below half of outage(20dB)={values[1]:.2e}"
    )
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(
        4,
        "outage "
        + " > ".join(f"{v:.4g}" for v in values)
        + f" strictly decreasing, floor-free, in {elapsed:.1f}s",
    )


def test_criterion_05_more_beams_degrade_selection():
    trials = 50_000
    estimates = {}
    for m in (2, 4):
        spec = SweepSpec(
            n_antennas=m,
            m_beams=m,
            r_p=0.1,
            r_s=1.0,
            snr_grid_db=(30.0,),
            schemes=("selection",),
            metric="outage",
            trials=trials,
            seed=SEED + 5,
        )
        estimates[m] = estimate(spec, workers=2).rows[0].estimate
    diff = estimates[4].value - estimates[2].value
    se = math.hypot(estimates[4].std_err, estimates[2].std_err)
    assert diff > Z_95 * se, (
        f"outage(M=4)={estimates[4].value:.4f} not above outage(M=2)="
        f"{estimates[2].value:.4f} at 95% (z={diff / se:.2f})"
    )
    _report(
        5,
        f"30dB outage M=4 {estimates[4].value:.4f} >= M=2 "
        f"{estimates[2].value:.4f} (z={diff / se:.1f})",
    )


def _tau(beams, h, alpha_p, rho):
    # tau written out: the beams outside the set, in ascending order, plus 1/rho
    acc = 0.0
    for j in range(len(h)):
        if j not in beams:
            acc += float(h[j]) * float(alpha_p[j])
    return acc + 1.0 / rho


def test_criterion_06_solver_correctness():
    # (a) singleton sets reproduce the single-beam closed form
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    worst = 0.0
    certified = 0
    block, = realize_block([cfg], [(SEED + 6, t, 0) for t in range(10_000)])
    # the draws' singleton candidates, read off one set table of the block
    table = _SetTable(block.g_gain, block.h_gain, [cfg], "prefixes_plus_singletons")
    ones = np.flatnonzero(table.members.sum(axis=1) == 1).tolist()
    for t in range(10_000):
        h = block.h_gain[:, t].tolist()
        g = block.g_gain[:, t].tolist()
        base = mode_i_alpha_p(g, cfg.rho, cfg.eps_p)
        m = t % cfg.m_beams
        expected = alpha_s_cap(
            h[m], eta(g[m], cfg.rho, cfg.eps_p), _tau((m,), h, base, cfg.rho), cfg.eps_p
        )
        cand = table.candidate(next(i for i in ones if table.beams(i, t) == (m,)), t)
        sol = solve_problem4(cand)
        got = sol.x[0] ** 2 if sol.status == "optimal" else 0.0
        worst = max(worst, abs(got - expected))
        if sol.status == "optimal":
            assert certify_solution(cand, sol) == []
            certified += 1
    assert worst <= 1e-9, f"singleton reduction off by {worst:.2e}"

    # (b) two-beam worked instance against its closed-form fixed point
    cand = AggregationCandidate(
        beams=(0, 1), h=(2.0, 1.0), etas=(0.55, 0.55), tau_d=0.1, eps_p=1.0
    )
    sol = solve_problem4(cand)
    assert sol.t_star ** 2 == pytest.approx(0.76820, abs=1e-4)
    assert sol.objective_rate == pytest.approx(3.118, abs=1e-3)
    assert certify_solution(cand, sol) == []

    # (c) grid-oracle agreement on 200 random feasible instances
    rng = np.random.default_rng(SEED + 66)
    plans = ((2, 1e-3, 170), (3, 2e-3, 30))
    worst_gap = 0.0
    for set_size, resolution, count in plans:
        for _ in range(count):
            cand_i = random_feasible_instance(rng, set_size)
            sol_i = solve_problem4(cand_i)
            oracle = oracle_grid_solver(cand_i, resolution)
            sum_sqrt = sum(math.sqrt(v) for v in cand_i.h)
            gap = abs(sol_i.t_star - oracle.t_star)
            assert gap <= 2e-3 * sum_sqrt, (
                f"|D|={set_size}: gap {gap:.2e} above 2e-3 * sum sqrt(h) = "
                f"{2e-3 * sum_sqrt:.2e}"
            )
            assert gap <= 2.0 * resolution * sum_sqrt
            worst_gap = max(worst_gap, gap / (2e-3 * sum_sqrt))
            # (d) every returned solution passes the independent certifier
            assert certify_solution(cand_i, sol_i) == []
            certified += 1
    _report(
        6,
        f"singleton gap {worst:.1e}, worked instance exact, 200 oracle "
        f"instances within budget (worst {worst_gap:.0%}), "
        f"{certified} solutions certified at 1e-8",
    )


def test_criterion_07_scheme2_always_beats_selection():
    checks = dominance_checks(SEED + 7, draws=10_000)
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    details = [c.detail for c in checks if c.name.startswith("dominance.mean_gap")]
    _report(7, "pointwise dominance on 3x10^4 draws at 10/20/30 dB; " + ", ".join(details))


def _block_draws(cfg, seed, trials):
    """realize(cfg, TrialSeed(seed, t)) for t < trials, as (M, T) gains."""
    block, = realize_block([cfg], [(seed, t, 0) for t in range(trials)])
    return block.g_gain, block.h_gain


def test_criterion_08_scheme1_gains_at_low_snr():
    cfg = SystemConfig(4, 4, 1.0, 0.1, 1.0)  # 0 dB
    trials = 5000
    g_gain, h_gain = _block_draws(cfg, SEED + 8, trials)
    s1 = evaluate_scheme1_block(g_gain, h_gain, [cfg]).secondary_rate[0]
    sel = evaluate_selection_block(g_gain, h_gain, [cfg]).secondary_rate[0]
    diffs = s1 - sel
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(trials))
    assert mean > Z_95 * se, f"paired gain {mean:.4f} not positive at 95% (se {se:.4f})"
    _report(8, f"0dB paired rate gain {mean:.3f} BPCU (z={mean / se:.1f})")


def test_criterion_09_legacy_protection():
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    threshold = cfg.eps_p / cfg.rho
    per_scheme = 3334
    g_gain, h_gain = _block_draws(cfg, SEED + 9, per_scheme)
    evaluators = {
        "selection": lambda: evaluate_selection_block(g_gain, h_gain, [cfg]),
        "scheme1": lambda: evaluate_scheme1_block(g_gain, h_gain, [cfg]),
        "scheme2": lambda: evaluate_scheme2_block(
            g_gain, h_gain, [cfg], "prefixes_plus_singletons"
        ),
    }
    checked = 0
    for name, evaluate in evaluators.items():
        out = evaluate()
        primary_rates, alpha_s = out.primary_rates[:, 0].T, out.alpha_s[:, 0].T
        for t in range(per_scheme):
            for m in range(cfg.m_beams):
                checked += 1
                if g_gain[m, t] >= threshold:
                    assert primary_rates[t, m] >= cfg.r_p - 1e-9, (
                        f"{name} trial {t} beam {m}: primary rate "
                        f"{primary_rates[t, m]} below target"
                    )
                else:
                    assert alpha_s[t, m] == 0.0, (
                        f"{name} trial {t} beam {m}: weak beam carries secondary power"
                    )
    _report(9, f"{checked} beam audits across 3 schemes x {per_scheme} trials")


def test_criterion_10_reproducibility(tmp_path):
    args = ["preset", "fig2b", "--seed", "7", "--trials", "60", "--snr-db", "10:30:10"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes(), "reruns are not byte-identical"

    w1, w8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(args + ["--workers", "1", "--out", str(w1)]) == 0
    assert main(args + ["--workers", "8", "--out", str(w8)]) == 0
    assert w1.read_bytes() == w8.read_bytes(), "worker count changed the estimates"
    assert a.read_bytes() == w1.read_bytes()
    _report(10, "fig2b preset byte-identical across reruns and 1 vs 8 workers")
