"""Self-check suites for the paper's claims: construction identities,
distribution law and the weak-beam closed form, the Problem 4 optimum,
dominance, and the no-outage-floor trend.  That an optimised path
(the block sampler, the pruned set search, the lockstep lanes) matches
its reference is checked by the test suite, not here.

Each suite returns a list of CheckResult rows so the CLI can render a
pass/fail table.  The distribution and dominance suites take their sizes
as parameters, so callers can trade runtime for statistical power; the
others draw the fixed sizes below.  Each suite scores the blocks it
draws as arrays and loops per draw only over a reference solve.  All
randomness flows from the seed argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import gain_cdf, ks_statistic, q1_exact, q1_high_snr
from .beam_aggregation import (
    AggregationCandidate,
    _SetTable,
    certify_solution,
    enumerate_candidates,
    evaluate_scheme2_block,
    oracle_grid_solver,
    solve_problem4,
)
from .beam_selection import evaluate_selection_block
from .channel_model import ChannelBlock, SystemConfig, TrialSeed, realize, realize_block
from .montecarlo import SweepSpec, estimate, snr_db_to_linear
from .power_allocation import alpha_s_cap, eta, mode_i_alpha_p, tau

__all__ = [
    "CheckResult",
    "zf_checks",
    "distribution_checks",
    "solver_checks",
    "dominance_checks",
    "lemma1_checks",
    "SUITES",
]

# 1% Kolmogorov-Smirnov critical factor, sqrt(-ln(0.005)/2)
KS_FACTOR_1PCT = 1.63

# two-sided level of a 3-standard-error normal test, 0.27%
LEVEL_3SE = math.erfc(3.0 / math.sqrt(2.0))

# one-sided 95% normal quantile, used by the statistical trend checks
Z_95 = 1.645

# sizes of the suites without size parameters: draws per N = M and N = M
# of the zf identities, draws of the singleton reduction, (set size, grid
# resolution, instances) of the grid-oracle check, and trials per SNR
# point of the no-outage-floor sweep
ZF_DRAWS = 1000
ZF_SIZES = (2, 3, 4)
REDUCTION_DRAWS = 2000
ORACLE_PLAN = ((2, 1e-3, 30), (3, 2e-3, 6))
LEMMA1_TRIALS = 60_000


def _draws(cfg: SystemConfig, seed: int, count: int) -> ChannelBlock:
    """realize(cfg, TrialSeed(seed, t)) for t < count, as one block."""
    return realize_block([cfg], [(seed, t, 0) for t in range(count)])[0]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def zf_checks(seed: int) -> list[CheckResult]:
    """Zero-forcing identities on ZF_DRAWS draws at each N = M of ZF_SIZES:
    orthogonality, unit total beam power, and the Gram-inverse form of the
    effective gains."""
    results = []
    for size in ZF_SIZES:
        block = _draws(SystemConfig(size, size, 10.0, 1.0, 1.0), seed, ZF_DRAWS)
        G_H = block.G.conj().transpose(0, 2, 1)
        off = np.abs(G_H @ block.F)
        off[:, range(size), range(size)] = 0.0
        worst_cross = float(off.max())
        total = np.sum(np.abs(block.F) ** 2, axis=(1, 2))
        worst_norm = float(np.abs(total - 1.0).max())
        gram_inv_diag = np.real(np.linalg.inv(G_H @ block.G).diagonal(axis1=1, axis2=2))
        ref = 1.0 / (size * gram_inv_diag.T)
        worst_gain = float(np.max(np.abs(block.g_gain - ref) / ref))
        results += [
            CheckResult(
                f"zf.orthogonality[N=M={size}]",
                worst_cross < 1e-9,
                f"max |g_m^H f_i| = {worst_cross:.2e} (limit 1e-9)",
            ),
            CheckResult(
                f"zf.total_power[N=M={size}]",
                worst_norm < 1e-9,
                f"max |sum ||f||^2 - 1| = {worst_norm:.2e} (limit 1e-9)",
            ),
            CheckResult(
                f"zf.gain_identity[N=M={size}]",
                worst_gain < 1e-9,
                f"max relative gain error = {worst_gain:.2e} (limit 1e-9)",
            ),
        ]
    return results


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of k successes in n Bernoulli(p) trials, twice
    the smaller tail at k capped at 1; the pmf is summed in log space, so it
    holds where the normal approximation fails (n p << 1)."""
    lg = [math.lgamma(j + 1) for j in range(n + 1)]  # lg[j] = log j!
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(lg[n] - lg[j] - lg[n - j] + j * log_p + (n - j) * log_q)
        for j in range(n + 1)
    ]
    return min(1.0, 2.0 * sum(pmf[: k + 1]), 2.0 * sum(pmf[k:]))


def distribution_checks(
    seed: int,
    samples: int = 10_000,
    configs: tuple[tuple[int, int], ...] = ((2, 2), (4, 4), (4, 2)),
) -> list[CheckResult]:
    """KS test of the scaled gains M g_1 against Gamma(N - M + 1, 1); the
    count of draws with g_1 <= eps_p / rho against q1_exact by an exact
    two-sided binomial test at the 3-standard-error level (0.27%); and
    q1_high_snr / q1_exact falling toward 1."""
    results = []
    threshold = KS_FACTOR_1PCT / math.sqrt(samples)
    for n, m in configs:
        cfg = SystemConfig(n, m, 10.0, 1.0, 1.0)
        gains = _draws(cfg, seed, samples).g_gain[0]
        stat = ks_statistic(m * gains, lambda x: gain_cdf(x, n, m))
        results.append(
            CheckResult(
                f"distribution.gain_law[N={n},M={m}]",
                stat < threshold,
                f"KS statistic {stat:.4f} (1% threshold {threshold:.4f})",
            )
        )
        ratios = []
        for rho in (1.0, 10.0, 100.0):
            hits = int(np.count_nonzero(gains <= cfg.eps_p / rho))
            p_ref = q1_exact(n, m, cfg.eps_p, rho)
            p_value = binomial_two_sided_p(hits, samples, p_ref)
            results.append(
                CheckResult(
                    f"distribution.q1[N={n},M={m},rho={rho:g}]",
                    p_value >= LEVEL_3SE,
                    f"P(g_1 <= eps_p/rho) {hits / samples:.4g} vs exact "
                    f"{p_ref:.4g}: binomial p = {p_value:.2g} "
                    f"(limit {LEVEL_3SE:.2g})",
                )
            )
            ratios.append(q1_high_snr(n, m, cfg.eps_p, rho) / p_ref)
        gaps = [abs(r - 1.0) for r in ratios]
        results.append(
            CheckResult(
                f"distribution.q1_high_snr[N={n},M={m}]",
                all(a > b for a, b in zip(gaps, gaps[1:])),
                "q1_high_snr / q1_exact at rho = 1, 10, 100: "
                + " -> ".join(f"{r:.4g}" for r in ratios),
            )
        )
    return results


def random_feasible_instance(
    rng: np.random.Generator, set_size: int
) -> AggregationCandidate:
    """Draw a channel until the size-`set_size` prefix candidate, the
    strongest `set_size` beams, solves.  The first M candidates of
    prefixes_plus_singletons are the prefixes, in order of size."""
    while True:
        n = int(rng.integers(set_size, 7))
        rho = float(10.0 ** rng.uniform(0.0, 3.0))
        r_p = float(rng.uniform(0.3, 2.0))
        cfg = SystemConfig(n, n, rho, r_p, 1.0)
        chan = realize(cfg, TrialSeed(int(rng.integers(2 ** 32)), 0))
        cand = enumerate_candidates(chan, cfg, "prefixes_plus_singletons")[set_size - 1]
        sol = solve_problem4(cand)
        if sol.status == "optimal" and sol.t_star > 1e-6:
            return cand


def solver_checks(seed: int) -> list[CheckResult]:
    """Solver cross-checks: the closed-form two-beam instance, singleton
    reduction to the single-beam cap, grid-oracle agreement and the
    independent constraint certifier."""
    # two-beam instance with h=(2,1), g=(1,1), rho=10, eps_p=1, whose
    # optimum has the closed form t*^2 = 0.9 (3 + 2 sqrt2) / (4 + 2 sqrt2)
    cand = AggregationCandidate(
        beams=(0, 1), h=(2.0, 1.0), etas=(0.55, 0.55), tau_d=0.1, eps_p=1.0
    )
    u_ref = 0.9 * (3.0 + 2.0 * math.sqrt(2.0)) / (4.0 + 2.0 * math.sqrt(2.0))
    rate_ref = math.log2(1.0 + u_ref / 0.1)
    sol = solve_problem4(cand)
    err_u = abs(sol.t_star ** 2 - u_ref)
    err_rate = abs(sol.objective_rate - rate_ref)
    results = [
        CheckResult(
            "solver.worked_instance",
            sol.status == "optimal" and err_u < 1e-9 and err_rate < 1e-9,
            f"|t*^2 - ref| = {err_u:.2e}, |rate - ref| = {err_rate:.2e}",
        ),
        CheckResult(
            "solver.worked_instance_certified",
            not certify_solution(cand, sol),
            "constraints re-checked at 1e-8",
        ),
    ]

    # every beam's single-beam cap, as an (M, T) array; draw t solves beam t % M
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    rho, eps_p = cfg.rho, cfg.eps_p
    block = _draws(cfg, seed + 1, REDUCTION_DRAWS)
    g, h = block.g_gain, block.h_gain
    base_ap = mode_i_alpha_p(g, rho, eps_p)
    others = ~np.eye(cfg.m_beams, dtype=bool)[:, :, None]
    caps = alpha_s_cap(h, eta(g, rho, eps_p), tau(h, base_ap, rho, others), eps_p)
    # the draws' singleton candidates, read off one set table of the block
    table = _SetTable(g, h, cfg, "prefixes_plus_singletons")
    ones = np.flatnonzero(table.members.sum(axis=1) == 1).tolist()
    worst = 0.0
    certifier_fail = 0
    for t in range(REDUCTION_DRAWS):
        m = t % cfg.m_beams
        cand_m = table.candidate(next(i for i in ones if table.beams(i, t) == (m,)), t)
        sol_m = solve_problem4(cand_m)
        got = sol_m.x[0] ** 2 if sol_m.status == "optimal" else 0.0
        certifier_fail += bool(certify_solution(cand_m, sol_m))
        worst = max(worst, abs(got - caps[m, t]))
    results.append(
        CheckResult(
            "solver.singleton_reduction",
            worst <= 1e-9,
            f"max |alpha_s difference| = {worst:.2e} over {REDUCTION_DRAWS} draws",
        )
    )

    rng = np.random.default_rng(seed + 2)
    worst_ratio = 0.0
    count = 0
    for set_size, resolution, instances in ORACLE_PLAN:
        for _ in range(instances):
            cand_i = random_feasible_instance(rng, set_size)
            sol_i = solve_problem4(cand_i)
            certifier_fail += bool(certify_solution(cand_i, sol_i))
            oracle = oracle_grid_solver(cand_i, resolution)
            sum_sqrt_h = sum(math.sqrt(h_k) for h_k in cand_i.h)
            gap = abs(sol_i.t_star - oracle.t_star)
            worst_ratio = max(worst_ratio, gap / (2.0 * resolution * sum_sqrt_h))
            count += 1
    results.append(
        CheckResult(
            "solver.oracle_agreement",
            worst_ratio <= 1.0,
            f"worst |t_bisect - t_grid| = {worst_ratio:.3f} of the "
            f"2 * resolution * sum sqrt(h) budget over {count} instances",
        )
    )
    results.append(
        CheckResult(
            "solver.certifier",
            certifier_fail == 0,
            f"{certifier_fail} solutions rejected by the constraint certifier",
        )
    )
    return results


def dominance_checks(seed: int, draws: int = 2000) -> list[CheckResult]:
    """Aggregation with singleton candidates can never fall below selection,
    and beats it on average, at 10, 20 and 30 dB.  Both schemes score all
    the draws at the three SNR points as one block, as a sweep does."""
    results = []
    snrs_db = (10.0, 20.0, 30.0)
    cfg = SystemConfig(4, 4, tuple(map(snr_db_to_linear, snrs_db)), 0.1, 1.0)
    block = _draws(cfg, seed, draws)
    g_gain, h_gain = block.g_gain, block.h_gain
    selection = evaluate_selection_block(g_gain, h_gain, cfg).secondary_rate
    scheme2 = evaluate_scheme2_block(g_gain, h_gain, cfg).secondary_rate
    violations = np.count_nonzero(scheme2 < selection, axis=1).tolist()
    mean_gaps = np.mean(scheme2 - selection, axis=1).tolist()
    for snr_db, below, mean_gap in zip(snrs_db, violations, mean_gaps):
        results += [
            CheckResult(
                f"dominance.pointwise[{snr_db:g}dB]",
                below == 0,
                f"{below} of {draws} draws below selection",
            ),
            CheckResult(
                f"dominance.mean_gap[{snr_db:g}dB]",
                mean_gap > 0.0,
                f"mean rate gain {mean_gap:.4f} BPCU",
            ),
        ]
    return results


def lemma1_checks(seed: int) -> list[CheckResult]:
    """Selection outage keeps falling with SNR (no error floor)."""
    spec = SweepSpec(
        n_antennas=2,
        m_beams=2,
        r_p=0.1,
        r_s=1.0,
        snr_grid_db=(10.0, 20.0, 30.0, 40.0),
        schemes=("selection",),
        metric="outage",
        trials=LEMMA1_TRIALS,
        seed=seed,
    )
    rows = estimate(spec).rows
    decreasing = True
    detail = []
    for a, b in zip(rows, rows[1:]):
        diff = a.estimate.value - b.estimate.value
        z_den = math.hypot(a.estimate.std_err, b.estimate.std_err)
        z = diff / z_den if z_den > 0 else math.copysign(math.inf, diff or -1.0)
        decreasing &= z > Z_95
        detail.append(f"{a.snr_db:.0f}->{b.snr_db:.0f}dB z={z:.1f}")
    p20 = rows[1].estimate.value
    p40 = rows[3].estimate.value
    return [
        CheckResult("lemma1.strict_decrease", decreasing, ", ".join(detail)),
        CheckResult(
            "lemma1.no_floor",
            p40 < 0.5 * p20,
            f"outage(40dB) = {p40:.2e} vs 0.5 * outage(20dB) = {0.5 * p20:.2e}",
        ),
    ]


SUITES = {
    "zf": zf_checks,
    "distribution": distribution_checks,
    "solver": solver_checks,
    "dominance": dominance_checks,
    "lemma1": lemma1_checks,
}
