"""References written out for the tests, shared by several modules: the
formulas below, the documented channel stream, the exhaustive scheme 2
set search, the lockstep lanes read back as scalar solutions, the lockstep
loop that masks and races every step, and the incumbents' offer that logs
every offered rate."""

import math

import numpy as np

from beamshare.beam_aggregation import (
    _BISECT_MAX_ITER,
    _PRUNE_MARGIN,
    AggregationCandidate,
    Problem4Solution,
    _Lanes,
    _SetTable,
    enumerate_candidates,
    solve_problem4,
)
from beamshare.channel_model import ChannelBlock, SystemConfig, TrialSeed
from beamshare.power_allocation import beam_sum, log2_each, mode_i_alpha_p


def written_tau(beams, h, alpha_p, rho):
    # tau written out: the beams outside the set, in ascending order, plus 1/rho
    acc = 0.0
    for j in range(len(h)):
        if j not in beams:
            acc += float(h[j]) * float(alpha_p[j])
    return acc + 1.0 / rho


def same_choice(cells, want, s=0, t=0):
    # cell (s, t) against exhaustive_scheme2's (chosen, rate, alpha_p,
    # alpha_s): the same set, and rate and split equal bit for bit
    chosen, rate, alpha_p, alpha_s = want
    return (
        np.array_equal(cells.chosen[:, s, t], chosen)
        and cells.secondary_rate_raw[s, t].item().hex() == rate.hex()
        and cells.alpha_p[:, s, t].tobytes() == alpha_p.tobytes()
        and cells.alpha_s[:, s, t].tobytes() == alpha_s.tobytes()
    )


def summed_power_bound(h, etas, members):
    # the set table's B as one masked sum over all sets: sqrt(h (1 - eta))
    # of each (rank, cell), nan where eta > 1, added in ascending rank from
    # 0.0 where members[set, rank] holds; (set, cell)
    with np.errstate(invalid="ignore"):
        terms = np.sqrt(h * (1.0 - etas))
    terms[etas > 1.0] = np.nan
    return beam_sum(terms, members.T[:, :, None])


def reference_channels(
    cfg: SystemConfig, seed: TrialSeed
) -> tuple[np.ndarray, np.ndarray]:
    """(G, h) from four standard_normal draws of seed.rng(): the real and
    imaginary parts of G, then of h, each scaled by sqrt(1/2).  The
    documented stream that sample_channels reproduces in one draw."""
    rng = seed.rng()
    n, m = cfg.n_antennas, cfg.m_beams
    scale = math.sqrt(0.5)
    G = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    h = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return G, h


def _key(rate: float, beams: tuple[int, ...]) -> tuple:
    """Scheme 2's ranking, least first: largest rate, then smaller set, then
    lexicographic beam indices.  Distinct sets never tie on it."""
    return (-rate, len(beams), tuple(sorted(beams)))


def exhaustive_scheme2(
    chan: ChannelBlock, cfg: SystemConfig, strategy: str
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Reference for evaluate_scheme2_block's pruned set search on a block
    of one trial: solve every candidate with solve_problem4 and keep the
    optimal one of least ranking key, _key.  Returns the chosen beams'
    mask, the rate (0.0 when no set solves) and the split alpha_p, alpha_s,
    each per beam; beams outside the set keep the inactive split.  chan and
    cfg must hold one trial and one SNR point (else enumerate_candidates
    raises ValueError)."""
    best, best_key = None, None
    for cand in enumerate_candidates(chan, cfg, strategy):
        sol = solve_problem4(cand)
        if sol.status != "optimal":
            continue
        key = _key(sol.objective_rate, cand.beams)
        if best is None or key < best_key:
            best, best_key = (cand, sol), key
    alpha_p = mode_i_alpha_p(chan.g_gain[:, 0], cfg.rho, cfg.eps_p)
    alpha_s = np.zeros(cfg.m_beams)
    chosen, rate = np.zeros(cfg.m_beams, dtype=bool), 0.0
    if best is not None:
        cand, sol = best
        for k, b in enumerate(cand.beams):
            alpha_p[b], alpha_s[b] = sol.alpha_p[k], sol.x[k] * sol.x[k]
        chosen[list(cand.beams)], rate = True, sol.objective_rate
    return chosen, rate, alpha_p, alpha_s


def lane_solutions(
    g_gain: np.ndarray, h_gain: np.ndarray, cfg: SystemConfig, strategy: str
) -> tuple[list[tuple[AggregationCandidate, Problem4Solution]], int]:
    """Every feasible set of two or more beams of every trial, solved as
    the lanes of one lockstep bisection, as (candidate, solution) pairs,
    with the lockstep iterations."""
    table = _SetTable(g_gain, h_gain, cfg, strategy)
    # (set, cell) pairs whose set has two or more beams, all of eta <= 1,
    # cell by cell
    fits = ~(table.members[:, :, None] & (table.etas > 1.0)).any(axis=1)
    cells, sets = np.nonzero((fits & (table.members.sum(axis=1) > 1)[:, None]).T)
    lanes = _Lanes(table, sets, cells)
    t_star, steps, _ = lanes.solve(np.arange(len(sets)), np.full(len(sets), -np.inf))
    solved = ~np.isnan(t_star)
    alpha_p, x = lanes.split(np.where(solved, t_star, 0.0))
    rate = log2_each(1.0 + np.where(solved, t_star * t_star, 0.0) / lanes.tau_d)
    out = []
    for lane, (i, c) in enumerate(zip(sets.tolist(), cells.tolist())):
        cand, k = table.candidate(i, c), -len(table.beams(i, c))
        sol = Problem4Solution((), (), 0.0, 0.0, "infeasible")
        if solved[lane]:
            sol = Problem4Solution(
                tuple(alpha_p[k:, lane].tolist()),
                tuple(x[k:, lane].tolist()),
                t_star[lane].item(),
                rate[lane].item(),
                "optimal",
            )
        out.append((cand, sol))
    return out, steps


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def masked_lockstep(
    lanes: _Lanes, cell: np.ndarray, floor: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """The lockstep that masks the closed lanes and races at every step:
    _Lanes.solve's loop without its unmasked leading steps, self being the
    lanes.  Returns t* (nan where unsolved or raced out), the iterations
    and the lanes raced out."""
    self = lanes
    hi = self._cap(np.zeros(self.h.shape))  # sum sqrt(h_m)
    feasible = self._sweep(np.zeros(hi.shape))[1]
    live, lanes = np.flatnonzero(feasible), self._take(feasible)
    hi, cell, lo = hi[live], cell[live], np.zeros(len(live))
    tol = 1e-10 * (1.0 + hi)
    steps, racing = 0, np.bincount(cell, minlength=1).max() > 1
    while steps < _BISECT_MAX_ITER and (open_ := ~(hi - lo <= tol)).any():
        steps += 1
        mid = 0.5 * (lo + hi)
        up = lanes.holds(mid)
        lo, hi = np.where(open_ & up, mid, lo), np.where(open_ & ~up, mid, hi)
        if not racing:
            continue
        best = floor.copy()
        np.maximum.at(best, cell, 1.0 + lo * lo / lanes.tau_d)
        keep = (1.0 + hi * hi / lanes.tau_d) * (1.0 + _PRUNE_MARGIN) >= best[cell]
        if not keep.all():
            live, lo, hi, tol, cell = (a[keep] for a in (live, lo, hi, tol, cell))
            lanes = lanes._take(keep)
            racing = np.bincount(cell, minlength=1).max() > 1
    t_star = np.full(self.tau_d.shape, np.nan)
    t_star[live] = lo
    return t_star, steps, int(feasible.sum()) - len(live)


def full_log_offer(inc, sinr: np.ndarray, t: np.ndarray, sets) -> None:
    """_Incumbents.offer with log2_each taken on every offered entry."""
    self = inc
    rate, solved = np.full(sinr.shape, -np.inf), ~np.isnan(sinr)
    rate[solved] = log2_each(1.0 + sinr[solved])
    best = rate.argmax(axis=0)
    cells = np.arange(rate.shape[1])
    top = rate[best, cells]
    tied = ((rate == top).sum(axis=0) > 1) | (top == self.rate)
    win = (top > self.rate) & ~tied
    self.rate[win], self.sinr[win] = top[win], sinr[best, cells][win]
    self.t[win], self.set[win] = t[best, cells][win], sets[best, cells][win]
    for c in np.flatnonzero(tied & (top > -np.inf)).tolist():
        for p in np.flatnonzero(rate[:, c] == top[c]).tolist():
            if not self.below(top[c], sets[p, c], c):
                self.rate[c], self.sinr[c] = top[c], sinr[p, c]
                self.t[c], self.set[c] = t[p, c], sets[p, c]
