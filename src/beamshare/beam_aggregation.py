"""Multi-beam secondary access: direct decoding and the SIC-chain variant.

Both are evaluated on every (SNR point, trial) cell of a block of draws.
Scheme 1 combines the secondary signal coherently over every beam and
decodes directly, treating every primary signal as noise; its split is
closed-form.  Scheme 2 first decodes and cancels the primary signals on its
beams (strongest first), so the split must let both the legacy receiver
and the secondary receiver decode each primary signal.  Maximizing the
secondary rate is then a concave program in x_m = sqrt(alpha_s_m), solved
by bisection on the aggregate amplitude t = sum sqrt(h_m) x_m: for fixed t
a backward sweep gives the least feasible alpha_p (each decode constraint
involves only later beams and t), and the headroom cap(t) = sum over the
set of sqrt(h_m (1 - alpha_p_m(t))) is nonincreasing in t, so the optimum
is the largest t with cap(t) >= t.  A block's sets are solved as lanes of
one lockstep bisection whose floats are those of the scalar solve_problem4,
after a pruned visit, and a lane leaves the lockstep once its bracket
proves it loses its cell; both keep the exhaustive winner bit for bit (see
evaluate_scheme2_block).  A grid oracle and an independent constraint
certifier cross-check the solver.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel_model import ChannelBlock, SystemConfig
from .power_allocation import (
    CellOutcomes,
    alpha_s_cap,
    beam_sum,
    eta,
    log2_at_least,
    log2_each,
    mode_i_alpha_p,
    snr_points,
    tau,
)

__all__ = [
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "AggregationCandidate",
    "Problem4Solution",
    "enumerate_candidates",
    "min_primary_power",
    "solve_problem4",
    "oracle_grid_solver",
    "certify_solution",
    "evaluate_scheme1",
    "evaluate_scheme1_block",
    "evaluate_scheme2",
    "evaluate_scheme2_block",
]

STRATEGIES = ("prefixes_plus_singletons", "all_subsets")
DEFAULT_STRATEGY = STRATEGIES[0]
ALL_SUBSETS_MAX_BEAMS = 8

_BISECT_MAX_ITER = 200
# relative margin of scheme 2's set pruning bounds (see evaluate_scheme2_block)
_PRUNE_MARGIN = 1e-9
# relative slack of the weakest-beam edge (see evaluate_scheme2_block)
_EDGE_SLACK = 1e-12
# multi-beam sets a cell takes per round of scheme 2's search
_ROUND = 8
# absolute slack of certify_solution's constraint checks
_CERTIFY_TOL = 1e-8


@dataclass(frozen=True)
class AggregationCandidate:
    """One candidate beam set, ordered by descending secondary gain: the
    whole instance of the scheme 2 program over that set.

    h and etas hold each in-set beam's secondary gain and minimum primary
    share; tau_d is the interference-plus-noise from the beams outside the
    set (inactive mode) plus 1/rho.  A candidate with any eta > 1 cannot
    protect the legacy user at all and is infeasible up front.
    """

    beams: tuple[int, ...]
    h: tuple[float, ...]
    etas: tuple[float, ...]
    tau_d: float
    eps_p: float

    @property
    def feasible(self) -> bool:
        return max(self.etas) <= 1.0


@dataclass(frozen=True)
class Problem4Solution:
    """Optimal power split over a candidate set (or infeasibility marker).

    alpha_p and x follow the candidate's beam order; alpha_s_m = x_m^2.
    t_star is the achieved aggregate amplitude sum sqrt(h_m) x_m and
    objective_rate = log2(1 + t_star^2 / tau_d).
    """

    alpha_p: tuple[float, ...]
    x: tuple[float, ...]
    t_star: float
    objective_rate: float
    status: str  # optimal | infeasible


def _check_strategy(strategy: str, m_beams: int) -> None:
    """Raise ValueError unless strategy is one of STRATEGIES and can list
    the sets of m_beams beams: all_subsets stops at ALL_SUBSETS_MAX_BEAMS."""
    if strategy not in STRATEGIES:
        raise ValueError(f"candidate_strategy must be one of {STRATEGIES}")
    if strategy == "all_subsets" and m_beams > ALL_SUBSETS_MAX_BEAMS:
        raise ValueError(
            f"candidate_strategy all_subsets is limited to "
            f"m_beams <= {ALL_SUBSETS_MAX_BEAMS}"
        )


@functools.lru_cache(maxsize=None)
def _layout(strategy: str, m_beams: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strategy's beam sets in enumeration order, as (set, rank)
    membership, rank r being the r-th strongest beam, as their ranks,
    ascending and right-aligned in m_beams slots, -1 in the slots before,
    and as each set's parent: the index of the set without its last rank,
    -1 for a singleton.  prefixes_plus_singletons lists the m_beams
    prefixes, then the singletons not among them; all_subsets lists the
    subsets by size, then lexicographically.  See _check_strategy."""
    _check_strategy(strategy, m_beams)
    if strategy == "all_subsets":
        sets = [
            ranks
            for size in range(1, m_beams + 1)
            for ranks in itertools.combinations(range(m_beams), size)
        ]
    else:
        prefixes = [tuple(range(k)) for k in range(1, m_beams + 1)]
        sets = list(dict.fromkeys(prefixes + [(r,) for r in range(m_beams)]))
    index = {ranks: i for i, ranks in enumerate(sets)}
    parent = np.array([index.get(ranks[:-1], -1) for ranks in sets])
    members = np.zeros((len(sets), m_beams), dtype=bool)
    slots = np.full(members.shape, -1)
    for i, ranks in enumerate(sets):
        members[i, list(ranks)] = True
        slots[i, m_beams - len(ranks) :] = ranks
    members.flags.writeable = slots.flags.writeable = parent.flags.writeable = False
    return members, slots, parent


class _SetTable:
    """A block's candidate sets on each of its (SNR point, trial) cells,
    with each (set, cell) pair's tau_d and bound SNR as (set, cell) arrays.

    Cell c is trial c % T at SNR point c // T; h and etas are rank-major
    (M, C), rank r being the cell's r-th strongest beam (descending h, ties
    by index).  tau_d is tau() of the beams outside the set, in ascending
    index order, a beam_sum over all sets at once, each beam's mask built
    as the sum reaches it.  B = sum sqrt(h_k (1 - eta_k)) sums the set's
    ranks in ascending order, as a sequential sum in candidate order does,
    and is nan for a set with a beam of eta > 1; it is built on the rank
    lattice, one set size at a time, B of a set being B of its parent plus
    the term of its last rank.  So every float is the scalar sum's.  snr =
    min(B^2, edge) / tau_d (see evaluate_scheme2_block) is below 0 or nan
    for a set that fits no alpha_p; its memory is cell-major, so snr.T is
    a C-contiguous (cell, set) array.
    """

    def __init__(self, g_gain, h_gain, cfg: SystemConfig, strategy: str):
        m_beams, trials = h_gain.shape
        self.rho = snr_points(g_gain, cfg)
        eps_p = self.eps_p = cfg.eps_p
        self.members, self.slots, self.parent = _layout(strategy, m_beams)
        self.trial = np.tile(np.arange(trials), len(self.rho))
        rho = np.repeat(self.rho, trials)
        self.order = np.argsort(-h_gain, axis=0, kind="stable")
        by_rank = self.order[:, self.trial]
        g = g_gain[:, self.trial]
        self.base_ap = mode_i_alpha_p(g, rho, eps_p)
        self.h = np.take_along_axis(h_gain[:, self.trial], by_rank, 0)
        self.etas = np.take_along_axis(eta(g, rho, eps_p), by_rank, 0)
        rank_of = np.argsort(by_rank, axis=0)
        outside = (~self.members[:, rank] for rank in rank_of)
        self.tau_d = tau(h_gain[:, self.trial], self.base_ap, rho, outside)
        snr = self.power_bound()
        snr *= snr
        # edge + tau_d per rank, the slack relative to h_last / eps_p; a
        # tiny r_p rounds eps_p to 0, and then no beam has an edge
        if eps_p > 0.0:
            reach = self.h / eps_p * (1.0 + _EDGE_SLACK)
        else:
            reach = np.full(self.h.shape, np.inf)
        edge = reach[self.slots[:, -1]]
        edge -= self.tau_d
        np.minimum(snr, edge, out=snr)
        snr /= self.tau_d
        self.snr = snr

    def power_bound(self) -> np.ndarray:
        """B of every (set, cell) pair; nan for a set with a beam of eta > 1.
        Its memory is cell-major, as snr's, which is built from it in place."""
        with np.errstate(invalid="ignore"):
            terms = np.sqrt(self.h * (1.0 - self.etas))
        terms[self.etas > 1.0] = np.nan
        bound = np.empty(self.tau_d.shape[::-1]).T
        bound[...] = terms[self.slots[:, -1]]
        size = self.members.sum(axis=1)
        for s in range(2, len(terms) + 1):  # each parent has s - 1 beams
            grown = np.flatnonzero(size == s)
            bound[grown] += bound[self.parent[grown]]
        return bound

    def beams(self, i: int, c: int) -> tuple[int, ...]:
        """Set i's beam indices at cell c, in candidate order."""
        ranks = self.slots[i][self.slots[i] >= 0]
        return tuple(self.order[ranks, self.trial[c]].tolist())

    def candidate(self, i: int, c: int) -> AggregationCandidate:
        ranks = self.slots[i][self.slots[i] >= 0]
        return AggregationCandidate(
            beams=self.beams(i, c),
            h=tuple(self.h[ranks, c].tolist()),
            etas=tuple(self.etas[ranks, c].tolist()),
            tau_d=self.tau_d[i, c].item(),
            eps_p=self.eps_p,
        )


_quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")


class _Lanes:
    """Scheme 2 programs as arrays, one lane per (set, cell) pair, in the
    caller's order.

    Slot k of a lane holds a beam of its set, in candidate order and
    right-aligned: a set of s beams fills slots M - s to M - 1.  A slot
    without a beam has h = inf and eta = 0 in the sweep, which floors its
    alpha_p at 0 and tests nothing there, and h = 0 in the cap, which adds
    sqrt(0) = 0.0; the backward sweep reaches those slots only after every
    beam of the lane.  So each lane's floats are those of
    min_primary_power, _cap and solve_problem4 on its candidate, in their
    order, every sum starting from 0.0.  over flags the lanes with a beam of
    eta > 1, min_primary_power's alpha_p > 1 test: elsewhere alpha_p > 1
    needs r / h > 1, so r > h (r / h of r <= h rounds to at most 1), which
    fails the lane already.
    """

    def __init__(self, table: _SetTable, sets: np.ndarray, cells: np.ndarray):
        """The lanes of the (sets[l], cells[l]) pairs of the table."""
        ranks = np.ascontiguousarray(table.slots[sets].T)  # each slot's row contiguous
        empty = ranks < 0
        self.hc = np.where(empty, 0.0, table.h[ranks, cells])
        self.h = np.where(empty, np.inf, self.hc)
        self.etas = np.where(empty, 0.0, table.etas[ranks, cells])
        self.over = (self.etas > 1.0).any(axis=0)
        self.tau_d, self.eps_p = table.tau_d[sets, cells], table.eps_p

    def _sweep(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """min_primary_power at each lane's t: alpha_p, and where it fits.
        The running sum starts at the weakest slot as h a, not 0.0 + h a
        (the same float), and takes no term from slot 0, which nothing
        reads."""
        u = t * t
        acc, hk_a = None, np.empty(t.shape)
        required, alpha_p = np.empty(self.h.shape), np.empty(self.h.shape)
        for k in range(len(self.h) - 1, -1, -1):
            r, a, h_k = required[k], alpha_p[k], self.h[k]
            np.add(u if acc is None else np.add(acc, u, out=r), self.tau_d, out=r)
            r *= self.eps_p
            np.divide(r, h_k, out=a)
            np.fmax(self.etas[k], a, out=a)
            if acc is None:
                acc = h_k * a
            elif k:
                acc += np.multiply(h_k, a, out=hk_a)
        fails = (required > self.h).any(axis=0) | self.over
        return alpha_p, ~fails

    def _cap(self, alpha_p: np.ndarray) -> np.ndarray:
        roots = np.subtract(1.0, alpha_p)
        roots *= self.hc
        return beam_sum(np.sqrt(roots, out=roots))

    # a lane that stops fitting goes on with values nothing reads, so the
    # steps below silence numpy's warnings about them
    @_quiet
    def holds(self, t: np.ndarray) -> np.ndarray:
        """The bisection's test: some alpha_p fits at t and cap(t) >= t."""
        alpha_p, fits = self._sweep(t)
        return fits & (self._cap(alpha_p) >= t)

    def _take(self, keep: np.ndarray) -> "_Lanes":
        """The lanes where keep holds, each slot's row contiguous."""
        part = copy.copy(self)
        for name in ("hc", "h", "etas", "over", "tau_d"):
            setattr(part, name, getattr(self, name).compress(keep, axis=-1))
        return part

    @_quiet
    def solve(self, cell: np.ndarray, floor: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Each lane's t* (nan where no alpha_p fits at t = 0 or the lane
        is raced out), the lockstep iterations and the lanes raced out:
        solve_problem4's bisection on every lane at once, a lane taking no
        step once hi - lo <= its tolerance.  Lane l runs in cell cell[l],
        whose incumbent has 1 + SNR = floor[cell[l]].  While two lanes
        share a cell, each step drops the lanes whose (1 + hi^2 / tau_d)
        (1 + 1e-9) is below that floor or below 1 + lo^2 / tau_d of a lane
        of their cell.  lo only rises, t* <= hi, every float step is
        monotone, and the 1e-9 gap keeps math.log2 strictly ordered, so a
        dropped lane ranks below its cell's winner, even on a tie-break;
        each survivor keeps its midpoints bit for bit.

        No lane can close in the first k <= log2(min H / tol) - 3 steps, H
        being the lanes' first hi: each midpoint is off by at most 2^-53 H,
        so after k steps hi - lo >= H 2^-k - 2^-52 H > tol.  Those steps
        update every lane with no mask."""
        hi = self._cap(np.zeros(self.h.shape))  # sum sqrt(h_m)
        feasible = self._sweep(np.zeros(hi.shape))[1]
        live, lanes = np.flatnonzero(feasible), self._take(feasible)
        hi, cell, lo = hi[live], cell[live], np.zeros(len(live))
        tol = 1e-10 * (1.0 + hi)
        steps, racing = 0, np.bincount(cell, minlength=1).max() > 1
        # floor(log2(min H / tol)) - 3, and 0 where some H is 0, inf or nan
        plain = max(0, int(np.frexp(np.min(hi / tol, initial=np.inf))[1]) - 4)
        while steps < _BISECT_MAX_ITER and (
            (steps < plain and lo.size > 0) or (open_ := ~(hi - lo <= tol)).any()
        ):
            steps += 1
            mid = 0.5 * (lo + hi)
            up = lanes.holds(mid)
            if steps <= plain:
                lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
            else:
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

    @_quiet
    def split(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """alpha_p and x at each lane's t*, as _solution has them; slots
        without a beam hold values nothing reads."""
        alpha_p, _ = self._sweep(t)
        cap = self._cap(alpha_p)
        scale = np.where(cap > 0.0, t / np.where(cap > 0.0, cap, 1.0), 0.0)
        x = np.sqrt(1.0 - alpha_p) * scale
        return alpha_p, x


def enumerate_candidates(
    chan: ChannelBlock, cfg: SystemConfig, strategy: str
) -> list[AggregationCandidate]:
    """List candidate beam sets for the given search strategy.

    prefixes_plus_singletons {strongest k beams} for k = 1..M, then every
                             single beam not among them
    all_subsets              every nonempty subset (M <= 8)

    Every set is ordered by descending h_gain (ties by index); infeasible
    candidates are still listed.  They are those of chan's one trial at
    cfg's one SNR point; more trials or points raise ValueError.
    """
    if np.size(cfg.rho) != 1 or chan.h_gain.shape[1] != 1:
        raise ValueError("candidates need one trial at one SNR point")
    table = _SetTable(chan.g_gain, chan.h_gain, cfg, strategy)
    return [table.candidate(i, 0) for i in range(len(table.slots))]


def min_primary_power(
    candidate: AggregationCandidate, t: float
) -> Optional[list[float]]:
    """Componentwise-minimal alpha_p meeting every decode constraint at
    aggregate amplitude t, or None when no alpha_p <= 1 works.

    Backward sweep: the constraint for the k-th beam in the chain lower
    bounds h_k alpha_p_k by eps_p times (everything decoded after it plus
    t^2 plus tau_d), and only later beams enter, so sweeping from the back
    and taking max(eta_k, bound) is minimal at every position.
    """
    u = t * t
    h = candidate.h
    out = [0.0] * len(h)
    acc = 0.0
    for k in range(len(h) - 1, -1, -1):
        h_k = h[k]
        required = candidate.eps_p * (acc + u + candidate.tau_d)
        if required > h_k:  # would need alpha_p > 1 (covers h_k = 0)
            return None
        a = max(candidate.etas[k], required / h_k)
        if a > 1.0:
            return None
        out[k] = a
        acc += h_k * a
    return out


def _cap(alpha_p: Sequence[float], h: Sequence[float]) -> float:
    """Largest achievable sum sqrt(h_k) x_k given x_k^2 <= 1 - alpha_p_k."""
    # an explicit loop: sum() of floats is compensated on Python >= 3.12
    acc = 0.0
    for h_k, a in zip(h, alpha_p):
        acc += math.sqrt(h_k * (1.0 - a))
    return acc


def _infeasible() -> Problem4Solution:
    return Problem4Solution((), (), 0.0, 0.0, "infeasible")


def _singleton(h, etas, tau_d, eps_p: float):
    """The fixed point on a single beam, elementwise over floats or arrays:
    alpha_s is the smaller of the QoS and SIC caps, exactly as in
    single-beam selection.  Returns where it fits, u = h alpha_s = t*^2,
    alpha_p and alpha_s."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = np.logical_not(h <= 0.0) & np.logical_not(eps_p * tau_d > h)
        alpha_s = alpha_s_cap(h, etas, tau_d, eps_p)
        u = h * alpha_s
        alpha_p = np.minimum(1.0, np.maximum(etas, eps_p * (u + tau_d) / h))
    return fits, u, alpha_p, alpha_s


def _solve_singleton(candidate: AggregationCandidate) -> Problem4Solution:
    (h,), (etas,), tau_d = candidate.h, candidate.etas, candidate.tau_d
    fits, u, alpha_p, alpha_s = _singleton(h, etas, tau_d, candidate.eps_p)
    if not fits:
        return _infeasible()
    return Problem4Solution(
        alpha_p=(float(alpha_p),),
        x=(math.sqrt(alpha_s),),
        t_star=math.sqrt(u),
        objective_rate=math.log2(1.0 + u / tau_d),
        status="optimal",
    )


def solve_problem4(candidate: AggregationCandidate) -> Problem4Solution:
    """Maximize the secondary rate over the candidate set.

    Singleton sets use the closed-form fixed point.  Larger sets bisect on
    t over [0, sum sqrt(h_m)] to absolute tolerance 1e-10 (1 + sum
    sqrt(h_m)), with one min_primary_power sweep per midpoint, keeping the
    midpoint when some alpha_p fits there and cap(t) >= t; the set is
    infeasible when no alpha_p fits at t = 0.  alpha_p is the sweep at the
    final t*, and x is rescaled by t*/cap(t*) so the achieved aggregate
    amplitude equals t* and every box constraint keeps its slack.  This is
    the scalar lane of evaluate_scheme2_block's lockstep bisection, and
    the reference its lanes are checked against bit for bit.
    """
    if not candidate.feasible:
        return _infeasible()
    h = candidate.h
    if len(h) == 1:
        return _solve_singleton(candidate)
    alpha_p = min_primary_power(candidate, 0.0)
    if alpha_p is None:
        return _infeasible()
    hi = _cap([0.0] * len(h), h)  # sum sqrt(h_m)
    lo = 0.0
    tol = 1e-10 * (1.0 + hi)
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        ap_mid = min_primary_power(candidate, mid)
        if ap_mid is not None and _cap(ap_mid, h) >= mid:
            lo, alpha_p = mid, ap_mid
        else:
            hi = mid
    return _solution(candidate, lo, alpha_p)


def _solution(
    candidate: AggregationCandidate, t_star: float, alpha_p: list[float]
) -> Problem4Solution:
    """The solution at amplitude t_star with the sweep alpha_p there; x is
    rescaled by t*/cap(t*) so the aggregate amplitude equals t*."""
    cap_star = _cap(alpha_p, candidate.h)
    scale = t_star / cap_star if cap_star > 0.0 else 0.0
    x = tuple(math.sqrt(1.0 - a) * scale for a in alpha_p)
    return Problem4Solution(
        alpha_p=tuple(alpha_p),
        x=x,
        t_star=t_star,
        objective_rate=math.log2(1.0 + t_star * t_star / candidate.tau_d),
        status="optimal",
    )


def certify_solution(
    candidate: AggregationCandidate, solution: Problem4Solution
) -> list[str]:
    """Re-check every program constraint at the returned point, without
    reusing any solver intermediate.  Returns the violations past tol."""
    tol = _CERTIFY_TOL
    if solution.status != "optimal":
        return []
    beams, h, eps_p = candidate.beams, candidate.h, candidate.eps_p
    ap, x = solution.alpha_p, solution.x
    t = sum(math.sqrt(h_k) * x_k for h_k, x_k in zip(h, x))
    u = t * t
    violations = []
    for k in range(len(beams)):
        tail = sum(h[j] * ap[j] for j in range(k + 1, len(beams)))
        lhs = eps_p * (tail + u + candidate.tau_d) - h[k] * ap[k]
        if lhs > tol:
            violations.append(f"decode constraint on beam {beams[k]}: {lhs:.3e} > 0")
        if ap[k] < candidate.etas[k] - tol:
            violations.append(f"primary QoS floor on beam {beams[k]}")
        if x[k] * x[k] + ap[k] > 1.0 + tol:
            violations.append(f"power budget on beam {beams[k]}")
        if x[k] < 0.0 or ap[k] < -tol or ap[k] > 1.0 + tol:
            violations.append(f"sign/range bounds on beam {beams[k]}")
    if abs(t - solution.t_star) > tol * (1.0 + solution.t_star):
        violations.append("reported t_star does not match the returned x")
    return violations


def oracle_grid_solver(
    candidate: AggregationCandidate, resolution: float
) -> Problem4Solution:
    """Brute-force check of solve_problem4 over an x grid (sets of <= 3 beams).

    Every grid point x in [0, 1]^d is accepted iff the minimal alpha_p at
    its own aggregate amplitude fits under 1 - x_m^2 componentwise; the best
    accepted point is returned, the first in C order on a tie.  Coordinates
    provably infeasible already at t = 0 are pruned, which cannot change
    the optimum.

    The float test is downward-closed in every coordinate: raising x_k
    raises t, u = t^2, every alpha_p and the running sum, each by monotone
    float operations, and lowers 1 - x_k^2.  So for each point of the
    plane of the leading d - 1 axes, the accepted points of the last axis
    are a prefix of it, found by a binary search vectorized over the plane;
    t does not fall along the prefix, so its end holds the plane point's
    best t, and the grid's best is the first plane point reaching the
    largest, at the first index of its row reaching it.
    """
    h, eps_p = candidate.h, candidate.eps_p
    d = len(h)
    if d > 3:
        raise ValueError("grid oracle supports at most 3 beams")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if not candidate.feasible or any(h_k <= 0.0 for h_k in h):
        return _infeasible()
    ap0 = min_primary_power(candidate, 0.0)
    if ap0 is None:
        return _infeasible()

    sqrt_h = [math.sqrt(h_k) for h_k in h]
    axes = []
    for k in range(d):
        axis = np.arange(0.0, 1.0 + 0.5 * resolution, resolution)
        bound = math.sqrt(1.0 - ap0[k])  # alpha_p only grows with t
        axes.append(axis[axis <= bound + 1e-12])
    lead, last = np.meshgrid(*axes[:-1], indexing="ij"), axes[-1]

    def amplitude(xs: Sequence) -> np.ndarray:
        return sum(sqrt_h[k] * xs[k] for k in range(d))

    def accepted(x_last: np.ndarray) -> np.ndarray:
        xs = [*lead, x_last]
        t = amplitude(xs)
        u = t * t
        feasible = np.ones(t.shape, dtype=bool)
        acc = np.zeros(t.shape)
        for k in range(d - 1, -1, -1):
            a = np.maximum(candidate.etas[k], eps_p * (acc + u + candidate.tau_d) / h[k])
            feasible &= a <= 1.0 - xs[k] * xs[k]
            acc += h[k] * a
        return feasible

    # largest accepted index on the last axis per plane point, -1 for none
    shape = lead[0].shape if lead else ()
    lo, hi = np.full(shape, -1), np.full(shape, len(last))
    while (open_ := hi - lo > 1).any():
        mid = (lo + hi) // 2  # an index of last (-1 too) where not open
        ok = accepted(last[mid])
        lo, hi = np.where(open_ & ok, mid, lo), np.where(open_ & ~ok, mid, hi)
    if not (lo >= 0).any():
        return _infeasible()
    t_end = np.where(lo >= 0, amplitude([*lead, last[np.maximum(lo, 0)]]), -np.inf)
    plane = np.unravel_index(int(np.argmax(t_end)), shape)
    best_t = float(t_end[plane])
    at = [x[plane] for x in lead]
    row = amplitude([*at, last[: lo[plane] + 1]])
    best_x = (*map(float, at), float(last[int(np.argmax(row == best_t))]))
    alpha_p = min_primary_power(candidate, best_t)
    assert alpha_p is not None
    return Problem4Solution(
        alpha_p=tuple(alpha_p),
        x=best_x,
        t_star=best_t,
        objective_rate=math.log2(1.0 + best_t * best_t / candidate.tau_d),
        status="optimal",
    )


def evaluate_scheme1_block(
    g_gain: np.ndarray, h_gain: np.ndarray, cfg: SystemConfig
) -> CellOutcomes:
    """Evaluate direct-decoding aggregation over every beam, on every
    (SNR point, trial) cell of a block.

    g_gain and h_gain are (M, T), beam-major; cfg.rho holds the SNR points,
    one per row of the cells (see snr_points).  Each beam gives the
    secondary user everything the legacy QoS can spare, alpha_p =
    min(1, eta_m) and alpha_s = 1 - alpha_p.  The secondary user
    combines its shares coherently and decodes directly, treating every
    primary signal (including those on its own beams) as noise.  There is
    no SIC precondition: the achieved rate is always decodable, so outage
    is simply rate < r_s.
    """
    rho = snr_points(g_gain, cfg)
    g, h = g_gain[:, None, :], h_gain[:, None, :]
    alpha_p = np.minimum(1.0, eta(g, rho, cfg.eps_p))
    alpha_s = 1.0 - alpha_p
    t = beam_sum(np.sqrt(h * alpha_s))
    sinr = t * t / tau(h, alpha_p, rho)
    return CellOutcomes(
        sinr=sinr,
        sic_ok=np.ones(sinr.shape, dtype=bool),
        outage=~(log2_at_least(1.0 + sinr, cfg.r_s) | np.isnan(sinr)),  # as rate < r_s
        build_split=lambda: (np.ones(alpha_p.shape, dtype=bool), alpha_p, alpha_s),
        g_gain=g,
        rho=rho,
    )


def evaluate_scheme1(chan: ChannelBlock, cfg: SystemConfig) -> CellOutcomes:
    """Evaluate direct-decoding aggregation on the draws of chan at cfg's
    SNR point."""
    return evaluate_scheme1_block(chan.g_gain, chan.h_gain, cfg)


def _rate_bound(snr: np.ndarray) -> np.ndarray:
    """log2(1 + snr) with snr raised by the pruning margin, which covers the
    rounding between a bound and the solver's own t*^2 / tau_d."""
    return log2_each(1.0 + (1.0 + _PRUNE_MARGIN) * snr)


class _Incumbents:
    """Each cell's best set so far under scheme 2's ranking (largest rate,
    then smaller set, then lexicographic beam indices): its rate
    log2(1 + sinr) (-inf for none), sinr (0 for none), t* and set (-1 for none)."""

    def __init__(self, table: _SetTable):
        self.table = table
        self.rate = np.full(len(table.trial), -np.inf)
        self.sinr = np.zeros(self.rate.shape)
        self.t = np.zeros(self.rate.shape)
        self.set = np.full(self.rate.shape, -1)

    def below(self, rate: float, i: int, c: int) -> bool:
        """Whether set i at this rate ranks below cell c's incumbent."""
        if rate != self.rate[c]:
            return rate < self.rate[c]
        mine, theirs = self.table.beams(i, c), self.table.beams(self.set[c], c)
        return (len(mine), sorted(mine)) > (len(theirs), sorted(theirs))

    def offer(self, sinr: np.ndarray, t: np.ndarray, sets):
        """Make set sets[p, c], at SNR sinr[p, c] and t*[p, c], cell c's
        incumbent if its rate log2(1 + sinr) ranks first; sinr is nan where
        nothing is offered.  The rate is taken only where 1 + sinr is
        within 1e-12 relative of its cell's largest; elsewhere it is -inf,
        as where nothing is offered: log2 there is at least 1.4e-12 below
        the top, more than an ulp of any rate <= 1024, so such a set can
        neither rank first nor tie."""
        x, rate = 1.0 + sinr, np.full(sinr.shape, -np.inf)
        near = x >= np.fmax.reduce(x, axis=0) * (1.0 - 1e-12)  # False on nan
        rate[near] = log2_each(x[near])
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


def evaluate_scheme2_block(
    g_gain: np.ndarray,
    h_gain: np.ndarray,
    cfg: SystemConfig,
    strategy: str = DEFAULT_STRATEGY,
) -> CellOutcomes:
    """Evaluate SIC-chain aggregation, with the set chosen by enumeration,
    on every (SNR point, trial) cell of a block.

    g_gain and h_gain are (M, T), beam-major; cfg.rho holds the SNR points,
    one per row of the cells (see snr_points).  A cell's winner has the
    largest secondary rate over its feasible candidates (ties: smaller set,
    then lexicographic beam indices).  The decode constraints are part of
    the program, so SIC always succeeds at the returned point; with
    singletons enumerated the result never falls below selection.

    Each cell's winner, rate and power split are bit for bit those of
    solving every set, though most sets are not solved.  Two bounds on t*
    need no sweep: B = sum sqrt(h_k (1 - eta_k)) >= cap(t) (alpha_p >=
    eta), and the weakest beam's edge: every t the sweep accepts has
    eps_p (t^2 + tau_d) <= h_last.  Near t* = 0, h_last / eps_p - tau_d
    cancels, so the edge is h_last / eps_p (1 + 1e-12) - tau_d; a set whose
    edge is below 0 fits no alpha_p and is left out.  The singletons' closed forms
    are the first incumbents.  Each cell then visits its larger sets in
    descending s_bound = min(B^2, edge) / tau_d (ties in enumeration
    order), _ROUND sets a round, and stops at the first whose bound rate
    log2(1 + s_bound) is below its incumbent's rate.  The other sets of the
    round, over all cells, form one lane table (see _Lanes), whose first
    sweep is at t_R = sqrt(s* tau_d) (1 - 1e-9), s* being the incumbent's
    SNR: if no alpha_p fits there or cap(t_R) < t_R, t* < t_R (cap is
    nonincreasing), and the set is dropped when its rate bound at t_R ranks
    below the incumbent.  A cell with no incumbent has s* = 0 and rate
    -inf, so it drops nothing.  Rate bounds are raised by the relative
    margin 1e-9, far above rounding, and compared as rates under the full
    ranking, since 1 + s can round SNRs more than 1e-9 apart onto one rate.
    The table's remaining lanes are solved by one lockstep bisection, and
    each cell's best becomes its incumbent.  The lanes race: a lane whose
    bracket proves it ranks below its cell's incumbent or another lane
    leaves the lockstep (see _Lanes.solve).  The ranking is a total order,
    so neither cut can change the winner.

    counts holds the block's search counters: multi-beam (set, cell) pairs
    ranked, dropped by their bound and by the t_R test, lanes solved and
    raced out of the lockstep, rounds, and lockstep bisection iterations.
    The outcome takes the winners' rates from the search.  Their split,
    one more lane table swept at each winner's t* and the singletons'
    closed forms, scattered to the beams, is built once, on the outcome's
    first read of chosen, alpha_p or alpha_s (only primary_min_rate
    sweeps, run_trial and tests read it), from the pass's own set
    table and incumbents.
    """
    m_beams, trials = h_gain.shape
    table = _SetTable(g_gain, h_gain, cfg, strategy)
    inc = _Incumbents(table)
    counts = dict(
        ranked=0, bound_drops=0, t_r_drops=0, lanes=0, raced=0, rounds=0, iterations=0
    )
    # the singletons' closed forms (_solve_singleton) are the first incumbents
    single = table.members.sum(axis=1) == 1
    ones = np.flatnonzero(single)
    ranks, tau_d = table.slots[ones, -1], table.tau_d[ones]
    fits, u, _, _ = _singleton(table.h[ranks], table.etas[ranks], tau_d, table.eps_p)
    sinr = np.where(fits & (table.snr[ones] >= 0.0), u / tau_d, np.nan)
    inc.offer(sinr, np.sqrt(u), np.broadcast_to(ones[:, None], u.shape))
    _visit(table, inc, single, counts)
    shape = (m_beams, len(table.rho), trials)

    def split():
        # every cell's winning split, in slots, scattered to its beams; a
        # singleton's is its closed form
        won = np.flatnonzero(inc.set >= 0)
        sets = inc.set[won]
        alpha_p, x = _Lanes(table, sets, won).split(inc.t[won])
        one = single[sets]
        rank, cell, i = table.slots[sets[one], -1], won[one], sets[one]
        _, _, one_ap, one_as = _singleton(
            table.h[rank, cell], table.etas[rank, cell], table.tau_d[i, cell], table.eps_p
        )
        alpha_p[-1, one], x[-1, one] = one_ap, np.sqrt(one_as)
        ranks = table.slots[sets].T
        slot, lane = np.nonzero(ranks >= 0)
        at = table.order[ranks[slot, lane], table.trial[won[lane]]], won[lane]
        out_ap, out_as = table.base_ap.copy(), np.zeros(table.base_ap.shape)
        chosen = np.zeros(out_ap.shape, dtype=bool)
        out_ap[at], out_as[at] = alpha_p[slot, lane], x[slot, lane] * x[slot, lane]
        chosen[at] = True
        return chosen.reshape(shape), out_ap.reshape(shape), out_as.reshape(shape)

    return CellOutcomes(
        sinr=inc.sinr.reshape(shape[1:]),
        sic_ok=np.ones(shape[1:], dtype=bool),
        # a cell with no winner has rate -inf
        outage=(inc.rate < cfg.r_s).reshape(shape[1:]),
        build_split=split,
        g_gain=g_gain[:, None, :],
        rho=table.rho,
        counts=counts,
        # log2(1 + sinr), a cell with no winner having sinr 0
        rate=np.where(inc.set >= 0, inc.rate, 0.0).reshape(shape[1:]),
    )


def _visit(table: _SetTable, inc: _Incumbents, single: np.ndarray, counts: dict):
    """Visit every cell's sets of two or more beams in rounds, in
    descending bound SNR, ties in enumeration order, until a bound rate is
    below the incumbent's; each round's visited pairs are solved on one
    lane table (see _solve_round).  table.snr.T becomes the pending sets'
    bounds, cell by cell, so each cell's argmax runs over contiguous
    memory: a set leaves it, as -inf, when visited or dropped."""
    pending = table.snr.T
    pending[single | ~(pending >= 0.0)] = -np.inf  # or fit no alpha_p
    left = (pending > -np.inf).sum(axis=1)
    counts["ranked"] = int(left.sum())
    width = min(_ROUND, int(left.max()))
    cells, rows = np.arange(len(left)), np.arange(width)[:, None]
    sets, bound = np.empty((width, len(cells)), dtype=int), np.empty((width, len(cells)))
    while left.any():
        counts["rounds"] += 1
        for p in range(width):
            sets[p] = pending.argmax(axis=1)  # the first of the largest
            bound[p] = pending[cells, sets[p]]
            pending[cells, sets[p]] = -np.inf
        valid = bound > -np.inf
        rate = np.full(bound.shape, -np.inf)
        rate[valid] = _rate_bound(bound[valid])
        below = valid & (rate < inc.rate)
        ends = below.any(axis=0)
        cut = np.where(ends, below.argmax(axis=0), width)
        counts["bound_drops"] += int((left - cut)[ends].sum())
        left = np.where(ends, 0, left - valid.sum(axis=0))
        pending[ends] = -np.inf
        visit = valid & (rows < cut)
        if visit.any():
            _solve_round(table, inc, sets, visit, counts)


def _solve_round(
    table: _SetTable, inc: _Incumbents, sets: np.ndarray, visit: np.ndarray, counts: dict
):
    """Solve the round's visited pairs, set sets[p, c] at cell c, on one
    lane table, and offer them to the incumbents.  The table's first sweep,
    at t_R (see evaluate_scheme2_block), drops the sets that provably rank
    below their cell's incumbent; a cell with no incumbent has s* = 0, so
    t_R = 0 and a rate bound of 0, above its rate -inf.  The rest are the
    lanes of one lockstep bisection."""
    at, cells = sets[visit], np.nonzero(visit)[1]
    lanes = _Lanes(table, at, cells)
    t_r = np.sqrt(inc.sinr[cells] * lanes.tau_d) * (1.0 - _PRUNE_MARGIN)
    fails = np.flatnonzero(~lanes.holds(t_r))
    t_r, at, by = t_r[fails], at[fails], cells[fails]
    rate = _rate_bound(t_r * t_r / lanes.tau_d[fails])
    loses = rate < inc.rate[by]
    for l in np.flatnonzero(rate == inc.rate[by]).tolist():
        loses[l] = inc.below(rate[l], at[l], by[l])
    counts["t_r_drops"] += int(loses.sum())
    keep = np.ones(len(cells), dtype=bool)
    keep[fails[loses]] = False
    if not keep.any():
        return
    visit[visit] = keep
    lanes, cells = lanes._take(keep), cells[keep]
    t_star, steps, raced = lanes.solve(cells, 1.0 + inc.sinr)
    counts["lanes"] += len(t_star)
    counts["iterations"] += steps
    counts["raced"] += raced
    t_all, sinr = np.zeros(sets.shape), np.full(sets.shape, np.nan)
    t_all[visit], sinr[visit] = t_star, t_star * t_star / lanes.tau_d  # NaN: unsolved
    inc.offer(sinr, t_all, sets)


def evaluate_scheme2(
    chan: ChannelBlock, cfg: SystemConfig, strategy: str = DEFAULT_STRATEGY
) -> CellOutcomes:
    """Evaluate SIC-chain aggregation on the draws of chan at cfg's SNR
    point (see evaluate_scheme2_block)."""
    return evaluate_scheme2_block(chan.g_gain, chan.h_gain, cfg, strategy)
