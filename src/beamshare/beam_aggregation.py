"""Multi-beam secondary access: direct decoding and the SIC-chain variant.

Two aggregation modes are evaluated per channel draw:

* scheme 1 -- the secondary user combines its signal coherently over the
  active beams and decodes directly, treating every primary signal as
  noise; coefficients are closed-form.
* scheme 2 -- the secondary user first decodes and cancels the primary
  signals on its beams (strongest first), so the power split must let BOTH
  the legacy receiver and the secondary receiver decode each primary
  signal.  Maximizing the secondary rate is a concave program after the
  substitution x_m = sqrt(alpha_s_m); it is solved here by bisection on
  the aggregate amplitude t = sum sqrt(h_m) x_m.

The bisection works because for fixed t the componentwise-minimal feasible
alpha_p exists (each decode constraint involves only later beams and t, so
a backward sweep gives it), and the resulting power headroom

    cap(t) = sum over the set of sqrt(h_m (1 - alpha_p_m(t)))

is nonincreasing in t.  The optimum is the largest t with cap(t) >= t.
A brute-force grid oracle and an independent constraint certifier are kept
alongside the solver to cross-check it.

Scheme 2 does not solve every candidate set.  It visits them in
descending order of a bound that needs neither a sweep nor a candidate
object and drops, with one sweep at most, each set whose rate provably
ranks below the best set solved so far (see evaluate_scheme2); the winner
is the one an exhaustive search picks, bit for bit.  Nor does a solve
sweep every bisection midpoint: a root bracket decides all but the few
inside it (see solve_problem4).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channel_model import ChannelRealization, SystemConfig
from .power_allocation import (
    CellOutcomes,
    SchemeOutcome,
    alpha_s_cap,
    eta,
    log2_each,
    mode_i_alpha_p,
    tau,
)

__all__ = [
    "STRATEGIES",
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
]

STRATEGIES = ("prefixes", "prefixes_plus_singletons", "all_subsets")

_BISECT_MAX_ITER = 200
# width of the root bracket the bisection replay decides its midpoints by,
# relative to 1 + sum sqrt(h_m) (see solve_problem4)
_BRACKET_WIDTH = 1e-13
# relative margin of scheme 2's set pruning bounds (see evaluate_scheme2)
_PRUNE_MARGIN = 1e-9
# relative slack of the weakest-beam edge (see evaluate_scheme2)
_EDGE_SLACK = 1e-12
ALL_SUBSETS_MAX_BEAMS = 8


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


@functools.lru_cache(maxsize=None)
def _rank_masks(strategy: str, m_beams: int) -> tuple[int, ...]:
    """The strategy's beam sets in enumeration order, as rank masks: bit r
    stands for the r-th strongest beam."""
    if strategy == "all_subsets":
        return tuple(
            sum(1 << r for r in ranks)
            for size in range(1, m_beams + 1)
            for ranks in itertools.combinations(range(m_beams), size)
        )
    masks = [(1 << k) - 1 for k in range(1, m_beams + 1)]
    if strategy == "prefixes_plus_singletons":
        masks.extend(1 << r for r in range(m_beams))
    return tuple(dict.fromkeys(masks))


@functools.lru_cache(maxsize=None)
def _subset_axis(m_beams: int) -> tuple[np.ndarray, np.ndarray]:
    """The all_subsets rank masks in enumeration order, and their top bits."""
    masks = _rank_masks("all_subsets", m_beams)
    return np.array(masks), np.array([mask.bit_length() - 1 for mask in masks])


class _BeamSets:
    """A draw's candidate sets as rank masks, with each set's tau_d, its
    bound B = sum sqrt(h_k (1 - eta_k)) and the visit order of
    evaluate_scheme2, but no AggregationCandidate until one is asked for.

    Every sum repeats the float additions of tau() and of the sequential
    sum in candidate order (descending h), so the values are bit for bit
    those of the built candidates.  Under all_subsets both come from the
    subset lattice, as arrays over the candidate axis: the sum over a mask
    is the sum over the mask without its top bit plus the top term, over
    index masks for tau_d and over rank masks for B; both stay arrays
    indexed by rank mask, and a set's tau_d is read only when its candidate
    is built.  Otherwise they are dicts keyed by mask.  visits yields, once,
    the (min(B^2, edge) / tau_d, mask) pairs of evaluate_scheme2's visit,
    in descending bound, ties in enumeration order; sets with a beam of
    eta > 1 or an edge below 0 fit no alpha_p and are left out.
    """

    def __init__(self, chan: ChannelRealization, cfg: SystemConfig, strategy: str):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        m_beams = cfg.m_beams
        if strategy == "all_subsets" and m_beams > ALL_SUBSETS_MAX_BEAMS:
            raise ValueError(
                f"all_subsets enumeration is limited to {ALL_SUBSETS_MAX_BEAMS} beams"
            )
        h_gain = chan.h_gain.tolist()
        g_gain = chan.g_gain.tolist()
        order = sorted(range(m_beams), key=lambda i: (-h_gain[i], i))
        base_ap = mode_i_alpha_p(chan.g_gain, cfg.rho, cfg.eps_p).tolist()
        etas = [eta(g, cfg.rho, cfg.eps_p) for g in g_gain]
        self.order, self.eps_p = order, cfg.eps_p
        self.h = [h_gain[b] for b in order]
        self.etas = [etas[b] for b in order]
        self.masks = _rank_masks(strategy, m_beams)
        # rank bits of the beams no candidate containing them can use
        self.infeasible = sum(1 << r for r, e in enumerate(self.etas) if e > 1.0)
        # B's terms; nan marks an infeasible beam and stays nan in every sum
        terms = [
            math.sqrt(h_r * (1.0 - e_r)) if e_r <= 1.0 else math.nan
            for h_r, e_r in zip(self.h, self.etas)
        ]
        # edge + tau_d per rank, the slack relative to h_last / eps_p; a
        # tiny r_p rounds eps_p to 0, and then no beam has an edge
        reach = [
            h_r / cfg.eps_p * (1.0 + _EDGE_SLACK) if cfg.eps_p > 0.0 else math.inf
            for h_r in self.h
        ]
        if strategy == "all_subsets":
            # one doubling per beam: the sums of h alpha_p over index masks,
            # and B and the index mask itself (exact) over rank masks
            weights = [h_gain[j] * base_ap[j] for j in range(m_beams)]
            steps = np.array([weights, terms, [1 << b for b in order]], dtype=float)
            lattice = np.zeros((3, 1))
            for step in steps.T[:, :, None]:
                lattice = np.concatenate([lattice, lattice + step], axis=1)
            inside, bound, index = lattice
            # reversed, the sum over an index mask is that over its complement
            tau_d = inside[::-1][index.astype(np.intp)] + 1.0 / cfg.rho
            self.tau_d, self.bound = tau_d, bound
            masks, top = _subset_axis(m_beams)
            tau_d, bound = tau_d[masks], bound[masks]
            edge = np.array(reach)[top] - tau_d
            snr = np.minimum(bound * bound, edge) / tau_d
            keep = snr >= 0.0  # false at an edge below 0, and at nan
            snr, masks = snr[keep], masks[keep]
            by_bound = np.argsort(-snr, kind="stable")
            self.visits = zip(snr[by_bound].tolist(), masks[by_bound].tolist())
        else:
            self.tau_d, self.bound = {}, {}
            visits = []
            for mask in self.masks:
                pick = _picker(mask)
                tau_d = self.tau_d[mask] = tau(pick(order), h_gain, base_ap, cfg.rho)
                acc = 0.0
                for w in pick(terms):
                    acc += w
                self.bound[mask] = acc
                edge = reach[mask.bit_length() - 1] - tau_d
                if not mask & self.infeasible and edge >= 0.0:
                    visits.append((min(acc * acc, edge) / tau_d, mask))
            self.visits = sorted(visits, key=lambda v: -v[0])

    def candidate(self, mask: int) -> AggregationCandidate:
        pick = _picker(mask)
        return AggregationCandidate(
            beams=pick(self.order),
            h=pick(self.h),
            etas=pick(self.etas),
            tau_d=float(self.tau_d[mask]),
            eps_p=self.eps_p,
        )


# one entry per mask in use: at most 255 under all_subsets, 2M otherwise
@functools.lru_cache(maxsize=None)
def _picker(mask: int) -> Callable[[Sequence], tuple]:
    """Picks the items of a sequence at the set bits of mask, as a tuple."""
    ranks = [r for r in range(mask.bit_length()) if mask >> r & 1]
    if len(ranks) == 1:
        return lambda seq, r=ranks[0]: (seq[r],)
    return operator.itemgetter(*ranks)


def enumerate_candidates(
    chan: ChannelRealization, cfg: SystemConfig, strategy: str
) -> list[AggregationCandidate]:
    """List candidate beam sets for the given search strategy.

    prefixes                 {strongest k beams} for k = 1..M
    prefixes_plus_singletons prefixes plus every single beam
    all_subsets              every nonempty subset (M <= 8)

    Every set is ordered by descending h_gain (ties by index); infeasible
    candidates are still listed.
    """
    sets = _BeamSets(chan, cfg, strategy)
    return [sets.candidate(mask) for mask in sets.masks]


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


def _solve_singleton(candidate: AggregationCandidate) -> Problem4Solution:
    # The fixed point has a closed form on a single beam: alpha_s is the
    # smaller of the QoS and SIC caps, exactly as in single-beam selection.
    (h_m,), eps_p = candidate.h, candidate.eps_p
    if h_m <= 0.0 or eps_p * candidate.tau_d > h_m:
        return _infeasible()
    alpha_s = float(alpha_s_cap(h_m, candidate.etas[0], candidate.tau_d, eps_p))
    u = h_m * alpha_s
    alpha_p = min(1.0, max(candidate.etas[0], eps_p * (u + candidate.tau_d) / h_m))
    return Problem4Solution(
        alpha_p=(alpha_p,),
        x=(math.sqrt(alpha_s),),
        t_star=math.sqrt(u),
        objective_rate=math.log2(1.0 + u / candidate.tau_d),
        status="optimal",
    )


def _step_from_below(
    candidate: AggregationCandidate, t: float, alpha_p: list[float]
) -> float:
    """An estimate, never below the root in exact arithmetic, of the largest
    t with cap(t) >= t, from the sweep alpha_p at a t below it.

    It is the least of the Newton step on cap(t) - t and, for each beam
    whose decode constraint binds, the amplitude at which its alpha_p
    reaches 1 if it keeps growing linearly in t^2.  Each alpha_p_k is
    convex and piecewise linear in t^2 and cap is concave in t, so both
    tangents overshoot; the second finds the edge where no alpha_p fits,
    which the first cannot see.
    """
    h, etas, eps_p = candidate.h, candidate.etas, candidate.eps_p
    u = t * t
    tail = 0.0  # d/du of sum of h_j alpha_p_j over the later beams
    slope = 0.0  # -d cap / du
    cap = 0.0
    edge = math.inf
    for k in range(len(h) - 1, -1, -1):
        a = alpha_p[k]
        root = math.sqrt(h[k] * (1.0 - a))
        cap += root
        if a > etas[k]:  # the decode constraint binds, not the QoS floor
            d = eps_p * (tail + 1.0) / h[k]
            tail += h[k] * d
            slope = slope + h[k] * d / (2.0 * root) if root > 0.0 else math.inf
            edge = min(edge, math.sqrt(u + (1.0 - a) / d))
    newton = t + (cap - t) / (1.0 + 2.0 * t * slope) if slope < math.inf else t
    return min(newton, edge)


def _bracket(
    candidate: AggregationCandidate, alpha_p0: list[float], hi: float
) -> tuple[float, list[float], float]:
    """(lo, alpha_p at lo, up) around the largest t in [0, hi] with
    cap(t) >= t, up - lo <= 1e-13 (1 + hi): cap(lo) >= lo, and at up
    either no alpha_p fits, or cap(up) < up, or up = hi.

    A safeguarded Illinois iteration on f(t) = cap(t) - t: regula falsi
    while both ends have a value of f, halving the value of the end that
    stayed put while the other moved twice in a row.  While the upper end
    has no value, the step is _step_from_below from lo; if that lands on
    the upper end again, the root is the edge where alpha_p reaches 1, and
    the next probe is just below it.  The first step, and every step after
    two that did not halve the bracket, is a plain halving.  Probes keep a
    quarter of the target width from both ends.
    """
    h = candidate.h
    width = _BRACKET_WIDTH * (1.0 + hi)
    gap = 0.25 * width
    lo, alpha_p, f_lo = 0.0, alpha_p0, _cap(alpha_p0, h)
    up, f_up = hi, None
    moved = 0  # the end the last step moved: -1 lo, 1 up
    two_ago = one_ago = hi
    while up - lo > width:
        if up - lo > 0.5 * two_ago:
            t = 0.5 * (lo + up)
        elif f_up is not None:
            t = lo + (up - lo) * f_lo / (f_lo - f_up)
        else:
            t = _step_from_below(candidate, lo, alpha_p)
            if t >= up - gap:
                t = up - gap if t <= up + gap else 0.5 * (lo + up)
        t = min(max(t, lo + gap), up - gap)
        two_ago, one_ago = one_ago, up - lo
        ap = min_primary_power(candidate, t)
        cap = None if ap is None else _cap(ap, h)
        if cap is not None and cap >= t:  # the bisection's own test
            if moved == -1 and f_up is not None:
                f_up *= 0.5
            lo, alpha_p, f_lo, moved = t, ap, cap - t, -1
        else:
            if moved == 1 and cap is not None:
                f_lo *= 0.5
            up, f_up, moved = t, None if cap is None else cap - t, 1
    return lo, alpha_p, up


def solve_problem4(candidate: AggregationCandidate) -> Problem4Solution:
    """Maximize the secondary rate over the candidate set.

    Singleton sets use the closed-form fixed point.  Larger sets return the
    t* of bisecting on t over [0, sum sqrt(h_m)] to absolute tolerance
    1e-10 (1 + sum sqrt(h_m)), keeping the midpoint when cap(t) >= t.  The
    float test cap(t) >= t is monotone in t, so the bisection's path is
    replayed instead of swept: _bracket first closes in on the root to
    1e-13 (1 + sum sqrt(h_m)), every midpoint outside that bracket is
    decided by it, and only the midpoints inside are swept.  alpha_p comes
    from a sweep at the final t*; t*, alpha_p and x are bit for bit those
    of the plain bisection.  The returned x is rescaled by t*/cap(t*) so
    the achieved aggregate amplitude equals t* and every box constraint
    keeps its slack.
    """
    if not candidate.feasible:
        return _infeasible()
    h = candidate.h
    if len(h) == 1:
        return _solve_singleton(candidate)

    alpha_p0 = min_primary_power(candidate, 0.0)
    if alpha_p0 is None:
        return _infeasible()
    hi = 0.0
    for h_k in h:
        hi += math.sqrt(h_k)
    lo_t, lo_ap, up_t = _bracket(candidate, alpha_p0, hi)
    lo = 0.0
    tol = 1e-10 * (1.0 + hi)
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        # the bracket decides a midpoint outside it; one inside is swept
        if lo_t < mid < up_t:
            ap_mid = min_primary_power(candidate, mid)
            if ap_mid is not None and _cap(ap_mid, h) >= mid:
                lo_t, lo_ap = mid, ap_mid
            else:
                up_t = mid
        if mid <= lo_t:
            lo = mid
        else:
            hi = mid
    if lo == lo_t:
        alpha_p = lo_ap
    elif lo == 0.0:
        alpha_p = alpha_p0
    else:
        alpha_p = min_primary_power(candidate, lo)
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
    candidate: AggregationCandidate, solution: Problem4Solution, tol: float = 1e-8
) -> list[str]:
    """Re-check every program constraint at the returned point, without
    reusing any solver intermediate.  Returns the list of violations."""
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
    accepted point is returned.  Coordinates provably infeasible already at
    t = 0 are pruned, which cannot change the optimum.
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

    best_t = -1.0
    best_x: Optional[tuple[float, ...]] = None

    def scan(block0: np.ndarray) -> None:
        # block0: slice of the first coordinate axis handled in this chunk
        nonlocal best_t, best_x
        coords = [block0] + axes[1:d]
        shape = [1] * d
        xs = []
        for k, vals in enumerate(coords):
            view = shape.copy()
            view[k] = len(vals)
            xs.append(vals.reshape(view))
        t = sum(sqrt_h[k] * xs[k] for k in range(d))
        t = np.broadcast_to(t, tuple(len(v) for v in coords)).copy()
        u = t * t
        feasible = np.ones(t.shape, dtype=bool)
        acc = np.zeros(t.shape)
        for k in range(d - 1, -1, -1):
            a = np.maximum(candidate.etas[k], eps_p * (acc + u + candidate.tau_d) / h[k])
            feasible &= a <= 1.0 - xs[k] * xs[k]
            acc += h[k] * a
        if not feasible.any():
            return
        t_masked = np.where(feasible, t, -np.inf)
        flat = int(np.argmax(t_masked))
        t_here = float(t_masked.flat[flat])
        if t_here > best_t:
            idx = np.unravel_index(flat, t.shape)
            best_t = t_here
            best_x = tuple(float(coords[k][idx[k]]) for k in range(d))

    if d < 3:
        scan(axes[0])
    else:
        # chunk the first axis to bound the 3-beam grid's memory footprint
        plane = max(1, len(axes[1]) * len(axes[2]))
        block = max(1, 8_000_000 // plane)
        for start in range(0, len(axes[0]), block):
            scan(axes[0][start : start + block])

    if best_x is None:
        return _infeasible()
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
    g_gain: np.ndarray, h_gain: np.ndarray, cfgs: Sequence[SystemConfig]
) -> CellOutcomes:
    """Evaluate direct-decoding aggregation over every beam, on every
    (SNR point, trial) cell of a block.

    g_gain and h_gain are (M, T), beam-major; cfgs are the SNR points, one
    per row of the cells, and share their targets.  Each beam gives the
    secondary user everything the legacy QoS can spare, alpha_p =
    min(1, eta_m) and alpha_s = 1 - alpha_p.  The secondary user combines
    its shares coherently and decodes directly, treating every primary
    signal (including those on its own beams) as noise.  There is no SIC
    precondition: the achieved rate is always decodable, so outage is
    simply rate < r_s.
    """
    cfg = cfgs[0]
    rho = np.array([c.rho for c in cfgs])[:, None]
    g, h = g_gain[:, None, :], h_gain[:, None, :]
    alpha_p = np.minimum(1.0, eta(g, rho, cfg.eps_p))
    alpha_s = 1.0 - alpha_p
    # summed beam by beam: np.sum would add pairwise
    t = 0.0
    for m in range(len(g)):
        t += np.sqrt(h[m] * alpha_s[m])
    rate = log2_each(1.0 + t * t / tau((), h, alpha_p, rho))
    return CellOutcomes(
        secondary_rate_raw=rate,
        sic_ok=np.ones(rate.shape, dtype=bool),
        outage=rate < cfg.r_s,
        chosen=np.ones(alpha_p.shape, dtype=bool),
        alpha_p=alpha_p,
        alpha_s=alpha_s,
        g_gain=g,
        rho=rho,
    )


def evaluate_scheme1(chan: ChannelRealization, cfg: SystemConfig) -> SchemeOutcome:
    """Evaluate direct-decoding aggregation on one realization: the block
    of one cell."""
    block = evaluate_scheme1_block(chan.g_gain[:, None], chan.h_gain[:, None], [cfg])
    return block.cell("scheme1")


def _key(rate: float, beams: tuple[int, ...]) -> tuple:
    """Scheme 2's ranking, least first: largest rate, then smaller set, then
    lexicographic beam indices.  Distinct sets never tie on it."""
    return (-rate, len(beams), tuple(sorted(beams)))


def _rate_bound(snr: float) -> float:
    """log2(1 + snr) with snr raised by the pruning margin, which covers the
    rounding between a bound and the solver's own t*^2 / tau_d."""
    return math.log2(1.0 + (1.0 + _PRUNE_MARGIN) * snr)


def _outcome(
    chan: ChannelRealization,
    cfg: SystemConfig,
    best: Optional[tuple[AggregationCandidate, Problem4Solution]],
) -> SchemeOutcome:
    """The scheme 2 outcome of the winning (candidate, solution), if any;
    beams outside the set keep the inactive split."""
    alpha_p = mode_i_alpha_p(chan.g_gain, cfg.rho, cfg.eps_p)
    alpha_s = np.zeros(cfg.m_beams)
    if best is None:
        chosen: tuple[int, ...] = ()
        rate = 0.0
    else:
        cand, sol = best
        for k, b in enumerate(cand.beams):
            alpha_p[b] = sol.alpha_p[k]
            alpha_s[b] = sol.x[k] * sol.x[k]
        chosen = tuple(sorted(cand.beams))
        rate = sol.objective_rate
    return SchemeOutcome(
        scheme_tag="scheme2",
        chosen_set=chosen,
        secondary_rate_raw=rate,
        sic_ok=True,
        outage=(best is None) or rate < cfg.r_s,
        alpha_p=alpha_p,
        alpha_s=alpha_s,
        g_gain=chan.g_gain,
        rho=cfg.rho,
    )


def _loses_to(
    cand: AggregationCandidate,
    best: tuple[AggregationCandidate, Problem4Solution],
    best_key: tuple,
) -> bool:
    """True when cand provably ranks below the incumbent, by one sweep at
    t_R, just under the amplitude at which cand would match the
    incumbent's SNR.  If no alpha_p fits at t_R or cap(t_R) < t_R, the
    bisection ends below t_R because cap is nonincreasing."""
    inc_cand, inc_sol = best
    s_star = inc_sol.t_star * inc_sol.t_star / inc_cand.tau_d
    t_r = math.sqrt(s_star * cand.tau_d) * (1.0 - _PRUNE_MARGIN)
    alpha_p = min_primary_power(cand, t_r)
    if alpha_p is not None and _cap(alpha_p, cand.h) >= t_r:
        return False
    rate = _rate_bound(t_r * t_r / cand.tau_d)
    # the rest of the ranking matters only on a tie in rate
    return rate < -best_key[0] or (
        rate == -best_key[0] and _key(rate, cand.beams) > best_key
    )


def evaluate_scheme2(
    chan: ChannelRealization,
    cfg: SystemConfig,
    strategy: str = "prefixes_plus_singletons",
) -> SchemeOutcome:
    """Evaluate SIC-chain aggregation with the set chosen by enumeration.

    The winner has the largest secondary rate over the feasible candidates
    (ties: smaller set, then lexicographic beam indices).  The decode
    constraints are part of the program, so SIC always succeeds at the
    returned point; with singletons enumerated the result can never fall
    below single-beam selection on the same draw.

    Not every candidate is solved, yet the winner, its rate and its power
    split are bit for bit those of solving them all.  Two bounds on a
    set's t* need no sweep: B = sum sqrt(h_k (1 - eta_k)) >= cap(t) for
    every t (alpha_p >= eta), and the edge of the weakest beam, decoded
    last: every t the backward sweep accepts has eps_p (t^2 + tau_d) <=
    h_last.  Near t* = 0, h_last / eps_p - tau_d cancels and t*^2 can
    exceed its float value by the rounding of t^2 + tau_d, so the edge is
    h_last / eps_p (1 + 1e-12) - tau_d, its slack relative to
    h_last / eps_p; a set whose edge is below 0 fits no alpha_p and is
    dropped unbuilt.  The sets are visited in descending
    s_bound = min(B^2, edge) / tau_d, and the visit stops at the first
    whose bound rate log2(1 + s_bound) is below the incumbent's rate.  A
    set of two or more beams is then tested by one sweep at
    t_R = sqrt(s* tau_d) (1 - 1e-9), s* being the incumbent's SNR: if no
    alpha_p fits there or cap(t_R) < t_R, the bisection ends below t_R
    (cap is nonincreasing), and the set is skipped when its rate bound at
    t_R already ranks below the incumbent.  Every rate bound is raised by
    the relative margin 1e-9, far above rounding, so a set within it of
    the incumbent is solved in full.  Bounds are compared as rates under
    the full ranking, not as SNRs: 1 + s can round SNRs more than 1e-9
    apart onto one rate, and the smaller set must then still win.  The
    ranking is a total order, so the visiting order cannot change the
    winner.  _BeamSets ranks the sets as masks, with arrays over the
    subset lattice under all_subsets, and a set gets its
    AggregationCandidate only when the visit reaches it.
    """
    sets = _BeamSets(chan, cfg, strategy)
    best: Optional[tuple[AggregationCandidate, Problem4Solution]] = None
    best_key: Optional[tuple] = None
    for snr_bound, mask in sets.visits:
        if best is not None and _rate_bound(snr_bound) < -best_key[0]:
            break  # every later set has a smaller bound
        cand = sets.candidate(mask)
        if best is not None and len(cand.beams) > 1 and _loses_to(cand, best, best_key):
            continue
        sol = solve_problem4(cand)
        if sol.status != "optimal":
            continue
        key = _key(sol.objective_rate, cand.beams)
        if best_key is None or key < best_key:
            best, best_key = (cand, sol), key
    return _outcome(chan, cfg, best)
