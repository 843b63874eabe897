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
descending order of a bound that needs no sweep and drops, with one sweep
at most, each set whose rate provably ranks below the best set solved so
far (see evaluate_scheme2); the winner is the one an exhaustive search
picks, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel_model import ChannelRealization, SystemConfig
from .power_allocation import (
    SchemeOutcome,
    alpha_s_cap,
    eta,
    mode_i_alpha_p,
    primary_rates,
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
    "evaluate_scheme2",
]

STRATEGIES = ("prefixes", "prefixes_plus_singletons", "all_subsets")

_BISECT_MAX_ITER = 200
# relative margin of scheme 2's set pruning bounds (see evaluate_scheme2)
_PRUNE_MARGIN = 1e-9
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m_beams = cfg.m_beams
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    order = sorted(range(m_beams), key=lambda i: (-h_gain[i], i))

    beam_sets: list[tuple[int, ...]] = []
    if strategy == "all_subsets":
        if m_beams > ALL_SUBSETS_MAX_BEAMS:
            raise ValueError(
                f"all_subsets enumeration is limited to {ALL_SUBSETS_MAX_BEAMS} beams"
            )
        for size in range(1, m_beams + 1):
            beam_sets.extend(itertools.combinations(order, size))
    else:
        beam_sets.extend(tuple(order[:k]) for k in range(1, m_beams + 1))
        if strategy == "prefixes_plus_singletons":
            beam_sets.extend((i,) for i in order)

    base_ap = mode_i_alpha_p(g_gain, cfg.rho, cfg.eps_p)
    etas = [eta(g, cfg.rho, cfg.eps_p) for g in g_gain]
    return [
        AggregationCandidate(
            beams=beams,
            h=tuple(h_gain[b] for b in beams),
            etas=tuple(etas[b] for b in beams),
            tau_d=tau(beams, h_gain, base_ap, cfg.rho),
            eps_p=cfg.eps_p,
        )
        for beams in dict.fromkeys(beam_sets)
    ]


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
    return sum(math.sqrt(h_k * (1.0 - a)) for h_k, a in zip(h, alpha_p))


def _infeasible() -> Problem4Solution:
    return Problem4Solution((), (), 0.0, 0.0, "infeasible")


def _solve_singleton(candidate: AggregationCandidate) -> Problem4Solution:
    # The fixed point has a closed form on a single beam: alpha_s is the
    # smaller of the QoS and SIC caps, exactly as in single-beam selection.
    (h_m,), eps_p = candidate.h, candidate.eps_p
    if h_m <= 0.0 or eps_p * candidate.tau_d > h_m:
        return _infeasible()
    alpha_s = alpha_s_cap(h_m, candidate.etas[0], candidate.tau_d, eps_p)
    u = h_m * alpha_s
    alpha_p = min(1.0, max(candidate.etas[0], eps_p * (u + candidate.tau_d) / h_m))
    return Problem4Solution(
        alpha_p=(alpha_p,),
        x=(math.sqrt(alpha_s),),
        t_star=math.sqrt(u),
        objective_rate=math.log2(1.0 + u / candidate.tau_d),
        status="optimal",
    )


def solve_problem4(candidate: AggregationCandidate) -> Problem4Solution:
    """Maximize the secondary rate over the candidate set.

    Singleton sets use the closed-form fixed point; larger sets bisect on
    t over [0, sum sqrt(h_m)] to absolute tolerance 1e-10 (1 + sum sqrt(h_m)).
    The returned x is rescaled by t*/cap(t*) so the achieved aggregate
    amplitude equals t* and every box constraint keeps its slack.
    """
    if not candidate.feasible:
        return _infeasible()
    h = candidate.h
    if len(h) == 1:
        return _solve_singleton(candidate)

    # alpha_p always belongs to the feasible end lo of the bracket
    alpha_p = min_primary_power(candidate, 0.0)
    if alpha_p is None:
        return _infeasible()
    hi = sum(math.sqrt(h_k) for h_k in h)
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
    t_star = lo
    cap_star = _cap(alpha_p, h)
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


def evaluate_scheme1(chan: ChannelRealization, cfg: SystemConfig) -> SchemeOutcome:
    """Evaluate direct-decoding aggregation over every beam.

    Each beam gives the secondary user everything the legacy QoS can spare,
    alpha_p = min(1, eta_m) and alpha_s = 1 - alpha_p.  The secondary user
    combines its shares coherently and decodes directly, treating every
    primary signal (including those on its own beams) as noise.  There is
    no SIC precondition: the achieved rate is always decodable, so outage
    is simply rate < r_s.
    """
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    alpha_p = np.array([min(1.0, eta(g, cfg.rho, cfg.eps_p)) for g in g_gain])
    alpha_s = 1.0 - alpha_p
    # an explicit loop: sum() of floats is compensated on Python >= 3.12
    t = 0.0
    for m in range(cfg.m_beams):
        t += math.sqrt(h_gain[m] * float(alpha_s[m]))
    rate = math.log2(1.0 + t * t / tau((), h_gain, alpha_p, cfg.rho))
    chosen = tuple(range(cfg.m_beams))
    return SchemeOutcome(
        scheme_tag="scheme1",
        chosen_set=chosen,
        secondary_rate_raw=rate,
        sic_ok=True,
        outage=rate < cfg.r_s,
        primary_rates=primary_rates(g_gain, alpha_p, alpha_s, chosen, cfg.rho),
        alpha_p=alpha_p,
        alpha_s=alpha_s,
    )


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
    g_gain = chan.g_gain.tolist()
    alpha_p = np.array(mode_i_alpha_p(g_gain, cfg.rho, cfg.eps_p))
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
        primary_rates=primary_rates(g_gain, alpha_p, alpha_s, chosen, cfg.rho),
        alpha_p=alpha_p,
        alpha_s=alpha_s,
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
    return _key(_rate_bound(t_r * t_r / cand.tau_d), cand.beams) > best_key


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
    split are bit for bit those of solving them all.  A set's bound
    B = sum sqrt(h_k (1 - eta_k)) is at least cap(t) for every t (alpha_p
    >= eta), hence at least its t*.  The singletons (closed form) go first
    and seed the incumbent cheaply, then the larger sets; each group is
    visited in descending B^2 / tau_d, and its visit stops at the first set
    whose bound rate log2(1 + B^2 / tau_d) is below the incumbent's rate.
    A larger set is first tested by one sweep at t_R = sqrt(s* tau_d)
    (1 - 1e-9), s* = t*^2 / tau_d being the incumbent's SNR: if no alpha_p
    fits there or cap(t_R) < t_R, the bisection ends below t_R (cap is
    nonincreasing), and the set is skipped when its rate bound at t_R
    already ranks below the incumbent.  Every bound is raised by the
    relative margin 1e-9, far above rounding, so a set within that margin
    of the incumbent is solved in full.  Bounds are compared as rates under
    the full ranking, not as SNRs: 1 + s can round SNRs more than 1e-9
    apart onto one rate, and the smaller set must then still win.  The
    ranking is a total order, so the visiting order cannot change the
    winner.
    """
    singles, multis = [], []
    for cand in enumerate_candidates(chan, cfg, strategy):
        if cand.feasible:
            b = _cap(cand.etas, cand.h)
            group = singles if len(cand.beams) == 1 else multis
            group.append((b * b / cand.tau_d, cand))

    best: Optional[tuple[AggregationCandidate, Problem4Solution]] = None
    best_key: Optional[tuple] = None
    for phase in (singles, multis):
        for snr_bound, cand in sorted(phase, key=lambda v: -v[0]):
            if best is not None:
                if _rate_bound(snr_bound) < -best_key[0]:
                    break  # every later set of the phase has a smaller bound
                if len(cand.beams) > 1 and _loses_to(cand, best, best_key):
                    continue
            sol = solve_problem4(cand)
            if sol.status != "optimal":
                continue
            key = _key(sol.objective_rate, cand.beams)
            if best_key is None or key < best_key:
                best, best_key = (cand, sol), key
    return _outcome(chan, cfg, best)
