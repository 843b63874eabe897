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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beam_selection import SchemeOutcome
from .channel_model import ChannelRealization, SystemConfig
from .link_rates import primary_rates, rate_scheme1_secondary
from .power_allocation import (
    PowerCoefficients,
    _alpha_s_capped,
    eta,
    mode_i_alpha_p,
    scheme1_coefficients,
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
_ALL_SUBSETS_MAX_BEAMS = 8


@dataclass(frozen=True)
class AggregationCandidate:
    """One candidate beam set, ordered by descending secondary gain.

    tau_d is the interference-plus-noise constant contributed by the beams
    outside the set (inactive mode) plus 1/rho; etas holds the minimum
    primary share per in-set beam.  A candidate with any eta > 1 cannot
    protect the legacy user at all and is flagged infeasible up front.
    """

    beams: tuple[int, ...]
    tau_d: float
    etas: tuple[float, ...]
    feasible: bool


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
    candidates are flagged but still listed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m_beams = cfg.m_beams
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    order = sorted(range(m_beams), key=lambda i: (-h_gain[i], i))

    beam_sets: list[tuple[int, ...]] = []
    if strategy == "all_subsets":
        if m_beams > _ALL_SUBSETS_MAX_BEAMS:
            raise ValueError(
                f"all_subsets enumeration is limited to {_ALL_SUBSETS_MAX_BEAMS} beams"
            )
        for size in range(1, m_beams + 1):
            beam_sets.extend(itertools.combinations(order, size))
    else:
        beam_sets.extend(tuple(order[:k]) for k in range(1, m_beams + 1))
        if strategy == "prefixes_plus_singletons":
            beam_sets.extend((i,) for i in order)

    base_ap = mode_i_alpha_p(g_gain, cfg.rho, cfg.eps_p)
    seen: set[tuple[int, ...]] = set()
    out: list[AggregationCandidate] = []
    for beams in beam_sets:
        if beams in seen:
            continue
        seen.add(beams)
        etas = tuple(eta(g_gain[b], cfg.rho, cfg.eps_p) for b in beams)
        out.append(
            AggregationCandidate(
                beams=beams,
                tau_d=tau(beams, h_gain, base_ap, cfg.rho),
                etas=etas,
                feasible=all(e <= 1.0 for e in etas),
            )
        )
    return out


def min_primary_power(
    candidate: AggregationCandidate,
    h_gain: Sequence[float],
    t: float,
    eps_p: float,
) -> Optional[list[float]]:
    """Componentwise-minimal alpha_p meeting every decode constraint at
    aggregate amplitude t, or None when no alpha_p <= 1 works.

    Backward sweep: the constraint for the k-th beam in the chain lower
    bounds h_k alpha_p_k by eps_p times (everything decoded after it plus
    t^2 plus tau_d), and only later beams enter, so sweeping from the back
    and taking max(eta_k, bound) is minimal at every position.
    """
    u = t * t
    beams = candidate.beams
    out = [0.0] * len(beams)
    acc = 0.0
    for k in range(len(beams) - 1, -1, -1):
        h_k = float(h_gain[beams[k]])
        required = eps_p * (acc + u + candidate.tau_d)
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


def _solve_singleton(
    candidate: AggregationCandidate, h_m: float, eps_p: float
) -> Problem4Solution:
    # The fixed point has a closed form on a single beam: alpha_s is the
    # smaller of the QoS and SIC caps, exactly as in single-beam selection.
    if h_m <= 0.0 or eps_p * candidate.tau_d > h_m:
        return _infeasible()
    alpha_s = _alpha_s_capped(h_m, candidate.etas[0], candidate.tau_d, eps_p)
    u = h_m * alpha_s
    alpha_p = min(1.0, max(candidate.etas[0], eps_p * (u + candidate.tau_d) / h_m))
    return Problem4Solution(
        alpha_p=(alpha_p,),
        x=(math.sqrt(alpha_s),),
        t_star=math.sqrt(u),
        objective_rate=math.log2(1.0 + u / candidate.tau_d),
        status="optimal",
    )


def solve_problem4(
    candidate: AggregationCandidate,
    h_gain: Sequence[float],
    eps_p: float,
) -> Problem4Solution:
    """Maximize the secondary rate over the candidate set.

    Singleton sets use the closed-form fixed point; larger sets bisect on
    t over [0, sum sqrt(h_m)] to absolute tolerance 1e-10 (1 + sum sqrt(h_m)).
    The returned x is rescaled by t*/cap(t*) so the achieved aggregate
    amplitude equals t* and every box constraint keeps its slack.
    """
    if not candidate.feasible:
        return _infeasible()
    h = [float(h_gain[b]) for b in candidate.beams]
    if len(h) == 1:
        return _solve_singleton(candidate, h[0], eps_p)

    ap0 = min_primary_power(candidate, h_gain, 0.0, eps_p)
    if ap0 is None:
        return _infeasible()
    hi = sum(math.sqrt(h_k) for h_k in h)
    lo = 0.0
    tol = 1e-10 * (1.0 + hi)
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        ap_mid = min_primary_power(candidate, h_gain, mid, eps_p)
        if ap_mid is not None and _cap(ap_mid, h) >= mid:
            lo = mid
        else:
            hi = mid
    t_star = lo
    alpha_p = min_primary_power(candidate, h_gain, t_star, eps_p)
    assert alpha_p is not None  # lo side of the bracket is always feasible
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
    candidate: AggregationCandidate,
    h_gain: Sequence[float],
    eps_p: float,
    solution: Problem4Solution,
    tol: float = 1e-8,
) -> list[str]:
    """Re-check every program constraint at the returned point, without
    reusing any solver intermediate.  Returns the list of violations."""
    if solution.status != "optimal":
        return []
    beams = candidate.beams
    h = [float(h_gain[b]) for b in beams]
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
    candidate: AggregationCandidate,
    h_gain: Sequence[float],
    eps_p: float,
    resolution: float,
) -> Problem4Solution:
    """Brute-force check of solve_problem4 over an x grid (sets of <= 3 beams).

    Every grid point x in [0, 1]^d is accepted iff the minimal alpha_p at
    its own aggregate amplitude fits under 1 - x_m^2 componentwise; the best
    accepted point is returned.  Coordinates provably infeasible already at
    t = 0 are pruned, which cannot change the optimum.
    """
    beams = candidate.beams
    d = len(beams)
    if d > 3:
        raise ValueError("grid oracle supports at most 3 beams")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    h = [float(h_gain[b]) for b in beams]
    if not candidate.feasible or any(h_k <= 0.0 for h_k in h):
        return _infeasible()
    ap0 = min_primary_power(candidate, h_gain, 0.0, eps_p)
    if ap0 is None:
        return _infeasible()

    sqrt_h = [math.sqrt(h_k) for h_k in h]
    axes = []
    for k in range(d):
        axis = np.arange(0.0, 1.0 + 0.5 * resolution, resolution)
        bound = math.sqrt(1.0 - ap0[k])  # alpha_p only grows with t
        axes.append(axis[axis <= bound + 1e-12])

    etas = np.asarray(candidate.etas)
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
            a = np.maximum(etas[k], eps_p * (acc + u + candidate.tau_d) / h[k])
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
    alpha_p = min_primary_power(candidate, h_gain, best_t, eps_p)
    assert alpha_p is not None
    return Problem4Solution(
        alpha_p=tuple(alpha_p),
        x=best_x,
        t_star=best_t,
        objective_rate=math.log2(1.0 + best_t * best_t / candidate.tau_d),
        status="optimal",
    )


def evaluate_scheme1(
    chan: ChannelRealization,
    cfg: SystemConfig,
    active_set: Optional[Sequence[int]] = None,
) -> SchemeOutcome:
    """Evaluate direct-decoding aggregation; the set defaults to all beams.

    There is no SIC precondition: the achieved rate is always decodable, so
    outage is simply rate < r_s.
    """
    active = tuple(active_set) if active_set is not None else tuple(range(cfg.m_beams))
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    coeffs = scheme1_coefficients(cfg, g_gain, active)
    rate = rate_scheme1_secondary(active, h_gain, coeffs, cfg.rho)
    return SchemeOutcome(
        scheme_tag="scheme1",
        chosen_set=coeffs.active_set,
        secondary_rate_raw=rate,
        sic_ok=True,
        outage=rate < cfg.r_s,
        primary_rates=primary_rates(g_gain, coeffs, cfg.rho),
        coefficients=coeffs,
    )


def evaluate_scheme2(
    chan: ChannelRealization,
    cfg: SystemConfig,
    strategy: str = "prefixes_plus_singletons",
) -> SchemeOutcome:
    """Evaluate SIC-chain aggregation with the set chosen by enumeration.

    Every feasible candidate is solved and the largest secondary rate wins
    (ties: smaller set, then lexicographic beam indices).  The decode
    constraints are part of the program, so SIC always succeeds at the
    returned point; with singletons enumerated the result can never fall
    below single-beam selection on the same draw.
    """
    h_gain = chan.h_gain.tolist()
    g_gain = chan.g_gain.tolist()
    base_ap = mode_i_alpha_p(g_gain, cfg.rho, cfg.eps_p)

    best: Optional[tuple[AggregationCandidate, Problem4Solution]] = None
    best_key: Optional[tuple[float, int, tuple[int, ...]]] = None
    for cand in enumerate_candidates(chan, cfg, strategy):
        if not cand.feasible:
            continue
        sol = solve_problem4(cand, h_gain, cfg.eps_p)
        if sol.status != "optimal":
            continue
        key = (-sol.objective_rate, len(cand.beams), tuple(sorted(cand.beams)))
        if best_key is None or key < best_key:
            best, best_key = (cand, sol), key

    alpha_p = np.array(base_ap)
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
    coeffs = PowerCoefficients(alpha_p, alpha_s, chosen)
    return SchemeOutcome(
        scheme_tag="scheme2",
        chosen_set=chosen,
        secondary_rate_raw=rate,
        sic_ok=True,
        outage=(best is None) or rate < cfg.r_s,
        primary_rates=primary_rates(g_gain, coeffs, cfg.rho),
        coefficients=coeffs,
    )
