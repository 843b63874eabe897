"""Reference formulas written out for the tests, shared by several modules."""

import numpy as np

from beamshare.power_allocation import beam_sum


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
