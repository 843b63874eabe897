"""Workload definitions and the pure helpers of the beamshare benchmark.

Nothing here imports beamshare; the helpers are plain functions over
numbers, CSV text and span intervals so that they can be unit-tested in
isolation (see test_benchlib.py).
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# Workload seeds map onto this many stored sweep seeds, so every run can be
# checked against reference rows recorded from a known-good commit.
REFERENCE_SEEDS = 16

# Relative tolerance for a row's value and std_err against the reference.
REL_TOL = 1e-12

PAPER_SNR_GRID_DB = tuple(float(v) for v in range(0, 41, 5))


@dataclass(frozen=True)
class Workload:
    """One sweep, run through ``beamshare.cli.main`` exactly as a user would.

    ``command`` holds the CLI words before the common flags; ``m_list``,
    ``schemes``, ``metric`` and ``strategy`` restate the sweep so that the
    set-up probe can build the same ``SweepSpec`` objects without running it.
    ``reference`` names the stored reference rows (fig2b_w2 shares fig2b's).
    """

    name: str
    command: tuple[str, ...]
    m_list: tuple[int, ...]
    schemes: tuple[str, ...]
    metric: str
    strategy: str
    trials: int
    workers: int
    reference: str

    def argv(self, sweep_seed: int, workers: int | None = None) -> list[str]:
        return [
            *self.command,
            "--trials",
            str(self.trials),
            "--seed",
            str(sweep_seed),
            "--workers",
            str(self.workers if workers is None else workers),
            "--out",
            "-",
        ]

    def spec_kwargs(self, sweep_seed: int) -> list[dict]:
        return [
            dict(
                n_antennas=m,
                m_beams=m,
                r_p=0.1,
                r_s=1.0,
                snr_grid_db=PAPER_SNR_GRID_DB,
                schemes=self.schemes,
                metric=self.metric,
                trials=self.trials,
                seed=sweep_seed,
                candidate_strategy=self.strategy,
            )
            for m in self.m_list
        ]


_FIG2B = dict(
    command=("preset", "fig2b"),
    m_list=(2, 4),
    schemes=("selection", "scheme2"),
    metric="ergodic_rate",
    strategy="prefixes_plus_singletons",
    trials=100,
    reference="fig2b",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="fig2b", workers=1, **_FIG2B),
        Workload(
            name="closed_forms",
            command=(
                "preset",
                "fig2a",
                "--metric",
                "outage",
                "--m-beams",
                "2",
                "--m-beams",
                "4",
                "--m-beams",
                "8",
            ),
            m_list=(2, 4, 8),
            schemes=("selection", "scheme1"),
            metric="outage",
            strategy="prefixes_plus_singletons",
            trials=100,
            workers=1,
            reference="closed_forms",
        ),
        Workload(
            name="dense_m8",
            command=("sweep", "--config", "bench/dense_m8.json"),
            m_list=(8,),
            schemes=("scheme2",),
            metric="ergodic_rate",
            strategy="all_subsets",
            trials=10,
            workers=1,
            reference="dense_m8",
        ),
        Workload(name="fig2b_w2", workers=2, **_FIG2B),
    )
}


def sweep_seed_for(seed: int) -> int:
    """Map a workload seed onto one of the stored reference sweep seeds."""
    return seed % REFERENCE_SEEDS


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str, sweep_seed: int) -> list[str]:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)["rows"][str(sweep_seed)]


# ---------------------------------------------------------------- CSV rows


def data_rows(csv_text: str) -> list[str]:
    """The data rows of a beamshare CSV: no metadata, no header."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]


def evaluations(rows: Iterable[str]) -> int:
    """run_trial evaluations behind the rows: one per trial per row."""
    return sum(int(r.split(",")[7]) for r in rows)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def row_matches(ref: str, got: str, rel: float = REL_TOL) -> bool:
    """True when ``got`` equals the reference row within ``rel`` relative.

    Key columns, trial count, seed and resamples must be equal; value and
    std_err may differ by ``rel``; an outage row must keep its exact outage
    count (value x trials).
    """
    r, g = ref.split(","), got.split(",")
    if len(r) != 10 or len(g) != 10:
        return False
    snr, n, m, scheme, metric, value, std_err, trials, seed, resamples = range(10)
    for col in (n, m, scheme, metric, trials, seed, resamples):
        if r[col] != g[col]:
            return False
    try:
        if float(r[snr]) != float(g[snr]):
            return False
        rv, gv = float(r[value]), float(g[value])
        if not (_close(rv, gv, rel) and _close(float(r[std_err]), float(g[std_err]), rel)):
            return False
    except ValueError:
        return False
    if r[metric] == "outage":
        t = int(r[trials])
        return round(rv * t) == round(gv * t)
    return True


def count_wrong(reference: Sequence[str], text: str, baseline: str | None = None) -> int:
    """Wrong rows in the CSV ``text``.

    A row is wrong when it fails ``row_matches`` against the reference or,
    given a ``baseline`` CSV, when its bytes differ from the baseline's row;
    a missing or extra row counts, and so does (once) a metadata or header
    difference from the baseline.
    """
    rows = data_rows(text)
    base = data_rows(baseline) if baseline is not None else None
    wrong = abs(len(reference) - len(rows))
    for i, (ref, got) in enumerate(zip(reference, rows)):
        off_base = base is not None and (i >= len(base) or base[i] != got)
        wrong += (not row_matches(ref, got)) or off_base
    if base is not None and base == rows and text != baseline:
        wrong += 1
    return wrong


def failed_fraction(wrong: int, crashed: int, attempted: int) -> float:
    """Wrong rows plus crashed runs over rows attempted."""
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    return (wrong + crashed) / attempted


# ------------------------------------------------------------- statistics

_PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(n: int, wanted: float) -> float:
    """Highest percentile <= ``wanted`` with at least ten of ``n`` samples
    beyond it; the median when even that is out of reach."""
    for p in _PERCENTILE_LADDER:
        if p <= wanted and n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return 50.0


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[min(k, len(ordered) - 1)]


def median_quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


# ------------------------------------------------------------ span algebra


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children may overlap each other (spans from parallel workers) and may
    stick out of the interval; only the part inside counts.
    """
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered((starts[i], ends[i]), children.get(i, ()))
        for i in range(len(starts))
    ]
