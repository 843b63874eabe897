"""Command-line front end: sweeps, figure presets, and the validation suite.

All output is CSV with `#`-prefixed metadata lines before the header

    snr_db,n,m,scheme,metric,value,std_err,trials,seed,resamples

and every run is a pure function of the seed: no wall clock, no entropy,
so the same invocation always produces byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import Iterator, Optional, Sequence, TextIO

from .montecarlo import METRICS, SweepResult, SweepSpec, estimate
from . import __version__

__all__ = ["main"]

CSV_HEADER = "snr_db,n,m,scheme,metric,value,std_err,trials,seed,resamples"

# validation.SUITES' names, so that parsing a command imports no suite
SUITE_NAMES = ("zf", "distribution", "solver", "dominance", "lemma1")

_STRATEGY_FLAGS = {
    "prefixes+singletons": "prefixes_plus_singletons",
    "all-subsets": "all_subsets",
}

# JSON config key -> SweepSpec field; every key but candidate_strategy is
# required
_CONFIG_KEYS = {
    "n_antennas": "n_antennas",
    "m_beams": "m_beams",
    "snr_db": "snr_grid_db",
    "r_p_bpcu": "r_p",
    "r_s_bpcu": "r_s",
    "trials": "trials",
    "seed": "seed",
    "schemes": "schemes",
    "metric": "metric",
    "candidate_strategy": "candidate_strategy",
}


class ConfigError(Exception):
    pass


def _load_config(path: str) -> SweepSpec:
    """Read a flat JSON experiment config into a SweepSpec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    missing = sorted(set(_CONFIG_KEYS) - {"candidate_strategy"} - set(raw))
    if missing:
        raise ConfigError(f"missing config field(s): {', '.join(missing)}")
    return SweepSpec(**{_CONFIG_KEYS[key]: value for key, value in raw.items()})


# figure presets: schemes, metric, and which assumptions we had to fill in
# (recorded in the CSV metadata so they are auditable)
_PRESETS = {
    "fig1a": dict(
        schemes=("selection",),
        metric="outage",
        assumptions=("r_p_bpcu=0.1 assumed (stated only for the rate figures)",),
    ),
    "fig1b": dict(
        schemes=("selection",),
        metric="ergodic_rate",
        assumptions=(
            "r_p_bpcu=0.1 assumed (stated only for the comparison figures)",
            "rate conditioned on the SIC precondition; use --metric "
            "ergodic_rate_unconditioned for the raw mean",
        ),
    ),
    "fig2a": dict(
        schemes=("selection", "scheme1"),
        metric="ergodic_rate",
        assumptions=(),
    ),
    "fig2b": dict(
        schemes=("selection", "scheme2"),
        metric="ergodic_rate",
        assumptions=(),
    ),
}

_PRESET_M = (2, 4)
_PRESET_R_P = 0.1  # BPCU, shared by every preset
_PRESET_R_S = 1.0
_PRESET_SNR = "0:40:5"
_PRESET_TRIALS = 2000
_MAX_SNR_POINTS = 10 ** 7


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse 'a:b:step' (inclusive) or a single dB value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
        # steps below 1e-9 would merge points at the 9-decimal rounding
        if not (math.isfinite(start) and math.isfinite(stop) and step >= 1e-9):
            raise ValueError
        if stop < start:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"bad --snr-db {text!r}: expected a single value or "
            "start:stop:step with step >= 1e-9"
        ) from None
    # a millionth of a step covers the rounding at up to _MAX_SNR_POINTS
    span = (stop - start) / step + 1e-6
    if not span < _MAX_SNR_POINTS:
        raise ConfigError(
            f"bad --snr-db {text!r}: more than {_MAX_SNR_POINTS} grid points"
        )
    # each point is start + k*step, so rounding errors do not accumulate
    return tuple(round(start + k * step, 9) for k in range(math.floor(span) + 1))


def _format_value(v: float) -> str:
    return repr(float(v))


def _write_rows(out: TextIO, result: SweepResult) -> None:
    spec = result.spec
    for row in result.rows:
        est = row.estimate
        out.write(
            ",".join(
                (
                    _format_value(row.snr_db),
                    str(spec.n_antennas),
                    str(spec.m_beams),
                    row.scheme,
                    spec.metric,
                    _format_value(est.value),
                    _format_value(est.std_err),
                    str(est.trials),
                    str(spec.seed),
                    str(est.resamples),
                )
            )
            + "\n"
        )


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """Yield a stream for the CSV text bound for `path` (stdout for '-').

    Callers write only after every estimate is done, so a failed run writes
    nothing. A new or regular file (symlinks followed) is written to a
    temporary file beside it and renamed over it, so an interrupted write
    leaves no partial CSV either; other targets, such as devices, pipes and
    files in read-only directories, are written in place. The stream is
    opened first, so a bad path fails before any trial runs.
    """
    if path == "-":
        yield sys.stdout
        return
    real = os.path.realpath(path)
    try:
        mode = os.stat(real).st_mode
    except FileNotFoundError:
        mode = None
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    if path.endswith(os.sep) or (mode is not None and stat.S_ISDIR(mode)):
        raise OSError(f"cannot write {path}: is a directory")
    directory, name = os.path.split(real)
    # no temporary file can be made beside a target in a read-only directory
    if mode is not None and not (
        stat.S_ISREG(mode) and os.access(directory, os.W_OK)
    ):
        with _open(path, real, "w") as fh:
            yield fh
        return
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = _open(path, tmp, "x")
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, real)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _open(path: str, target: str, mode: str) -> TextIO:
    try:
        return open(target, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _overrides(args: argparse.Namespace) -> dict:
    """SweepSpec fields set by the flags sweep and preset share."""
    fields = {
        "trials": args.trials,
        "seed": args.seed,
        "metric": args.metric,
        "snr_grid_db": None if args.snr_db is None else _parse_snr_grid(args.snr_db),
        "candidate_strategy": _STRATEGY_FLAGS.get(args.strategy),
    }
    return {k: v for k, v in fields.items() if v is not None}


def _run(
    args: argparse.Namespace, specs: Sequence[SweepSpec], metadata: Sequence[str]
) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    with _output(args.out) as out:
        results = estimate(specs, workers=args.workers)
        for line in metadata:
            out.write(f"# {line}\n")
        out.write(CSV_HEADER + "\n")
        for result in results:
            _write_rows(out, result)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = replace(_load_config(args.config), **_overrides(args))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    metadata = [
        f"beamshare {__version__} sweep",
        f"config: {args.config}",
        f"r_p_bpcu: {spec.r_p} r_s_bpcu: {spec.r_s}",
        f"strategy: {spec.candidate_strategy} seed: {spec.seed} trials: {spec.trials}",
    ]
    return _run(args, [spec], metadata)


def _cmd_preset(args: argparse.Namespace) -> int:
    preset = _PRESETS[args.name]
    m_list = tuple(args.m_beams) if args.m_beams else _PRESET_M
    if len(set(m_list)) < len(m_list):
        raise ConfigError(f"--m-beams names a curve twice: {list(m_list)}")
    fields = dict(
        r_p=_PRESET_R_P if args.r_p_bpcu is None else args.r_p_bpcu,
        r_s=_PRESET_R_S if args.r_s_bpcu is None else args.r_s_bpcu,
        snr_grid_db=_parse_snr_grid(_PRESET_SNR),
        schemes=preset["schemes"],
        metric=preset["metric"],
        trials=_PRESET_TRIALS,
        seed=1,
        candidate_strategy="prefixes_plus_singletons",
    )
    fields.update(_overrides(args))
    try:
        specs = [SweepSpec(n_antennas=m, m_beams=m, **fields) for m in m_list]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = specs[0]
    metadata = [
        f"beamshare {__version__} preset {args.name}",
        f"schemes: {','.join(spec.schemes)} metric: {spec.metric}",
        f"r_p_bpcu: {spec.r_p} r_s_bpcu: {spec.r_s} n=m in {list(m_list)}",
        f"strategy: {spec.candidate_strategy} seed: {spec.seed} trials: {spec.trials}",
    ]
    metadata.extend(f"assumption: {a}" for a in preset["assumptions"])
    return _run(args, specs, metadata)


def _cmd_validate(args: argparse.Namespace) -> int:
    # the solver suite draws from seeds up to seed + 3, which must still
    # fit in 64 bits
    if not 0 <= args.seed < 2 ** 64 - 3:
        raise ConfigError("--seed must be in [0, 2**64 - 3)")
    # imported here: the suites and the analysis module serve this command only
    from .validation import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check in SUITES[name](args.seed):
            status = "PASS" if check.passed else "FAIL"
            failures += 0 if check.passed else 1
            print(f"[{status}] {check.name:<34} {check.detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamshare",
        description="Link-level simulator for NOMA secondary access on "
        "preconfigured zero-forcing beams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    snr_help = "grid as start:stop:step; a negative start needs --snr-db=-10:0:5"
    common.add_argument("--snr-db", default=None, help=snr_help)
    common.add_argument("--metric", choices=METRICS, default=None)
    common.add_argument(
        "--strategy", choices=sorted(_STRATEGY_FLAGS), default=None
    )
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out", default="-", help="output CSV path, - for stdout")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a config-driven sweep")
    p_sweep.add_argument("--config", required=True, help="JSON experiment config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser(
        "preset", parents=[common], help="run a canned figure experiment"
    )
    p_preset.add_argument("name", choices=sorted(_PRESETS))
    p_preset.add_argument(
        "--m-beams",
        type=int,
        action="append",
        default=None,
        help="replace the default N=M curve set (repeatable)",
    )
    p_preset.add_argument("--r-p-bpcu", type=float, default=None)
    p_preset.add_argument("--r-s-bpcu", type=float, default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_val = sub.add_parser("validate", help="run the self-check suites")
    p_val.add_argument("suite", choices=[*SUITE_NAMES, "all"])
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
