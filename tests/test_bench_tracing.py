"""The benchmark's tracer must find every name it wraps in the package."""

import os

from beamshare import beam_aggregation, channel_model, cli, montecarlo

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# the names bench/tracing.py wraps, by module; a missing one makes a traced
# benchmark run (--trace 1) die with AttributeError
WRAPPED = {
    cli: {"estimate"},
    montecarlo: {
        "run_trial",
        "realize",
        "evaluate_selection",
        "evaluate_scheme1",
        "evaluate_scheme2",
        "ProcessPoolExecutor",
    },
    channel_model: {"sample_channels", "zf_beams"},
    beam_aggregation: {"enumerate_candidates", "solve_problem4", "min_primary_power"},
}


def test_bench_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    before = {module: dict(vars(module)) for module in WRAPPED}
    restore = tracing.install(tracing.Tracer())
    try:
        changed = {
            module: {name for name, value in vars(module).items() if value is not old.get(name)}
            for module, old in before.items()
        }
    finally:
        restore()
    assert changed == WRAPPED
    for module, old in before.items():
        for name in WRAPPED[module]:
            assert getattr(module, name) is old[name]
        assert dict(vars(module)) == old
