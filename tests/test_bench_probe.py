"""The benchmark's set-up probe must build every workload's spec; if it
fails, every benchmark run reports run_failed."""

import importlib.util
import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_setup_probe_builds_every_workload_spec(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    found = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(found)
    monkeypatch.setitem(sys.modules, found.name, run)  # dataclasses look it up
    found.loader.exec_module(run)
    specs = [kw for wl in run.WORKLOADS.values() for kw in wl.spec_kwargs(0)]
    proc = subprocess.run(
        [sys.executable, "-c", run._PROBE, run.SRC, json.dumps(specs)],
        capture_output=True,
        cwd=run.ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"ready"
