"""A run without a pool must not pay for one: the process pool's modules are
loaded only when a sweep starts a pool (test_estimate_starts_one_pool covers
that path)."""

import os
import subprocess
import sys

import beamshare

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(beamshare.__file__)))

_WORKERS_1_RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
from beamshare import cli
argv = ["preset", "fig2b", "--trials", "2", "--snr-db", "0:10:10", "--out", os.devnull]
assert cli.main(argv) == 0
print(" ".join(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""


def test_a_workers_1_run_never_loads_the_pool_modules():
    # a fresh interpreter, since this session's modules say nothing of
    # what one run loads
    done = subprocess.run(
        [sys.executable, "-c", _WORKERS_1_RUN, _SRC],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
