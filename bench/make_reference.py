"""Record the reference rows that every benchmark sweep is checked against.

    python3 bench/make_reference.py [workload ...]

Runs each workload's sweep at workers 1 for every stored sweep seed and
writes bench/reference/<workload>.json.  Re-record only from a commit whose
output is known to be right: the rows are the benchmark's correctness gate.
"""

from __future__ import annotations

import json
import os
import sys

from benchlib import REFERENCE_SEEDS, WORKLOADS, data_rows, reference_path
from run import ROOT, capture_main, import_cli, pin_threads


def main(names: list[str]) -> int:
    pin_threads()
    os.chdir(ROOT)  # the dense_m8 config path is relative to the root
    cli = import_cli()
    for name in names or sorted({w.reference for w in WORKLOADS.values()}):
        wl = WORKLOADS[name]
        rows = {}
        for seed in range(REFERENCE_SEEDS):
            argv = wl.argv(seed, workers=1)
            _, code, text = capture_main(cli, argv)
            if code != 0:
                print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            rows[str(seed)] = data_rows(text)
        record = {"workload": name, "argv": wl.argv(0, workers=1), "rows": rows}
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {REFERENCE_SEEDS} seeds x {len(rows['0'])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
