"""One set-up sample: imports, library build and circuit generation.

Run by ``run.py`` in a fresh interpreter, so each sample pays what a
user's first call pays.  Prints the elapsed seconds as its only line.

Usage: python3 perfbench/setup_probe.py <workload> <0|1 heldout>
"""

import sys
import time

T0 = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.library.cmos130 import cmos130
    from workloads import PROBES, WORKLOADS

    cmos130()
    workload = {**WORKLOADS, **PROBES}[sys.argv[1]]
    workload.factory(heldout=sys.argv[2] == "1")()
    print(f"{time.perf_counter() - T0:.6f}")
