"""Bench: full compact ATPG scaling on s38417, before and after.

Runs the ATPG phase (no layout) on s38417 at 0% TP at three scales
under the span tracer and records, per scale, the seconds of each ATPG
phase (random phase, PODEM, abort recovery, static compaction), the
PODEM counters, the test-set size and the fitted exponent of the ATPG
wall time over the cell count, keeping the fastest of two
fresh-process runs per scale.  The artifact is ``BENCH_atpg.json``.

Set ``REPRO_BENCH_ATPG_BASELINE`` to another checkout's ``src``
directory to measure it too, in a subprocess on the same machine: the
record then carries both runs, their exponents and the per-scale
speedups, and the bench asserts that both produced the same test set.

The measurement also runs stand-alone against any tree::

    PYTHONPATH=<tree>/src python benchmarks/test_bench_atpg.py 0.02
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

#: Fractions of the published s38417 size.
SCALES = (0.01, 0.02, 0.04)
#: The bench sweeps' ATPG configuration (``benchmarks/conftest.py``).
ATPG = {"seed": 2004, "backtrack_limit": 48}
TP_PERCENT = 0.0
#: Fresh-process runs per scale; the fastest is recorded.
REPEATS = 2
#: ATPG phase spans (``repro.atpg.engine.run_atpg``).
PHASES = ("random_phase", "podem", "abort_recovery", "static_compaction")


def measure(scale: float) -> Dict:
    """One traced full-ATPG cell at ``scale``."""
    from repro import obs
    from repro.atpg import AtpgConfig
    from repro.circuits import s38417_like
    from repro.core import FlowConfig
    from repro.core.flow import run_flow
    from repro.library import cmos130

    circuit = s38417_like(scale=scale)
    n_cells = len(circuit.instances)
    config = FlowConfig(tp_percent=TP_PERCENT, run_layout_phase=False,
                        atpg=AtpgConfig(**ATPG))
    with obs.tracing("bench_atpg") as tracer:
        result = run_flow(circuit, cmos130(), config)
    (atpg,) = [s for s in tracer.trace().spans if s.name == "atpg"]
    phases = {span.name: span for span in atpg.children}
    podem = phases["podem"]
    return {
        "scale": scale,
        "n_cells": n_cells,
        "atpg_s": atpg.duration_s,
        "phase_s": {name: phases[name].duration_s
                    for name in PHASES if name in phases},
        "podem_counters": {
            name: podem.counters[name]
            for name in sorted(podem.counters)
            if name.startswith("podem.") or name in ("backtracks",
                                                     "restarts")
        },
        "patterns": result.atpg.n_patterns,
        "fault_coverage": result.atpg.fault_coverage,
        "aborted": result.atpg.aborted,
        "redundant": result.atpg.redundant,
    }


def fitted_exponent(runs: List[Dict]) -> float:
    """Least-squares slope of log(ATPG seconds) over log(cells)."""
    xs = [math.log(r["n_cells"]) for r in runs]
    ys = [math.log(r["atpg_s"]) for r in runs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _measure_tree(src: str) -> List[Dict]:
    """Measure every scale against the sources under ``src``, keeping
    the fastest of ``REPEATS`` fresh-process runs (shared hosts are
    noisy; the test sets of the repeats must agree)."""
    runs = []
    env = dict(os.environ, PYTHONPATH=src)
    for scale in SCALES:
        repeats = []
        for _ in range(REPEATS):
            out = subprocess.run(
                [sys.executable, __file__, str(scale)], env=env,
                check=True, capture_output=True, text=True,
            ).stdout
            repeats.append(json.loads(out.splitlines()[-1]))
        assert len({r["patterns"] for r in repeats}) == 1, scale
        runs.append(min(repeats, key=lambda r: r["atpg_s"]))
    return runs


def test_atpg_scaling_record(out_dir):
    from conftest import write_artifact

    here = str(Path(__file__).resolve().parents[1] / "src")
    record = {
        "circuit": "s38417",
        "tp_percent": TP_PERCENT,
        "atpg": ATPG,
        "layout": False,
        "scales": list(SCALES),
        "host": {"machine": platform.machine(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version()},
    }
    current = _measure_tree(here)
    record["current"] = {"runs": current,
                         "exponent": fitted_exponent(current)}
    baseline_src = os.environ.get("REPRO_BENCH_ATPG_BASELINE")
    if baseline_src:
        baseline = _measure_tree(baseline_src)
        record["baseline"] = {"runs": baseline,
                              "exponent": fitted_exponent(baseline)}
        record["atpg_speedup"] = {
            f"{b['scale']:g}": b["atpg_s"] / c["atpg_s"]
            for b, c in zip(baseline, current)
        }
        # A speedup that changes the test set is a behaviour change.
        for b, c in zip(baseline, current):
            assert b["patterns"] == c["patterns"], b["scale"]
            assert b["fault_coverage"] == c["fault_coverage"], b["scale"]
    write_artifact(out_dir, "BENCH_atpg.json",
                   json.dumps(record, indent=1, sort_keys=True) + "\n")
    assert all(r["patterns"] > 0 for r in current)


if __name__ == "__main__":
    print(json.dumps(measure(float(sys.argv[1]))))
