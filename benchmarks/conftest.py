"""Benchmark harness fixtures: the paper's three circuit sweeps.

Each circuit's six-layout experiment (0%..5% test points, Section 4.1)
runs once per session and is shared by the Table 1/2/3 benches; the
scales below keep a full three-circuit reproduction within tens of
minutes of pure Python.  ``--scale-full`` (or REPRO_BENCH_SCALE=1.0)
reproduces the published sizes at correspondingly long runtimes.

Outputs: every bench writes its table/figure to ``benchmarks/out/`` so
the run leaves a complete paper-vs-measured record behind.

Sweeps run through the parallel executor (bit-identical to the serial
reference at any job count): set ``REPRO_BENCH_JOBS=N`` to fan the six
levels out over N worker processes, and ``REPRO_BENCH_CACHE=dir`` to
reuse finished levels across bench invocations.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib

import pytest

from repro import obs
from repro.atpg import AtpgConfig
from repro.circuits import control_core, dsp_core_p26909, s38417_like
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    FlowConfig,
    run_sweeps,
)

#: Default bench scales per circuit (fraction of the published size).
BENCH_SCALES = {
    "s38417": 0.08,
    "control_core": 0.06,
    "p26909": 0.05,
}

#: The paper's sweep.
TP_PERCENTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def _scale_for(name: str) -> float:
    override = os.environ.get("REPRO_BENCH_SCALE")
    if override:
        return float(override)
    return BENCH_SCALES[name]


def _experiment(name: str) -> ExperimentConfig:
    scale = _scale_for(name)
    atpg = AtpgConfig(seed=2004, backtrack_limit=48)
    # Factories are partials (picklable) so REPRO_BENCH_JOBS > 1 can
    # ship them to executor worker processes.
    if name == "s38417":
        return ExperimentConfig(
            name="s38417",
            circuit_factory=functools.partial(s38417_like, scale=scale),
            tp_percents=TP_PERCENTS,
            flow=FlowConfig(target_utilization=0.97,
                            max_chain_length=100, atpg=atpg),
        )
    if name == "control_core":
        return ExperimentConfig(
            name="control_core",
            circuit_factory=functools.partial(control_core, scale=scale),
            tp_percents=TP_PERCENTS,
            flow=FlowConfig(target_utilization=0.97,
                            max_chain_length=100, atpg=atpg),
        )
    if name == "p26909":
        return ExperimentConfig(
            name="p26909",
            circuit_factory=functools.partial(dsp_core_p26909, scale=scale),
            tp_percents=TP_PERCENTS,
            flow=FlowConfig(target_utilization=0.50,
                            max_chain_length=None, n_chains=32,
                            atpg=atpg),
        )
    raise KeyError(name)


def _executor() -> ExecutorConfig:
    """Executor settings from the environment (serial, uncached default)."""
    return ExecutorConfig(
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
        trace=bool(os.environ.get("REPRO_BENCH_TRACE")),
    )


_CACHE = {}


def _write_stage_breakdown(name: str, result) -> None:
    """Persist per-stage runtimes per TP level for this sweep.

    Cache-served levels report the timings recorded when the flow
    actually ran, flagged with ``from_cache`` so readers can tell
    measured-this-run from replayed numbers.
    """
    payload = {
        "circuit": name,
        "scale": _scale_for(name),
        "levels": {
            f"{pct:g}": {
                "stage_seconds": dict(run.stage_seconds),
                "from_cache": run.from_cache,
            }
            for pct, run in sorted(result.runs.items())
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}_stages.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\n[bench artifact] {path}")


def sweep_result(name: str):
    """Run (or reuse) the six-layout sweep for one circuit.

    With ``REPRO_BENCH_TRACE`` set, the sweep runs traced and a merged
    Chrome trace-event file lands in ``benchmarks/out/`` next to the
    per-stage breakdown JSON that every sweep writes.
    """
    if name not in _CACHE:
        executor = _executor()
        if executor.trace:
            with obs.tracing(label=f"bench:{name}") as tracer:
                result = run_sweeps([_experiment(name)], executor)[name]
            traces = [run.trace for run in result.runs.values()]
            traces.append(tracer.trace())
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"BENCH_{name}_trace.json"
            obs.write_chrome_trace(trace_path, traces)
            print(f"\n[bench artifact] {trace_path}")
        else:
            result = run_sweeps([_experiment(name)], executor)[name]
        _write_stage_breakdown(name, result)
        _CACHE[name] = result
    return _CACHE[name]


@pytest.fixture(scope="session", params=list(BENCH_SCALES))
def circuit_sweep(request):
    """Parametrised sweep fixture: one value per paper circuit."""
    return sweep_result(request.param)


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_artifact(out_dir: pathlib.Path, filename: str,
                   content: str) -> None:
    """Persist a bench artifact and echo a pointer to the terminal."""
    path = out_dir / filename
    path.write_text(content, encoding="utf-8")
    print(f"\n[bench artifact] {path}")
