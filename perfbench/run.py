"""Benchmark of the reproduction flow: two workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload atpg_s38417 --seed 0 --seconds 55
    python3 perfbench/run.py --workload layout_s38417   # a failing probe
    python3 perfbench/run.py --all                 # every workload, one table
    python3 perfbench/run.py --all --heldout       # held-out netlists, traced
    python3 perfbench/run.py --compare A.json B.json

A run measures one workload (see ``workloads.py``) as a closed loop
from this process: each iteration is one cold ``repro.api.sweep_report``
call into a fresh result cache, then warm replays of the same call,
then the output checks and oracles of ``checks.py`` (outside the timed
region).  Iterations repeat while the next one still fits in
``--seconds``; at least one always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``).  Both times are quoted
at a reference host speed: a background sampler (``hostspeed.py``)
tracks how fast the shared host runs a fixed loop during each timed
call and each set-up sample, and scales that window's seconds by it.
``wall_s`` is the median over the run's cold calls, ``setup_s`` over
set-up samples taken half before and half after them.  The raw seconds
go into the run's record.  With
``--trace 1`` the run makes one untraced and one traced iteration and
the last line carries the per-layer metrics of ``layers.py``; the
traced spans are also written as a Chrome trace under
``perfbench/out/``.  Every run writes a record (see ``records.py``)
there too.  The exit code is 0 when the run completed, even if a check
failed: ``correct``/``failed`` on the last line report that.

Every run executes under ``PYTHONHASHSEED=0`` (``--hashseed`` picks
another value): some flow stages break ties in set iteration order,
which follows the interpreter's string-hash seed, and the reference
rows were recorded under seed 0.  ``--workload`` also accepts the
failing configurations of ``workloads.PROBES``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-interpreter set-up samples taken before the timed iterations,
#: and again after them (``setup_s`` is the median of both sets).
SETUP_SAMPLES = 3
#: Warm replays after each cold call (``executor.replay_s`` is their
#: median):
#: at least ``MIN_REPLAYS``, then more while under ``REPLAY_SECONDS``
#: in total, so sub-100 ms replays still get a stable median.
MIN_REPLAYS = 3
MAX_REPLAYS = 60
REPLAY_SECONDS = 1.0
#: End-to-end metrics and units.  The warm-replay time is reported
#: per layer (``executor.replay_s``): it is bound by journal fsync
#: latency, and its run-to-run spread is wider than any bound the
#: benchmark may set.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Largest absolute change of the dominant layer's share that a
#: held-out netlist may show and still "keep its share".
SHARE_TOLERANCE = 0.15


#: Seconds of a timed region with the (start, end) window it ran in.
Timed = Tuple[float, float, float]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name")
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed; feeds AtpgConfig.seed (default 0)")
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--hashseed", type=int, default=0,
                   help="PYTHONHASHSEED of the run (default 0, the seed "
                        "of the reference rows)")
    p.add_argument("--heldout", action="store_true",
                   help="use a netlist from another generation seed; "
                        "skips the reference rows, compares layer shares")
    p.add_argument("--all", action="store_true",
                   help="run every workload and print one table")
    p.add_argument("--record-reference", action="store_true",
                   help="write reference/<workload>.json from this run")
    p.add_argument("--compare", nargs=2, metavar="RECORD",
                   help="compare two run records of like configuration")
    return p.parse_args(argv)


def check_manifest(workloads, per_layer) -> List[str]:
    """``BENCHMARK.json`` must name exactly the metrics this code emits."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != \
            [m for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != \
            [m[:3] for m in per_layer]:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    return problems


def setup_samples(workload: str, heldout: bool) -> List[Timed]:
    """Set-up seconds of fresh interpreters (see ``setup_probe.py``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             "1" if heldout else "0"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append((float(out.stdout.strip().splitlines()[-1]), start,
                        time.perf_counter()))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace, work: Path):
        import checks
        import records
        from repro import api
        from workloads import PROBES, WORKLOADS

        self.api = api
        self.checks = checks
        self.args = args
        self.work = work
        self.workload = {**WORKLOADS, **PROBES}[args.workload]
        self.factory = self.workload.factory(args.heldout)
        self.config = self.workload.config(args.seed)
        self.traced = bool(args.trace or args.heldout
                           or args.record_reference)
        self.identity = records.identity(
            self.workload, args.seed, args.heldout, self.factory(),
            self.config, self.traced)
        self.reference = (None if args.heldout
                          else checks.load_reference(self.workload.name))
        self.n_cells = len(self.workload.tp_percents)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.walls: List[Timed] = []
        self.replays: List[float] = []
        self.stage_seconds: Dict[str, float] = {}
        self.captured: List[Any] = []
        self.iteration_no = 0

    # -- the timed calls -------------------------------------------------
    def _sweep(self, cache_dir: Path):
        return self.api.sweep_report(
            self.factory, config=self.config,
            tp_percents=self.workload.tp_percents, jobs=self.workload.jobs,
            cache_dir=str(cache_dir), name=self.workload.circuit,
        )

    def iteration(self, recorder=None) -> Optional[tuple]:
        """One cold call, its warm replays and its checks.

        With a span recorder the cold call and the first replay are
        traced; returns the cold call's ``(start, end)`` window.
        """
        from spans import ROOT as ROOT_SPAN, Installed

        self.iteration_no += 1
        cache_dir = self.work / f"cache-{self.iteration_no}"
        installed = Installed(recorder) if recorder else None
        try:
            span = recorder.open(ROOT_SPAN) if recorder else None
            t0 = time.perf_counter()
            report = self._sweep(cache_dir)
            t1 = time.perf_counter()
            if span is not None:
                recorder.close(span)
            replays = []
            spent = 0.0
            while len(replays) < MIN_REPLAYS or (
                    spent < REPLAY_SECONDS and len(replays) < MAX_REPLAYS):
                r0 = time.perf_counter()
                replays.append(self._sweep(cache_dir))
                took = time.perf_counter() - r0
                spent += took
                if installed is not None:
                    # Only the first replay is traced (cache-hit spans);
                    # the rest run bare and time replay_s.
                    installed.restore()
                    installed = None
                else:
                    self.replays.append(took)
        finally:
            if installed is not None:
                installed.restore()
        if recorder is None:
            self.walls.append((t1 - t0, t0, t1))
        shutil.rmtree(cache_dir, ignore_errors=True)
        self._check(report, replays)
        return (t0, t1)

    # -- checks ----------------------------------------------------------
    def _check(self, report, replays) -> None:
        checks = self.checks
        bad = set()
        self.stage_seconds = {}
        for failure in report.failures:
            bad.add(failure.tp_percent)
            self.problems.append(
                f"cell {failure.label} failed: {failure.error_type}")
        experiment = report.results.get(self.workload.circuit)
        rows = checks.table_rows(experiment) if experiment else {}
        cell_problems: List[tuple] = []
        if self.reference is not None:
            tables = checks.TABLES if self.args.seed == 0 else \
                ("table2", "table3")
            cell_problems += checks.compare_rows(rows, self.reference, tables)
        elif not self.args.heldout and not self.args.record_reference:
            cell_problems.append((None, "no reference rows recorded"))
        cell_problems += checks.table1_invariants(rows.get("table1", []))
        for replay in replays:
            served = replay.results.get(self.workload.circuit)
            if replay.cache_hits != self.n_cells or served is None or \
                    checks.table_rows(served) != rows:
                cell_problems.append(
                    (None, "warm replay did not reproduce the cold rows "
                           "from the cache"))
        for result in self.captured:
            pct = result.config.tp_percent
            cell_problems += [(pct, p) for p in
                              checks.atpg_resimulation(result)
                              + checks.incremental_equals_full(result)]
            for key, value in result.stage_seconds.items():
                self.stage_seconds[key] = \
                    self.stage_seconds.get(key, 0.0) + value
        if not self.captured and experiment is not None:
            for run in experiment.runs.values():
                for key, value in run.stage_seconds.items():
                    self.stage_seconds[key] = \
                        self.stage_seconds.get(key, 0.0) + value
        self.captured.clear()
        for pct, problem in cell_problems:
            self.problems.append(problem)
            if pct is None:
                bad.update(self.workload.tp_percents)
            else:
                bad.add(pct)
        self.attempted += self.n_cells
        self.failed += len(bad)
        self.last_rows = rows


def capture_results(run: Run):
    """Keep the FlowResults of in-process cells for the oracles.

    Serial sweeps run ``run_flow`` in this process; the executor looks
    the name up in its module at call time, so a pass-through wrapper
    there sees every result.  Cells run in sweep workers are not seen.
    """
    import repro.core.executor as executor

    original = executor.run_flow
    home = os.getpid()

    def run_flow(*args, **kwargs):
        result = original(*args, **kwargs)
        if os.getpid() == home:
            run.captured.append(result)
        return result

    executor.run_flow = run_flow
    return lambda: setattr(executor, "run_flow", original)


def _measure(args: argparse.Namespace, work: Path) -> tuple:
    """Set-up samples, the timed iterations and the traced one."""
    from spans import SpanRecorder

    setup = setup_samples(args.workload, args.heldout)
    run = Run(args, work)
    uncapture = capture_results(run)
    try:
        traced = run.traced
        start = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            run.iteration()
            durations.append(time.perf_counter() - t)
            if traced or (time.perf_counter() - start
                          + statistics.median(durations)
                          > args.seconds):
                break
        spans, window = [], None
        if traced:
            recorder = SpanRecorder(work / "spool")
            window = run.iteration(recorder)
            spans = recorder.collect()
    finally:
        uncapture()
    setup += setup_samples(args.workload, args.heldout)
    return setup, run, traced, spans, window


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    import layers
    import records
    from hostspeed import HostSpeed
    from repro.obs import validate_chrome_trace
    from spans import chrome_trace

    tag = f"{args.workload}-seed{args.seed}" + ("-heldout" if args.heldout
                                               else "")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    with HostSpeed() as host:
        try:
            setup, run, traced, spans, window = _measure(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(s for s, _, _ in run.walls)
    replay = statistics.median(run.replays)
    e2e = {
        "wall_s": statistics.median(host.scale(*w) for w in run.walls),
        "setup_s": statistics.median(host.scale(*s) for s in setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = dict(run.identity, setup_samples=setup, walls=run.walls,
                  host_loop_s=host.samples,
                  replays=run.replays, replay_s=replay,
                  stage_seconds=run.stage_seconds,
                  attempted=run.attempted, failed=run.failed,
                  problems=run.problems)
    units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    if traced:
        per_layer = layers.layer_metrics(spans, window, run.workload.jobs,
                                         run.stage_seconds, wall, replay)
        layer_units = {m[0]: m[1] for m in layers.PER_LAYER}
        metrics = {k: {"value": per_layer[k], "unit": layer_units[k]}
                   for k, _, _, _ in layers.PER_LAYER}
        shares = layers.layer_shares(spans)
        record["layer_shares"] = shares
        unattributed = per_layer["obs.unattributed_frac"]
        overhead = per_layer["obs.trace_overhead_frac"]
        print(f"[perfbench] layer spans cover {1 - unattributed:.2%} of the "
              f"traced wall; unattributed {unattributed:.2%} vs trace "
              f"overhead {overhead:+.2%}: accounting "
              + ("holds" if unattributed <= abs(overhead) else
                 "exceeds the overhead"))
        trace_obj = chrome_trace(spans, window[0])
        trace_problems = validate_chrome_trace(trace_obj)
        if trace_problems:
            run.problems.append(f"chrome trace invalid: {trace_problems[0]}")
            run.failed = max(run.failed, 1)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{tag}.json"
        trace_path.write_text(json.dumps(trace_obj), encoding="utf-8")
        print(f"[perfbench] chrome trace: {trace_path.relative_to(ROOT)} "
              f"({len(spans)} spans)")
        print("[perfbench] layer shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
        if args.heldout:
            check_shares(run, shares)
    record["metrics"] = metrics
    if args.record_reference:
        ref = dict(run.last_rows, layer_shares=record["layer_shares"],
                   config_fingerprint=run.identity["config_fingerprint"],
                   circuit_structural_hash=run.identity[
                       "circuit_structural_hash"])
        path = HERE / "reference" / f"{args.workload}.json"
        records.write(path, ref)
        print(f"[perfbench] reference written: {path.relative_to(ROOT)}")
    records.write(record_path(tag, traced), record)
    for problem in run.problems:
        print(f"[perfbench] CHECK FAILED: {problem}")
    for key, value in sorted(run.stage_seconds.items()):
        print(f"[perfbench] stage_s.{key} = {value:.4f} s")
    for name, m in metrics.items():
        print(f"[perfbench] {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def record_path(tag: str, traced: bool) -> Path:
    return OUT / "records" / f"{tag}-trace{int(bool(traced))}.json"


def check_shares(run: Run, shares: Dict[str, float]) -> None:
    """The dominant layer must keep its share off the default netlist."""
    import checks
    import layers

    reference = checks.load_reference(run.workload.name) or {}
    want = reference.get("layer_shares") or {}
    top = layers.dominant(want)
    if top is None:
        run.problems.append("no reference layer shares recorded")
        return
    got = shares.get(top, 0.0)
    print(f"[perfbench] dominant layer {top}: default netlist "
          f"{want[top]:.1%}, held-out netlist {got:.1%}")
    if abs(got - want[top]) > SHARE_TOLERANCE:
        run.problems.append(
            f"dominant layer {top} did not keep its share on the held-out "
            f"netlist ({want[top]:.1%} -> {got:.1%})")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one table of results."""
    from workloads import WORKLOADS

    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--hashseed", str(args.hashseed)]
        if args.heldout:
            cmd.append("--heldout")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rows.append((name, "run failed", float("nan"), ""))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        tag = f"{name}-seed{args.seed}" + ("-heldout" if args.heldout
                                           else "")
        record = json.loads(record_path(tag, args.trace or args.heldout)
                            .read_text(encoding="utf-8"))
        rows.append((name, "replay_s", record["replay_s"], "s"))
        rows.append((name, "failed_frac",
                     result["failed"] / result["attempted"], "frac"))
    print()
    print(f"{'workload':16s} {'metric':34s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:34s} {value:14.6g} {unit}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import records
    from workloads import PROBES, WORKLOADS

    problems = check_manifest(WORKLOADS, layers.PER_LAYER)
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        try:
            print("\n".join(records.compare(a, b)))
        except records.IncomparableRecords as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        return 0
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS and args.workload not in PROBES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(list(WORKLOADS) + list(PROBES)), file=sys.stderr)
        return 2
    if args.record_reference and args.hashseed != 0:
        print("perfbench: reference rows are recorded under --hashseed 0",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != str(args.hashseed):
        # Some flow stages break ties in set order, which follows the
        # interpreter's string-hash seed; pin it so that a seed gives
        # the same outputs on every run.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=str(args.hashseed)))
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
