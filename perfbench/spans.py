"""Span recording around the program's public entry points.

The benchmark measures each layer from outside: for a traced run it
replaces the name each caller looks up (``repro.core.flow.run_sta``,
``repro.tpi.insertion.compute_cop``, ``PodemEngine.generate`` ...) with
a wrapper that records one span per call, then restores the originals.
Untraced runs never install these wrappers.

A span carries its name, start, end, parent span and the id of the
flow cell it belongs to.  Times come from ``time.perf_counter``, which
on Linux is the system-wide monotonic clock, so spans recorded in
forked sweep workers line up with the parent's.  Workers hand their
spans back through small JSON spool files written at the end of every
cell; the parent reads them once the sweep returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of the benchmark's own call into the program.
ROOT = "workload"
#: Span name of one flow cell (``run_flow`` as the executor calls it).
CELL = "flow.cell"


@dataclass
class Span:
    """One recorded call."""

    sid: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    cell: str
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.cell, self.pid, self.attrs]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class SpanRecorder:
    """In-memory span store of one benchmark process and its workers.

    Args:
        spool_dir: Directory where forked workers drop their spans.
    """

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.home_pid = os.getpid()
        self.pid = self.home_pid
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.cell = "-"
        self.counter = 0

    def _own_process(self) -> None:
        """Drop state inherited through ``fork``: a worker starts empty."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self.cell = "-"
            self.counter = 0

    def open(self, name: str) -> Span:
        self._own_process()
        self.counter += 1
        parent = self.stack[-1].sid if self.stack else None
        span = Span(f"{self.pid}:{self.counter}", name, time.perf_counter(),
                    0.0, parent, self.cell, self.pid)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def flush_worker(self) -> None:
        """Write a worker's spans to the spool (no-op in the parent)."""
        if self.pid == self.home_pid or not self.spans:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{self.pid}-{self.counter}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([s.to_json() for s in self.spans]))
        tmp.replace(path)
        self.spans = []

    def collect(self) -> List[Span]:
        """Every span of the parent plus every spooled worker span."""
        spans = list(self.spans)
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("*.json")):
                spans.extend(Span.from_json(row)
                             for row in json.loads(path.read_text()))
        spans.sort(key=lambda s: (s.start, s.sid))
        return spans


# ----------------------------------------------------------------------
# Result hooks: counts read off each call's return value
# ----------------------------------------------------------------------
def _podem_attrs(cube, args) -> Dict[str, Any]:
    return {"status": cube.status, "backtracks": cube.backtracks}


def _route_attrs(report, args) -> Dict[str, Any]:
    router = args[0]
    return {"nets": len(router.routed),
            "overflowed_edges": report.overflowed_edges,
            "wirelength_um": report.total_wirelength_um}


def _reroute_attrs(report, args) -> Dict[str, Any]:
    attrs = _route_attrs(report, args)
    attrs["nets"] = len([n for n in args[1] if n in args[0].circuit.nets])
    return attrs


def _len_attrs(out, args) -> Dict[str, Any]:
    return {"nets": len(out)}


def _sta_incr_attrs(out, args) -> Dict[str, Any]:
    return {"cone_size": out[1].cone_size}


def _tpi_attrs(report, args) -> Dict[str, Any]:
    return {"tsff": report.count}


def _atpg_attrs(result, args) -> Dict[str, Any]:
    return {"patterns": result.n_patterns}


def _cache_get_attrs(summary, args) -> Dict[str, Any]:
    return {"hit": summary is not None}


def _cell_attrs(result, args) -> Dict[str, Any]:
    return {"tp_percent": result.config.tp_percent,
            "hold_fix_rounds": len(result.hold_fix_rounds)}


#: (module or module:Class, attribute, span name, result hook).  Each
#: target is the name the caller looks up at call time, so patching it
#: intercepts exactly the calls the flow makes.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.executor", "run_flow", CELL, _cell_attrs),
    ("repro.core.executor", "flow_cache_key", "executor.plan", None),
    ("repro.core.executor:ResultCache", "get", "executor.cache.get",
     _cache_get_attrs),
    ("repro.core.executor:ResultCache", "put", "executor.cache.put", None),
    ("repro.circuits.iscas", "generate", "circuits.generate", None),
    ("repro.circuits.philips", "generate", "circuits.generate", None),
    ("repro.core.flow", "insert_test_points", "tpi.insert", _tpi_attrs),
    ("repro.tpi.insertion", "compute_cop", "testability.cop", None),
    ("repro.tpi.insertion", "extract_comb_view", "netlist.comb_view", None),
    ("repro.tpi.insertion", "assign_clock", "tpi.clockdomain", None),
    ("repro.core.flow", "insert_scan", "scan.insert", None),
    ("repro.core.flow", "fix_electrical", "netlist.fix_electrical", None),
    ("repro.core.flow", "validate", "netlist.validate", None),
    ("repro.core.flow", "build_floorplan", "layout.floorplan", None),
    ("repro.layout.placement:QuadraticPlacer", "place", "layout.place",
     None),
    ("repro.layout.placement:QuadraticPlacer", "refine", "layout.place",
     None),
    ("repro.layout.placement:QuadraticPlacer", "eco_place",
     "layout.eco_place", None),
    ("repro.core.flow", "reorder_chains", "scan.reorder", None),
    ("repro.core.flow", "synthesize_all_clock_trees", "layout.cts", None),
    ("repro.layout.routing:GlobalRouter", "route_all", "layout.route_all",
     _route_attrs),
    ("repro.layout.routing:GlobalRouter", "reroute", "layout.reroute",
     _reroute_attrs),
    ("repro.core.flow", "extract_all", "extraction.full", _len_attrs),
    ("repro.core.flow", "extract_incremental", "extraction.incr", None),
    ("repro.core.flow", "run_sta_with_state", "sta.full", None),
    ("repro.core.flow", "run_sta", "sta.full", None),
    ("repro.core.flow", "run_sta_incremental", "sta.incr", _sta_incr_attrs),
    ("repro.core.flow", "insert_fillers", "layout.filler", None),
    ("repro.core.flow", "run_atpg", "atpg.run", _atpg_attrs),
    ("repro.atpg.engine", "extract_comb_view", "netlist.comb_view", None),
    ("repro.atpg.engine", "build_fault_list", "atpg.fault_list", None),
    ("repro.atpg.engine", "compute_scoap", "testability.scoap", None),
    ("repro.atpg.engine", "compute_cop", "testability.cop", None),
    ("repro.atpg.podem:PodemEngine", "generate", "atpg.podem",
     _podem_attrs),
    ("repro.atpg.fault_sim:FaultSimulator", "run_block", "atpg.fsim", None),
    ("repro.atpg.engine", "reverse_order_compaction", "atpg.compaction",
     None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          hook: Optional[Callable]) -> Callable:
    is_cell = name == CELL

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        if is_cell:
            recorder.cell = span.sid
            span.cell = span.sid
        try:
            out = fn(*args, **kwargs)
            if hook is not None:
                span.attrs = hook(out, args)
            return out
        finally:
            recorder.close(span)
            if is_cell:
                recorder.cell = "-"
                recorder.flush_worker()

    return wrapper


class Installed:
    """The patched names of one traced run; :meth:`restore` undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.saved: List[Tuple[Any, str, Any]] = []
        for target, attr, name, hook in TARGETS:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, hook))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per span id: duration minus child durations."""
    out = {s.sid: s.dur for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.dur
    return out


def covered_seconds(spans: List[Span], start: float, end: float) -> float:
    """Length of the union of span intervals clipped to [start, end]."""
    intervals = sorted(
        (max(s.start, start), min(s.end, end)) for s in spans
        if s.end > start and s.start < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in intervals:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def chrome_trace(spans: List[Span], t0: float) -> dict:
    """Chrome trace-event object (open in ui.perfetto.dev)."""
    selfs = self_times(spans)
    events: List[dict] = []
    for pid in sorted({s.pid for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"pid {pid}"}})
    for s in spans:
        events.append({
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": max(0.0, (s.start - t0) * 1e6),
            "dur": max(0.0, s.dur * 1e6),
            "pid": s.pid, "tid": 0,
            "args": dict(s.attrs, id=s.sid, parent=s.parent, cell=s.cell,
                         self_ms=round(selfs[s.sid] * 1e3, 3)),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
