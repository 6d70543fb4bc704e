"""Per-layer metrics of a traced run, computed from recorded spans.

``PER_LAYER`` is the one table of per-layer metrics: name, unit, which
direction is better, and the end-to-end metric and workloads a change
to that layer should move.  ``BENCHMARK.json`` lists the same names;
``run.py`` refuses to start when the two disagree.  A metric whose
name ends in ``.s`` is *self* seconds: the time inside that layer's
calls minus the time of the instrumented calls nested in them, and one
ending in ``.calls`` counts that span's calls.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from spans import CELL, ROOT, Span, covered_seconds, self_times

STAGE_KEYS = ("tpi_scan", "floorplan_place", "scan_reorder",
              "eco_cts_route", "extraction", "sta", "atpg")

_ATPG = "wall_s on atpg_s38417; less on sweep_p26909 (capped ATPG)"
_TESTABILITY = "wall_s on sweep_p26909 (one recompute per TSFF)"
_TPI = "wall_s on sweep_p26909 (slowest levels); no move on atpg_s38417"
_LAYOUT = "wall_s on sweep_p26909 (50% die)"
_EXTRACT = "wall_s on sweep_p26909"
_STA = "wall_s on sweep_p26909"
_EXEC = "wall_s and replay_s on sweep_p26909"

#: (name, unit, better, what it should move).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("atpg.run_s", "s", "lower", _ATPG + " (inclusive, all cells)"),
    ("atpg.run_s.tp0", "s", "lower", _ATPG + " (inclusive, 0% cell)"),
    ("atpg.run_s.tp5", "s", "lower", _ATPG + " (inclusive, 5% cell)"),
    ("atpg.podem.calls", "count", "lower", _ATPG),
    ("atpg.podem.s", "s", "lower", _ATPG),
    ("atpg.podem.call_ms.p50", "ms", "lower", _ATPG),
    ("atpg.podem.call_ms.p99", "ms", "lower", _ATPG),
    ("atpg.podem.call_samples", "count", "lower",
     "sample count of the PODEM call percentiles"),
    ("atpg.podem.backtracks", "count", "lower", _ATPG),
    ("atpg.podem.aborted", "count", "lower", _ATPG),
    ("atpg.podem.detected_frac", "frac", "higher", _ATPG),
    ("atpg.fsim.blocks", "count", "lower", _ATPG),
    ("atpg.fsim.s", "s", "lower", _ATPG),
    ("atpg.compaction.s", "s", "lower", _ATPG),
    ("atpg.fault_list.s", "s", "lower", _ATPG),
    ("atpg.patterns", "count", "lower", "guard: Table 1 pattern count"),
    ("testability.cop.calls", "count", "lower", _TESTABILITY),
    ("testability.cop.s", "s", "lower", _TESTABILITY),
    ("testability.scoap.s", "s", "lower", _ATPG),
    ("netlist.comb_view.calls", "count", "lower", _TESTABILITY),
    ("netlist.comb_view.s", "s", "lower", _TESTABILITY),
    ("netlist.validate.s", "s", "lower", "guard only"),
    ("netlist.fix_electrical.s", "s", "lower", "guard only"),
    ("tpi.insert.s", "s", "lower", _TPI),
    ("tpi.tsff", "count", "lower", "guard: TSFFs inserted"),
    ("tpi.s_per_tsff", "s", "lower", _TPI + " (inclusive per TSFF)"),
    ("tpi.clockdomain.calls", "count", "lower", _TPI),
    ("tpi.clockdomain.s", "s", "lower", _TPI),
    ("scan.insert.s", "s", "lower", "guard only"),
    ("scan.reorder.s", "s", "lower", "guard only"),
    ("layout.floorplan.s", "s", "lower", _LAYOUT),
    ("layout.place.s", "s", "lower", _LAYOUT),
    ("layout.eco_place.calls", "count", "lower", _LAYOUT),
    ("layout.eco_place.s", "s", "lower", _LAYOUT),
    ("layout.cts.s", "s", "lower", _LAYOUT),
    ("layout.route_all.s", "s", "lower", _LAYOUT),
    ("layout.route.nets", "count", "lower", "guard: nets routed"),
    ("layout.route.overflowed_edges", "count", "lower",
     "guard: final overflow"),
    ("layout.route.wirelength_um", "um", "lower",
     "guard: final wirelength"),
    ("layout.filler.s", "s", "lower", _LAYOUT),
    ("extraction.full.s", "s", "lower", _EXTRACT),
    ("extraction.nets", "count", "lower", "guard: nets extracted in full"),
    ("sta.full.s", "s", "lower", _STA),
) + tuple(
    (f"flow.stage_s.{key}", "s", "lower",
     "locates a gain by Figure 2 stage on every workload")
    for key in STAGE_KEYS
) + (
    ("executor.plan.s", "s", "lower", _EXEC),
    ("executor.cache.get.calls", "count", "lower", _EXEC),
    ("executor.cache.hits", "count", "higher", _EXEC),
    ("executor.cache.get.s", "s", "lower", _EXEC),
    ("executor.cache.put.s", "s", "lower", _EXEC),
    ("executor.cell_busy_s", "s", "lower", _EXEC),
    ("executor.slowest_cell_s", "s", "lower", _EXEC),
    ("executor.utilization", "frac", "higher", _EXEC),
    ("executor.replay_s", "s", "lower",
     "warm replay from the result cache on sweep_p26909 (median of the "
     "untraced replays)"),
    ("circuits.generate.s", "s", "lower", "setup_s on every workload"),
    ("obs.traced_wall_s", "s", "lower", "traced twin of wall_s"),
    ("obs.trace_overhead_frac", "frac", "lower",
     "none; keeps the traced numbers honest"),
    ("obs.unattributed_frac", "frac", "lower",
     "none; share of the traced wall no layer span covers"),
)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _last_per_cell(spans: Iterable[Span]) -> Dict[str, Span]:
    """The last span per cell (the flow's final route report)."""
    out: Dict[str, Span] = {}
    for s in sorted(spans, key=lambda s: s.end):
        out[s.cell] = s
    return out


def layer_metrics(spans: List[Span], window: Tuple[float, float],
                  jobs: int, stage_seconds: Dict[str, float],
                  untraced_wall: float,
                  replay_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced workload call.

    Args:
        spans: Spans of the traced call (parent and workers).
        window: ``(start, end)`` of the traced call.
        jobs: Worker processes of the call.
        stage_seconds: Summed ``stage_seconds`` of the call's cells.
        untraced_wall: ``wall_s`` of the same run with tracing off.
        replay_s: Median untraced warm-replay seconds of the run.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(selfs[s.sid] for s in named(name))

    m: Dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "s":
            m[name] = self_s(span)
        elif kind == "calls":
            m[name] = float(len(named(span)))

    cells = {s.sid: s for s in named(CELL)}
    atpg_runs = named("atpg.run")
    m["atpg.run_s"] = sum(s.dur for s in atpg_runs)
    for pct in (0, 5):
        m[f"atpg.run_s.tp{pct}"] = sum(
            s.dur for s in atpg_runs
            if s.cell in cells
            and cells[s.cell].attrs.get("tp_percent") == float(pct)
        )
    podem = named("atpg.podem")
    call_ms = [s.dur * 1e3 for s in podem]
    m["atpg.podem.call_ms.p50"] = _percentile(call_ms, 0.50)
    m["atpg.podem.call_ms.p99"] = _percentile(call_ms, 0.99)
    m["atpg.podem.call_samples"] = float(len(call_ms))
    m["atpg.podem.backtracks"] = float(
        sum(s.attrs.get("backtracks", 0) for s in podem))
    m["atpg.podem.aborted"] = float(
        sum(1 for s in podem if s.attrs.get("status") == "aborted"))
    detected = sum(1 for s in podem if s.attrs.get("status") == "detected")
    m["atpg.podem.detected_frac"] = detected / len(podem) if podem else 0.0
    m["atpg.fsim.blocks"] = float(len(named("atpg.fsim")))
    m["atpg.patterns"] = float(
        sum(s.attrs.get("patterns", 0) for s in atpg_runs))

    tpi = named("tpi.insert")
    m["tpi.tsff"] = float(sum(s.attrs.get("tsff", 0) for s in tpi))
    m["tpi.s_per_tsff"] = (sum(s.dur for s in tpi) / m["tpi.tsff"]
                           if m["tpi.tsff"] else 0.0)

    final_route = _last_per_cell(named("layout.route_all")
                                 + named("layout.reroute"))
    m["layout.route.nets"] = float(
        sum(s.attrs.get("nets", 0) for s in named("layout.route_all"))
        + sum(s.attrs.get("nets", 0) for s in named("layout.reroute")))
    m["layout.route.overflowed_edges"] = float(
        sum(s.attrs.get("overflowed_edges", 0)
            for s in final_route.values()))
    m["layout.route.wirelength_um"] = float(
        sum(s.attrs.get("wirelength_um", 0.0)
            for s in final_route.values()))
    m["extraction.nets"] = float(
        sum(s.attrs.get("nets", 0) for s in named("extraction.full")))

    for key in STAGE_KEYS:
        m[f"flow.stage_s.{key}"] = stage_seconds.get(key, 0.0)

    start, end = window
    wall = end - start
    busy = [s.dur for s in cells.values()]
    m["executor.cache.hits"] = float(
        sum(1 for s in named("executor.cache.get") if s.attrs.get("hit")))
    m["executor.cell_busy_s"] = sum(busy)
    m["executor.slowest_cell_s"] = max(busy, default=0.0)
    m["executor.utilization"] = (sum(busy) / (jobs * wall)
                                 if wall > 0 else 0.0)
    m["executor.replay_s"] = replay_s

    layer_spans = [s for s in spans if s.name not in (ROOT, CELL)]
    m["obs.traced_wall_s"] = wall
    m["obs.trace_overhead_frac"] = (wall / untraced_wall - 1.0
                                    if untraced_wall > 0 else 0.0)
    m["obs.unattributed_frac"] = (
        1.0 - covered_seconds(layer_spans, start, end) / wall
        if wall > 0 else 0.0)
    return m


def layer_shares(spans: List[Span]) -> Dict[str, float]:
    """Share of cell time per top-level layer (inclusive seconds).

    Each span directly under a flow cell is charged, with everything
    nested in it, to its module prefix (``tpi``, ``atpg``, ``layout``
    ...).  The shares locate the workload's dominant layer.
    """
    cells = {s.sid for s in spans if s.name == CELL}
    totals: Dict[str, float] = {}
    for s in spans:
        if s.parent in cells:
            layer = s.name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + s.dur
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items())} if whole \
        else {}


def dominant(shares: Dict[str, float]) -> Optional[str]:
    return max(shares, key=shares.get) if shares else None
