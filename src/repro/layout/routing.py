"""Congestion-aware global routing.

The router works on a grid of gcells over the core (plus the ring area,
which the paper notes is exploited for routing when the chip is forced
square).  Every net is decomposed into a rectilinear spanning tree
(Prim MST over its pins); each tree edge is embedded as an L-shape (or,
when both Ls are congested, the better Z-shape), and demand is recorded
against per-direction edge capacities derived from the metal stack's
track pitches and signal fractions.

Layer assignment is length-based: short connections ride the thin lower
signal pair (M2/M3), long connections the faster M4/M5 pair — giving
the RC extractor per-segment layers without detailed track assignment.

Outputs per net: the routed segments with layers and the total
wirelength; globally: total wirelength (Table 2's L_wires) and a
congestion summary (the reason p26909 runs at 50% utilisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import obs
from repro.library.cell import ROW_HEIGHT_UM
from repro.library.layers import MetalLayer, metal_stack_130nm, signal_layers
from repro.layout.geometry import Point, manhattan
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT

#: Edge length of one gcell, in um (four rows tall).
GCELL_UM = 4 * ROW_HEIGHT_UM

#: Segments at or below this length route on the lower metal pair.
LOWER_LAYER_LIMIT_UM = 60.0


@dataclass(frozen=True)
class RouteSegment:
    """One rectilinear routed segment.

    Attributes:
        x0, y0, x1, y1: Endpoints in um (axis-aligned).
        layer: Metal layer index (1-based).
    """

    x0: float
    y0: float
    x1: float
    y1: float
    layer: int

    @property
    def length_um(self) -> float:
        """Segment length."""
        return abs(self.x1 - self.x0) + abs(self.y1 - self.y0)

    @property
    def horizontal(self) -> bool:
        """True for horizontal segments."""
        return self.y0 == self.y1


@dataclass
class RoutedNet:
    """Routing result for one net.

    Attributes:
        net: Net name.
        segments: Routed segments.
        wirelength_um: Total routed length.
    """

    net: str
    segments: List[RouteSegment] = field(default_factory=list)
    wirelength_um: float = 0.0


@dataclass
class CongestionReport:
    """Summary of routing congestion.

    Attributes:
        max_utilization: Worst edge demand / capacity.
        mean_utilization: Average over used edges.
        overflowed_edges: Edges above capacity after rip-up.
        total_wirelength_um: Sum over all nets (Table 2's L_wires).
    """

    max_utilization: float
    mean_utilization: float
    overflowed_edges: int
    total_wirelength_um: float


class GlobalRouter:
    """Grid-based global router for one placement.

    Args:
        circuit: Netlist to route.
        placement: Legalised placement (positions per instance).
        stack: Metal stack (defaults to the 130 nm six-layer stack).
    """

    def __init__(self, circuit: Circuit, placement: Placement,
                 stack: Optional[List[MetalLayer]] = None):
        self.circuit = circuit
        self.placement = placement
        self.plan = placement.plan
        self.stack = stack or metal_stack_130nm()

        chip = self.plan.chip
        self.nx = max(1, int(math.ceil(chip.width / GCELL_UM)))
        self.ny = max(1, int(math.ceil(chip.height / GCELL_UM)))

        # Capacity per gcell edge, by direction.
        cap_h = cap_v = 0.0
        for layer in signal_layers(self.stack):
            tracks = GCELL_UM / layer.pitch_um * layer.signal_fraction
            if layer.direction == "H":
                cap_h += tracks
            else:
                cap_v += tracks
        self.cap_h = max(1.0, cap_h)
        self.cap_v = max(1.0, cap_v)
        # Demand maps keyed by (gx, gy) of the edge's lower-left gcell.
        self.use_h: Dict[Tuple[int, int], float] = {}
        self.use_v: Dict[Tuple[int, int], float] = {}
        self.routed: Dict[str, RoutedNet] = {}
        #: Nets whose routes the last :meth:`reroute` replaced: the
        #: requested nets plus the overflow victims its rip-up moved.
        self.rerouted: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    def _gcell(self, point: Point) -> Tuple[int, int]:
        gx = min(self.nx - 1, max(0, int(point[0] / GCELL_UM)))
        gy = min(self.ny - 1, max(0, int(point[1] / GCELL_UM)))
        return gx, gy

    def _pin_points(self, net_name: str) -> List[Point]:
        net = self.circuit.nets[net_name]
        refs = list(net.sinks)
        if net.driver is not None:
            refs.append(net.driver)
        points = []
        for inst, pin in refs:
            if inst == PORT:
                pos = self.plan.pad_positions.get(pin)
            else:
                pos = self.placement.positions.get(inst)
            if pos is not None:
                points.append(pos)
        return points

    # ------------------------------------------------------------------
    def route_all(self, rip_up_passes: int = 1) -> CongestionReport:
        """Route every net; returns the final congestion summary."""
        with obs.span("global_route") as sp:
            net_names = sorted(self.circuit.nets)
            for name in net_names:
                self._route_net(name)
            sp.counter("nets_routed", len(net_names))
            for _ in range(rip_up_passes):
                victims = self._overflowed_nets()
                if not victims:
                    break
                sp.counter("ripup_iterations")
                sp.counter("ripped_nets", len(victims))
                for name in victims:
                    self._unroute(name)
                # Re-route congested nets last, against the updated map.
                for name in victims:
                    self._route_net(name)
            report = self.report()
            sp.gauge("overflowed_edges", report.overflowed_edges)
            sp.gauge("max_utilization", report.max_utilization)
            return report

    def reroute(self, nets: Iterable[str],
                rip_up_passes: int = 1) -> CongestionReport:
        """Rip up and re-route only ``nets`` against the standing map.

        Stale demand of the listed nets (and of nets that no longer
        exist in the circuit) is released first, then each listed net
        is re-routed in sorted order — the same deterministic order
        :meth:`route_all` uses — against the congestion left by every
        untouched net.  A final rip-up pass repairs any overflow the
        new routes introduced; it may move nets outside ``nets``, so
        :attr:`rerouted` lists every net whose route changed.

        Args:
            nets: Net names to re-route (typically the circuit's dirty
                set); unknown names are ignored.
            rip_up_passes: Overflow-repair passes after re-routing.

        Returns:
            Congestion summary over the whole design.
        """
        with obs.span("global_reroute") as sp:
            for name in [
                n for n in self.routed if n not in self.circuit.nets
            ]:
                self._unroute(name)
            todo = sorted(n for n in nets if n in self.circuit.nets)
            for name in todo:
                self._unroute(name)
            for name in todo:
                self._route_net(name)
            sp.counter("rerouted_nets", len(todo))
            moved = set(todo)
            for _ in range(rip_up_passes):
                victims = self._overflowed_nets()
                if not victims:
                    break
                sp.counter("ripup_iterations")
                sp.counter("ripped_nets", len(victims))
                for name in victims:
                    self._unroute(name)
                for name in victims:
                    self._route_net(name)
                moved.update(victims)
            self.rerouted = frozenset(moved)
            report = self.report()
            sp.gauge("overflowed_edges", report.overflowed_edges)
            sp.gauge("max_utilization", report.max_utilization)
            return report

    def _route_net(self, net_name: str) -> None:
        points = self._pin_points(net_name)
        routed = RoutedNet(net=net_name)
        self.routed[net_name] = routed
        if len(points) < 2:
            return
        # Prim MST over Manhattan distance.
        in_tree = [0]
        edges: List[Tuple[Point, Point]] = []
        best: List[Tuple[float, int]] = [
            (manhattan(points[0], p), 0) for p in points
        ]
        remaining = set(range(1, len(points)))
        while remaining:
            nxt = min(remaining, key=lambda i: best[i][0])
            parent = best[nxt][1]
            edges.append((points[parent], points[nxt]))
            remaining.discard(nxt)
            for i in remaining:
                d = manhattan(points[nxt], p := points[i])
                if d < best[i][0]:
                    best[i] = (d, nxt)
        for a, b in edges:
            self._route_edge(routed, a, b)
        routed.wirelength_um = sum(s.length_um for s in routed.segments)

    def _route_edge(self, routed: RoutedNet, a: Point, b: Point) -> None:
        """Embed one tree edge as the cheapest L- or Z-shape.

        Both L-shapes are always evaluated; when the better L crosses
        an overflowed edge, the two mid-point Z-shapes join the
        contest, which is what gives the rip-up pass room to move nets
        out of hot spots.
        """
        if a == b:
            return
        candidates: List[List[Point]] = [
            [a, (b[0], a[1]), b],
            [a, (a[0], b[1]), b],
        ]
        costs = [self._route_cost(path) for path in candidates]
        best = min(costs)
        detour_threshold = manhattan(a, b) / GCELL_UM + 1e-9
        if best > detour_threshold and a[0] != b[0] and a[1] != b[1]:
            mx = (a[0] + b[0]) / 2.0
            my = (a[1] + b[1]) / 2.0
            candidates.append([a, (mx, a[1]), (mx, b[1]), b])
            candidates.append([a, (a[0], my), (b[0], my), b])
            costs += [self._route_cost(p) for p in candidates[2:]]
        path = candidates[costs.index(min(costs))]
        for p, q in zip(path, path[1:]):
            if p == q:
                continue
            seg = self._make_segment(p, q)
            routed.segments.append(seg)
            self._record(seg, +1.0)

    def _route_cost(self, path: List[Point]) -> float:
        """Congestion-aware cost of a rectilinear point sequence."""
        return sum(
            self._path_cost(p, q) for p, q in zip(path, path[1:])
            if p != q
        )

    def _make_segment(self, p: Point, q: Point) -> RouteSegment:
        length = manhattan(p, q)
        horizontal = p[1] == q[1]
        if length <= LOWER_LAYER_LIMIT_UM:
            layer = 3 if horizontal else 2
        else:
            layer = 5 if horizontal else 4
        return RouteSegment(p[0], p[1], q[0], q[1], layer)

    # -- congestion accounting ------------------------------------------
    def _edge_cells(self, seg_or_pq) -> Iterable[Tuple[str, Tuple[int, int]]]:
        """Grid edges crossed by a straight segment."""
        if isinstance(seg_or_pq, RouteSegment):
            p = (seg_or_pq.x0, seg_or_pq.y0)
            q = (seg_or_pq.x1, seg_or_pq.y1)
        else:
            p, q = seg_or_pq
        (gx0, gy0), (gx1, gy1) = self._gcell(p), self._gcell(q)
        if gy0 == gy1:
            lo, hi = sorted((gx0, gx1))
            for gx in range(lo, hi):
                yield "h", (gx, gy0)
        elif gx0 == gx1:
            lo, hi = sorted((gy0, gy1))
            for gy in range(lo, hi):
                yield "v", (gx0, gy)

    def _record(self, seg: RouteSegment, delta: float) -> None:
        for kind, key in self._edge_cells(seg):
            store = self.use_h if kind == "h" else self.use_v
            store[key] = store.get(key, 0.0) + delta

    def _path_cost(self, p: Point, q: Point) -> float:
        """Congestion-aware cost of a straight run from ``p`` to ``q``."""
        cost = manhattan(p, q) / GCELL_UM
        for kind, key in self._edge_cells((p, q)):
            store, cap = (
                (self.use_h, self.cap_h) if kind == "h"
                else (self.use_v, self.cap_v)
            )
            over = (store.get(key, 0.0) + 1.0) / cap
            if over > 1.0:
                cost += 8.0 * (over - 1.0)
        return cost

    def _unroute(self, net_name: str) -> None:
        routed = self.routed.pop(net_name, None)
        if routed is None:
            return
        for seg in routed.segments:
            self._record(seg, -1.0)

    def _overflowed_nets(self) -> List[str]:
        """Nets crossing at least one over-capacity edge."""
        bad_h = {
            key for key, use in self.use_h.items() if use > self.cap_h
        }
        bad_v = {
            key for key, use in self.use_v.items() if use > self.cap_v
        }
        if not bad_h and not bad_v:
            return []
        victims = []
        for name, routed in self.routed.items():
            for seg in routed.segments:
                hit = False
                for kind, key in self._edge_cells(seg):
                    if (kind == "h" and key in bad_h) or (
                        kind == "v" and key in bad_v
                    ):
                        victims.append(name)
                        hit = True
                        break
                if hit:
                    break
        return victims

    # ------------------------------------------------------------------
    def report(self) -> CongestionReport:
        """Current congestion summary."""
        utils = [u / self.cap_h for u in self.use_h.values()]
        utils += [u / self.cap_v for u in self.use_v.values()]
        overflow = sum(1 for u in utils if u > 1.0)
        # Sum in sorted-name order so the float total is independent
        # of dict insertion order (route_all vs. later reroute calls).
        total = sum(
            self.routed[name].wirelength_um for name in sorted(self.routed)
        )
        return CongestionReport(
            max_utilization=max(utils) if utils else 0.0,
            mean_utilization=(sum(utils) / len(utils)) if utils else 0.0,
            overflowed_edges=overflow,
            total_wirelength_um=total,
        )
