"""PODEM deterministic test-pattern generation.

Classic PODEM (Goel) over the test-mode combinational view: objectives
are justified by backtracing to primary/pseudo-primary inputs only,
with five-valued reasoning carried as a good and a faulty three-valued
machine packed into one pair code per net.  The search is confined to
the fault's *region* — the forward cone of the fault site plus the
backward support of that cone — and implication evaluates compiled,
table-driven node functions over one flat value array (see
:mod:`repro.atpg.threeval`), both machines in one call.

Each decision does only the work the search needs:

* The region of a fault site is computed once per engine and cached
  as compact int arrays (stuck values, stem/branch faults and restarts
  of a site share it); search-time membership uses a reusable stamp
  array instead of per-site sets.
* Outside the site's forward cone the two machines agree, so one pair
  evaluation serves both.  The stem-faulted net's driver and the
  branch-faulted node (its pin forced to the stuck value) are bound to
  their own functions for the duration of the fault, so the generic
  path carries no per-node fault tests.
* The D-frontier (the bookkeeping of Fujiwara and Shimono's FAN) is
  derived from the set of D-carrying nets, which implication and undo
  maintain incrementally on the shared trail, instead of rescanning
  the region per decision.
* Backtrace runs a per-node compiled step instead of interpreting the
  cell's expression tree.

The search order is that of the plain interpretive formulation, so
every :class:`TestCube` (status, assignment, backtracks, restarts) is
unchanged by these shortcuts.

Outcomes per fault: a test cube (partial input assignment guaranteed to
detect the fault under any fill), a redundancy proof (search space
exhausted), or an abort (backtrack limit), mirroring the detected /
redundant / aborted classification behind the paper's fault-efficiency
numbers.
"""

from __future__ import annotations

import heapq
import random
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro import obs
from repro.atpg.faults import Fault
from repro.atpg.threeval import (
    ONE,
    X,
    ZERO,
    compile_pair,
    encode,
    pair_code,
)
from repro.library.logic import And, Const, LogicExpr, Mux, Not, Or, Var, Xor
from repro.netlist.levelize import CombView
from repro.netlist.net import PORT, PinRef
from repro.testability.scoap import ScoapResult

#: Pair-code predicates (good code in bits 0-1, faulty in bits 2-3):
#: a D or D-bar; both machines resolved; resolved to the same value.
_IS_D = bytes(c in (pair_code(ONE, ZERO), pair_code(ZERO, ONE))
              for c in range(16))
_RESOLVED = bytes(bool(c & 3 and c & 12) for c in range(16))
_BLOCKED = bytes(c in (pair_code(ONE, ONE), pair_code(ZERO, ZERO))
                 for c in range(16))

#: Decoded three-valued code (X -> None), indexed by the encoding.
_DECODE = (None, 1, 0)

#: Upper bound on node positions held by one engine's region cache;
#: the cache is dropped when it would grow past it.
REGION_CACHE_ENTRIES = 4_000_000

#: A compiled backtrace step: ``(values, target, rng) -> (net, target)``
#: or ``None`` when the objective cannot be justified through the node;
#: ``rng`` breaks ties on restarts and is None on the first search.
BacktraceStep = Callable[[bytearray, int, Optional[random.Random]],
                         Optional[Tuple[int, int]]]


@dataclass
class TestCube:
    """Result of one PODEM run.

    Attributes:
        status: ``"detected"``, ``"redundant"`` or ``"aborted"``.
        assignment: Input-net assignment (only for detected faults);
            unassigned inputs may be filled arbitrarily.
        backtracks: Number of backtracks spent.
        restarts: Number of search restarts consumed (1 = the first,
            fully deterministic search sufficed).
    """

    status: str
    assignment: Dict[str, int]
    backtracks: int = 0
    restarts: int = 0


class _Region(NamedTuple):
    """Cached region of one fault site, as compact int arrays.

    Attributes:
        nodes: Region node positions in level order (the order the
            frontier is listed in).
        forward_nets: The site and the nets its forward cone drives
            (the only nets that can carry a D).
    """

    nodes: array
    forward_nets: array


class _FaultState:
    """Implication state of one fault, shared by its restarts.

    ``values`` holds a pair code per net, ``trail`` every value change
    since the base implication as ``net << 4 | old_code``, ``dnets``
    the nets currently carrying a D or D-bar, and ``bound`` the node
    functions replaced for this fault (restored when ``generate``
    returns).
    """

    __slots__ = ("site", "stuck", "stem", "branch_observed", "branch_pos",
                 "branch_pin", "base", "values", "trail", "dnets", "bound",
                 "decisions", "evals")

    def __init__(self, site: int, stuck: int, stem: bool,
                 branch_observed: bool, branch_pos: Optional[int],
                 branch_pin: Optional[str]):
        self.site = site
        self.stuck = stuck
        self.stem = stem
        self.branch_observed = branch_observed
        self.branch_pos = branch_pos
        self.branch_pin = branch_pin
        self.base = 0
        self.values = bytearray()
        self.trail: List[int] = []
        self.dnets: Set[int] = set()
        self.bound: List[Tuple[int, Callable]] = []
        self.decisions = 0
        self.evals = 0


class PodemEngine:
    """PODEM test generator bound to one combinational view.

    Chronological backtracking alone locks into failing subspaces on
    reconvergent logic, so the per-fault budget is split across several
    *restarts*: the first runs the deterministic SCOAP-guided
    heuristics, later ones randomise frontier and backtrace
    tie-breaking.  Restarts recover most would-be aborts at a fraction
    of the cost of a deep single search.

    Args:
        view: Test-mode combinational view.
        scoap: SCOAP measures used as backtrace guidance (computed on
            demand when omitted).
        backtrack_limit: Total backtrack budget per fault.
        restarts: Number of search restarts sharing the budget.
    """

    def __init__(self, view: CombView, scoap: Optional[ScoapResult] = None,
                 backtrack_limit: int = 64, restarts: int = 4):
        self.view = view
        self.backtrack_limit = backtrack_limit
        self.restarts = max(1, restarts)
        self._rng = random.Random(0xDF7)
        self._rand_active = False
        if scoap is None:
            from repro.testability.scoap import compute_scoap
            scoap = compute_scoap(view)
        self.scoap = scoap

        # Net index space.
        self.nidx: Dict[str, int] = {}
        for net in view.input_nets:
            self.nidx.setdefault(net, len(self.nidx))
        for net in view.constants:
            self.nidx.setdefault(net, len(self.nidx))
        for node in view.nodes:
            self.nidx.setdefault(node.out_net, len(self.nidx))
        self.n_nets = len(self.nidx)
        self.names: List[str] = [""] * self.n_nets
        for net, i in self.nidx.items():
            self.names[i] = net

        # Per-node compiled data, aligned with view.nodes order (level
        # order, so position order is a topological order).
        self.nodes = view.nodes
        n_nodes = len(view.nodes)
        self.node_out: List[int] = []
        self.node_fn: List[Callable] = []
        self.node_level: List[int] = []
        #: Distinct input nets per node, first-seen pin order (the
        #: region walk's order).
        self.node_fanin: List[Tuple[int, ...]] = []
        #: ``(pin, net, constant?)`` per pin, in pin order.
        self.node_pins: List[Tuple[Tuple[str, int, bool], ...]] = []
        self.pos_of_net: List[int] = [-1] * self.n_nets
        readers: List[List[int]] = [[] for _ in range(self.n_nets)]
        constants = view.constants
        for pos, node in enumerate(view.nodes):
            out = self.nidx[node.out_net]
            self.node_out.append(out)
            self.node_level.append(node.level)
            self.pos_of_net[out] = pos
            pin_index = {
                pin: self.nidx[net] for pin, net in node.pin_nets.items()
            }
            self.node_fn.append(compile_pair(
                node.expr, {pin: f"v[{i}]" for pin, i in pin_index.items()}
            ))
            self.node_fanin.append(tuple(
                self.nidx[net] for net in dict.fromkeys(node.pin_nets.values())
            ))
            self.node_pins.append(tuple(
                (pin, pin_index[pin], net in constants)
                for pin, net in node.pin_nets.items()
            ))
            for idx in dict.fromkeys(pin_index.values()):
                readers[idx].append(pos)
        self.readers: List[Tuple[int, ...]] = [tuple(r) for r in readers]

        self.is_input = bytearray(self.n_nets)
        for net in view.input_nets:
            self.is_input[self.nidx[net]] = 1
        self.is_obs = bytearray(self.n_nets)
        for net in view.output_nets:
            if net in self.nidx:
                self.is_obs[self.nidx[net]] = 1
        self.observable_sinks = set(view.output_refs)

        # SCOAP guidance, indexed by net / node position.
        self.cc0 = [scoap.cc0.get(net, 1e18) for net in self.names]
        self.cc1 = [scoap.cc1.get(net, 1e18) for net in self.names]
        self.node_co = [scoap.co.get(node.out_net, 1e18)
                        for node in view.nodes]

        # Template value array with constants pre-applied.
        self._template = bytearray(self.n_nets)
        for net, value in view.constants.items():
            code = encode(value)
            self._template[self.nidx[net]] = pair_code(code, code)

        # Region cache and the reusable region stamp: node ``pos`` is
        # in the current region iff ``_mark[pos] >= state.base``, and
        # marks rise in region order.
        self._regions: Dict[int, _Region] = {}
        self._region_entries = 0
        self._mark = [-1] * n_nodes
        self._next_base = 0
        self._backtrace_steps: List[Optional[BacktraceStep]] = (
            [None] * n_nodes
        )
        self._branch_nodes: Dict[Tuple[int, PinRef], int] = {}

    # ------------------------------------------------------------------
    # Region extraction
    # ------------------------------------------------------------------
    def _region(self, site: int) -> Tuple[_Region, bool]:
        """Cached region of ``site``; the flag tells a cache hit."""
        entry = self._regions.get(site)
        if entry is not None:
            return entry, True
        node_out = self.node_out
        readers = self.readers
        forward_nets: Set[int] = {site}
        stack = [site]
        while stack:
            idx = stack.pop()
            for pos in readers[idx]:
                out = node_out[pos]
                if out not in forward_nets:
                    forward_nets.add(out)
                    stack.append(out)
        positions: Set[int] = set()
        stack = list(forward_nets)
        seen = set(stack)
        pos_of_net = self.pos_of_net
        node_fanin = self.node_fanin
        while stack:
            pos = pos_of_net[stack.pop()]
            if pos < 0 or pos in positions:
                continue
            positions.add(pos)
            for pidx in node_fanin[pos]:
                if pidx not in seen:
                    seen.add(pidx)
                    stack.append(pidx)
        entry = _Region(
            nodes=array("i", sorted(positions,
                                    key=self.node_level.__getitem__)),
            forward_nets=array("i", forward_nets),
        )
        size = len(entry.nodes) + len(entry.forward_nets)
        if self._region_entries + size > REGION_CACHE_ENTRIES:
            self._regions.clear()
            self._region_entries = 0
        self._regions[site] = entry
        self._region_entries += size
        return entry, False

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def generate(self, fault: Fault,
                 fixed: Optional[Dict[str, int]] = None,
                 restarts: Optional[int] = None,
                 backtrack_limit: Optional[int] = None) -> TestCube:
        """Attempt to generate a test for ``fault``.

        Runs up to :attr:`restarts` searches; the first is fully
        deterministic, later ones randomise tie-breaking.  A redundancy
        proof from any restart is final (the search space, not the
        heuristics, was exhausted).

        Args:
            fault: Target fault.
            fixed: Input-net values that must be respected (dynamic
                compaction onto an existing test cube).  When the
                search space is exhausted *under constraints* the
                status is ``"incompatible"`` rather than
                ``"redundant"`` — the fault may still be testable on a
                fresh pattern.
            restarts: Override the engine's restart count.
            backtrack_limit: Override the engine's backtrack budget.
        """
        n_restarts = max(1, restarts if restarts is not None
                         else self.restarts)
        limit = (
            backtrack_limit if backtrack_limit is not None
            else self.backtrack_limit
        )
        budget = max(1, limit // n_restarts)
        state, cache_hit = self._prepare(fault, fixed)
        result = TestCube(status="aborted", assignment={},
                          restarts=n_restarts)
        if state is not None:
            try:
                spent = 0
                for attempt in range(n_restarts):
                    self._rand_active = attempt > 0
                    # Stable per-(fault, attempt) seed: ``hash()`` on
                    # strings is randomised per process (PYTHONHASHSEED),
                    # which would make pool workers diverge from a
                    # serial run bit for bit.
                    self._rng.seed(zlib.crc32(repr(
                        (fault.net, fault.sink, fault.value, attempt)
                    ).encode("utf-8")))
                    result = self._search(state, budget)
                    spent += result.backtracks
                    result.backtracks = spent
                    result.restarts = attempt + 1
                    if result.status in ("detected", "redundant"):
                        if result.status == "redundant" and fixed:
                            result.status = "incompatible"
                        break
            finally:
                for pos, fn in state.bound:
                    self.node_fn[pos] = fn
        # One emission per call keeps the disabled tracer's cost flat.
        obs.counter("podem.decisions", state.decisions if state else 0)
        obs.counter("podem.implications", state.evals if state else 0)
        obs.counter("podem.region_cache_hits", 1 if cache_hit else 0)
        obs.counter("podem.region_cache_misses",
                    1 if cache_hit is False else 0)
        return result

    def _prepare(self, fault: Fault, fixed: Optional[Dict[str, int]]
                 ) -> Tuple[Optional[_FaultState], Optional[bool]]:
        """Bind ``fault`` and run the base implication of its region.

        Returns the fault state (None when the fault is outside the
        view) and whether the region came from the cache (None when no
        region was needed).  The caller restores ``state.bound``.
        """
        site = self.nidx.get(fault.net)
        if site is None:
            return None, None
        stem = fault.sink is None
        branch_observed = fault.sink is not None and (
            (fault.net, fault.sink) in self.observable_sinks
            or fault.sink[0] == PORT
        )
        branch_pos: Optional[int] = None
        branch_pin: Optional[str] = None
        if fault.sink is not None and not branch_observed:
            branch_pos = self._branch_node(site, fault.sink)
            if branch_pos < 0:
                return None, None
            branch_pin = fault.sink[1]
        region, cache_hit = self._region(site)
        stuck = encode(fault.value)
        st = _FaultState(site, stuck, stem, branch_observed, branch_pos,
                         branch_pin)

        # Stamp the region with marks rising in region order.
        base = st.base = self._next_base
        mark = self._mark
        for i, pos in enumerate(region.nodes, base):
            mark[pos] = i
        self._next_base = base + len(region.nodes)

        # Bind the fault's special nodes to their own functions.
        fns = self.node_fn
        driver = self.pos_of_net[site]
        if stem and driver >= 0:
            good = fns[driver]
            st.bound.append((driver, good))
            fns[driver] = (lambda v, _good=good, _stuck=stuck << 2:
                           (_good(v) & 3) | _stuck)
        if branch_pos is not None:
            st.bound.append((branch_pos, fns[branch_pos]))
            fns[branch_pos] = self._branch_fn(branch_pos, branch_pin, stuck)

        v = st.values = bytearray(self._template)
        if fixed:
            for net, value in fixed.items():
                idx = self.nidx.get(net)
                if idx is None:
                    continue
                enc = ONE if value else ZERO
                v[idx] = pair_code(enc, enc)
        if stem:
            # The faulty machine sees the stuck value regardless of what
            # (if anything) the good machine drives there.
            v[site] = pair_code(v[site] & 3, stuck)

        # Base implication over the whole region (constants resolve).
        node_out = self.node_out
        for pos in region.nodes:
            v[node_out[pos]] = fns[pos](v)
        st.evals = len(region.nodes)
        st.dnets.update(idx for idx in region.forward_nets if _IS_D[v[idx]])
        return st, cache_hit

    def _branch_node(self, site: int, sink: PinRef) -> int:
        """Position of the node reading net ``site`` at ``sink`` (the
        first, for a multi-output cell), or -1; cached per branch."""
        key = (site, sink)
        pos = self._branch_nodes.get(key)
        if pos is None:
            inst, pin = sink
            net = self.names[site]
            pos = self._branch_nodes[key] = next(
                (p for p in self.readers[site]
                 if self.nodes[p].inst.name == inst
                 and self.nodes[p].pin_nets.get(pin) == net), -1)
        return pos

    def _branch_fn(self, pos: int, pin: str, stuck: int) -> Callable:
        """Node ``pos`` with the faulty machine's ``pin`` at ``stuck``."""
        node = self.nodes[pos]
        net = node.pin_nets[pin]
        if list(node.pin_nets.values()).count(net) > 1:
            # The net feeds another pin of the node too: only the
            # faulted pin may see the stuck value, so compile it in.
            code = {p: f"v[{self.nidx[n]}]"
                    for p, n in node.pin_nets.items()}
            code[pin] = f"(({code[pin]})&3|{stuck << 2})"
            return compile_pair(node.expr, code)
        fn = self.node_fn[pos]
        idx = self.nidx[net]
        forced = stuck << 2

        def branch(v):
            code = v[idx]
            v[idx] = (code & 3) | forced
            out = fn(v)
            v[idx] = code
            return out

        return branch

    def _search(self, st: _FaultState, backtrack_budget: int) -> TestCube:
        """One PODEM search with the current heuristic mode.

        Implication is incremental: assignments propagate event-driven
        through the fault region, every value change is recorded on the
        trail (which also keeps ``st.dnets`` current), and backtracking
        unwinds the trail to the decision's mark (DPLL-style), so each
        decision costs only its own cone instead of a full region
        recompute.  The search leaves the base state behind for the
        next restart.
        """
        v, trail, dnets = st.values, st.trail, st.dnets
        site, stuck, stem = st.site, st.stuck, st.stem
        branch_observed, base = st.branch_observed, st.base
        fns = self.node_fn
        node_out = self.node_out
        readers = self.readers
        is_obs = self.is_obs
        mark = self._mark
        heappush = heapq.heappush
        heappop = heapq.heappop
        is_d = _IS_D
        resolved = _RESOLVED
        evals = 0

        def propagate(start: int) -> None:
            nonlocal evals
            # Position order is topological, so a popped node is never
            # queued again within one propagation.  Implication only
            # refines X values, and three-valued functions are
            # monotone, so a node resolved in both machines keeps its
            # value and is not queued.
            heap = [pos for pos in readers[start]
                    if mark[pos] >= base and not resolved[v[node_out[pos]]]]
            queued = set(heap)
            while heap:
                pos = heappop(heap)
                out = node_out[pos]
                code = fns[pos](v)
                old = v[out]
                if code == old:
                    continue
                trail.append(out << 4 | old)
                v[out] = code
                if is_d[code]:
                    dnets.add(out)
                elif is_d[old]:
                    dnets.discard(out)
                for reader in readers[out]:
                    if (reader not in queued and mark[reader] >= base
                            and not resolved[v[node_out[reader]]]):
                        heappush(heap, reader)
                        queued.add(reader)
            evals += len(queued)

        def assign(idx: int, value: int) -> None:
            enc = ONE if value else ZERO
            code = pair_code(enc, stuck if (stem and idx == site) else enc)
            old = v[idx]
            trail.append(idx << 4 | old)
            v[idx] = code
            if is_d[code]:
                dnets.add(idx)
            elif is_d[old]:
                dnets.discard(idx)
            propagate(idx)

        def undo_to(depth: int) -> None:
            for entry in reversed(trail[depth:]):
                idx = entry >> 4
                if is_d[v[idx]]:
                    dnets.discard(idx)
                old = v[idx] = entry & 15
                if is_d[old]:
                    dnets.add(idx)
            del trail[depth:]

        # Decisions: [net_idx, value, flipped, trail_depth].
        decisions: List[List[int]] = []
        backtracks = 0
        n_decisions = 0
        try:
            while True:
                # Classify the state: conflict, detected, or go on.
                conflict = detected = False
                frontier: List[int] = []
                site_g = v[site] & 3
                if site_g == stuck:
                    conflict = True  # activation impossible on this path
                elif site_g != X and branch_observed:
                    detected = True
                elif any(is_obs[idx] for idx in dnets):
                    detected = True
                elif site_g != X:
                    frontier = self._d_frontier(st)
                    conflict = not frontier or not self._x_path(frontier, v)
                if detected:
                    names = self.names
                    return TestCube(
                        status="detected",
                        assignment={names[d[0]]: d[1] for d in decisions},
                        backtracks=backtracks,
                    )
                target: Optional[Tuple[int, int]] = None
                if not conflict:
                    if site_g == X:
                        objective = site, 0 if stuck == ONE else 1
                    else:
                        objective = self._objective(st, frontier)
                    if objective is None:
                        conflict = True
                    else:
                        target = self._backtrace(objective, v)
                        conflict = target is None
                if conflict:
                    while decisions and decisions[-1][2]:
                        undo_to(decisions.pop()[3])
                    if not decisions:
                        return TestCube(
                            status="redundant",
                            assignment={},
                            backtracks=backtracks,
                        )
                    backtracks += 1
                    if backtracks > backtrack_budget:
                        return TestCube(
                            status="aborted",
                            assignment={},
                            backtracks=backtracks,
                        )
                    last = decisions[-1]
                    undo_to(last[3])
                    last[1] ^= 1
                    last[2] = 1
                    assign(last[0], last[1])
                    continue
                idx, value = target
                decisions.append([idx, value, 0, len(trail)])
                n_decisions += 1
                assign(idx, value)
        finally:
            undo_to(0)
            st.decisions += n_decisions
            st.evals += evals

    # ------------------------------------------------------------------
    # Search-state classification
    # ------------------------------------------------------------------
    def _d_frontier(self, st: _FaultState) -> List[int]:
        """Node positions with a D input and an undetermined output.

        Only forward-cone nodes can read a D, so the frontier is the
        readers of the D-carrying nets, listed in region order.  For
        branch faults the D lives on the faulted *pin* rather than on
        any net, so the faulted node itself joins the frontier (the
        fault is activated whenever this is called) while its output is
        unresolved.
        """
        v = st.values
        node_out = self.node_out
        readers = self.readers
        members = {
            pos for idx in st.dnets for pos in readers[idx]
            if not _RESOLVED[v[node_out[pos]]]
        }
        pos = st.branch_pos
        if pos is not None and not _RESOLVED[v[node_out[pos]]]:
            members.add(pos)
        return sorted(members, key=self._mark.__getitem__)

    def _x_path(self, frontier: List[int], v: bytearray) -> bool:
        """True when some frontier node reaches an observable via X nets."""
        node_out = self.node_out
        readers = self.readers
        is_obs = self.is_obs
        seen: Set[int] = set()
        stack = [node_out[pos] for pos in frontier]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            if _BLOCKED[v[idx]]:
                continue  # resolved identically in both machines
            if is_obs[idx]:
                return True
            for pos in readers[idx]:
                out = node_out[pos]
                if out not in seen:
                    stack.append(out)
        return False

    # ------------------------------------------------------------------
    # Objective selection
    # ------------------------------------------------------------------
    def _objective(self, st: _FaultState, frontier: List[int]
                   ) -> Optional[Tuple[int, int]]:
        """Pick the next (net index, value) goal past the activated site."""
        frontier.sort(key=self.node_co.__getitem__)
        if self._rand_active and len(frontier) > 1:
            self._rng.shuffle(frontier)
        for pos in frontier:
            obj = self._propagation_objective(
                pos, st.values,
                st.branch_pin if pos == st.branch_pos else None,
            )
            if obj is not None:
                return obj
        return None

    def _propagation_objective(
        self, pos: int, v: bytearray, forced_pin: Optional[str] = None,
    ) -> Optional[Tuple[int, int]]:
        """Choose an X side-input value that un-blocks propagation.

        The branch-faulted node's function is bound with its faulted
        pin (``forced_pin``, never a choice) held at the stuck value.
        """
        x_pins = [
            idx for pin, idx, constant in self.node_pins[pos]
            if not v[idx] & 3 and not constant and pin != forced_pin
        ]
        if not x_pins:
            return None
        fn = self.node_fn[pos]

        # Look ahead: does assigning pin=v turn the output into a D?
        for idx in x_pins:
            old = v[idx]
            for enc in (ONE, ZERO):
                v[idx] = pair_code(enc, enc)
                code = fn(v)
                v[idx] = old
                if _IS_D[code]:
                    return idx, 1 if enc == ONE else 0
        # Fallback: drive the easiest X input to its easier value.
        cc0, cc1 = self.cc0, self.cc1
        idx = min(x_pins, key=lambda i: min(cc0[i], cc1[i]))
        return idx, 0 if cc0[idx] <= cc1[idx] else 1

    # ------------------------------------------------------------------
    # Backtrace
    # ------------------------------------------------------------------
    def _backtrace(self, objective: Tuple[int, int],
                   v: bytearray) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned input net."""
        idx, value = objective
        is_input = self.is_input
        pos_of_net = self.pos_of_net
        steps = self._backtrace_steps
        rng = self._rng if self._rand_active else None
        for _ in range(100000):
            if is_input[idx]:
                if v[idx] & 3:
                    return None  # already assigned: cannot justify
                return idx, value
            pos = pos_of_net[idx]
            if pos < 0:
                return None  # constant or unreachable net
            step = steps[pos]
            if step is None:
                node = self.nodes[pos]
                step = steps[pos] = self._compile_backtrace(
                    node.expr, node.pin_nets, 0)
            nxt = step(v, value, rng)
            if nxt is None:
                return None
            idx, value = nxt
        raise RuntimeError("backtrace did not terminate")

    def _compile_backtrace(self, expr: LogicExpr, pin_nets: Dict[str, str],
                           invert: int) -> BacktraceStep:
        """Compile the backtrace of ``expr`` for target ``value ^ invert``.

        The step picks an X pin (good machine) and the value justifying
        the target, as the PODEM backtrace does: AND/OR walk the
        hardest input for a non-controlled output and the easiest for a
        controlled one (SCOAP), XOR and MUX follow their decided inputs.
        Restarts pass their ``rng`` to break the AND/OR choice
        randomly.  ``Not`` folds into the inversion of its operand's
        step.
        """
        if isinstance(expr, Var):
            leaf = self.nidx[pin_nets[expr.pin]]
            return lambda v, value, rng: (leaf, value ^ invert)
        if isinstance(expr, Const):
            return lambda v, value, rng: None
        if isinstance(expr, Not):
            return self._compile_backtrace(expr.arg, pin_nets, invert ^ 1)
        if isinstance(expr, (And, Or)):
            return self._compile_and_or(expr, pin_nets, invert)
        if isinstance(expr, Xor):
            return self._compile_xor(expr, pin_nets, invert)
        if isinstance(expr, Mux):
            return self._compile_mux(expr, pin_nets, invert)
        raise TypeError(f"unsupported expression node {type(expr).__name__}")

    def _support(self, expr: LogicExpr,
                 pin_nets: Dict[str, str]) -> Tuple[int, ...]:
        return tuple(self.nidx[pin_nets[p]] for p in expr.support())

    def _good_fn(self, expr: LogicExpr, pin_nets: Dict[str, str]):
        """Good-machine three-valued value of a sub-expression."""
        if isinstance(expr, Var):
            return lambda v, _i=self.nidx[pin_nets[expr.pin]]: v[_i] & 3
        return compile_pair(
            expr, {p: f"v[{self.nidx[pin_nets[p]]}]" for p in expr.support()},
            good_only=True,
        )

    def _compile_and_or(self, expr, pin_nets, invert: int) -> BacktraceStep:
        is_and = isinstance(expr, And)
        controlling = 0 if is_and else 1
        free_out = 1 if is_and else 0
        # Per operand: (net, None, None) for a pin, (-1, support, step)
        # for an internal operator; and its SCOAP cost of the
        # non-controlling / controlling value (flat 1.0 for an
        # internal operator).
        kids = []
        cost_free = []
        cost_ctrl = []
        for arg in expr.args:
            if isinstance(arg, Var):
                net = pin_nets[arg.pin]
                kids.append((self.nidx[net], None, None))
                cost_free.append(self._cc_of(net, 1 - controlling))
                cost_ctrl.append(self._cc_of(net, controlling))
            else:
                kids.append((-1, self._support(arg, pin_nets),
                             self._compile_backtrace(arg, pin_nets, 0)))
                cost_free.append(1.0)
                cost_ctrl.append(1.0)
        # ``max``/``min`` pick the first best operand; scanning these
        # orders for the first X operand picks the same one.
        hardest_first = [kids[k] for k in sorted(
            range(len(kids)), key=lambda k: (-cost_free[k], k))]
        easiest_first = [kids[k] for k in sorted(
            range(len(kids)), key=lambda k: (cost_ctrl[k], k))]

        def step(v, value, rng):
            if value ^ invert == free_out:
                order, target = hardest_first, 1 - controlling
            else:
                order, target = easiest_first, controlling
            if rng is not None:
                xs = [kid for kid in kids if _has_x(v, kid)]
                if not xs:
                    return None
                leaf, _, sub = rng.choice(xs) if len(xs) > 1 else xs[0]
                return (leaf, target) if leaf >= 0 else sub(v, target, rng)
            for leaf, support, sub in order:
                if leaf >= 0:
                    if not v[leaf] & 3:
                        return leaf, target
                elif 0 in [v[i] & 3 for i in support]:
                    return sub(v, target, rng)
            return None

        return step

    def _compile_xor(self, expr, pin_nets, invert: int) -> BacktraceStep:
        sup_a = self._support(expr.a, pin_nets)
        sup_b = self._support(expr.b, pin_nets)
        val_a = self._good_fn(expr.a, pin_nets)
        val_b = self._good_fn(expr.b, pin_nets)
        step_a = self._compile_backtrace(expr.a, pin_nets, 0)
        step_b = self._compile_backtrace(expr.b, pin_nets, 0)

        def step(v, value, rng):
            value ^= invert
            a_x = 0 in [v[i] & 3 for i in sup_a]
            b_x = 0 in [v[i] & 3 for i in sup_b]
            a_val = _DECODE[val_a(v)]
            b_val = _DECODE[val_b(v)]
            if a_x and b_val is not None:
                return step_a(v, value ^ b_val, rng)
            if b_x and a_val is not None:
                return step_b(v, value ^ a_val, rng)
            if a_x:
                return step_a(v, value, rng)
            if b_x:
                return step_b(v, value, rng)
            return None

        return step

    def _compile_mux(self, expr, pin_nets, invert: int) -> BacktraceStep:
        sup_s = self._support(expr.sel, pin_nets)
        sup_a = self._support(expr.a, pin_nets)
        sup_b = self._support(expr.b, pin_nets)
        val_s = self._good_fn(expr.sel, pin_nets)
        val_a = self._good_fn(expr.a, pin_nets)
        val_b = self._good_fn(expr.b, pin_nets)
        step_s = self._compile_backtrace(expr.sel, pin_nets, 0)
        step_a = self._compile_backtrace(expr.a, pin_nets, 0)
        step_b = self._compile_backtrace(expr.b, pin_nets, 0)

        def step(v, value, rng):
            value ^= invert
            s_val = _DECODE[val_s(v)]
            if s_val is not None:
                return (step_b if s_val else step_a)(v, value, rng)
            a_val = _DECODE[val_a(v)]
            b_val = _DECODE[val_b(v)]
            s_x = 0 in [v[i] & 3 for i in sup_s]
            if a_val == value and s_x:
                return step_s(v, 0, rng)
            if b_val == value and s_x:
                return step_s(v, 1, rng)
            if 0 in [v[i] & 3 for i in sup_a]:
                return step_a(v, value, rng)
            if s_x:
                return step_s(v, 1, rng)
            if 0 in [v[i] & 3 for i in sup_b]:
                return step_b(v, value, rng)
            return None

        return step

    def _cc_of(self, net: str, value: int) -> float:
        table = self.scoap.cc1 if value else self.scoap.cc0
        return table.get(net, 1e18)


def _has_x(v: bytearray, kid) -> bool:
    """True when an AND/OR operand's good value is still X somewhere."""
    leaf, support, _ = kid
    if leaf >= 0:
        return not v[leaf] & 3
    return 0 in [v[i] & 3 for i in support]
