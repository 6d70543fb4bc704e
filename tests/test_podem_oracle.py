"""Independent oracle for PODEM verdicts.

Small random combinational circuits (at most 10 inputs, XOR/MUX and
complex cells, reconvergent fanout) are small enough to decide every
stem and branch fault's detectability by exhaustive simulation: the
:class:`BitSimulator` runs all ``2**n`` input patterns as one word per
net, and a plain full re-simulation with the fault injected gives the
exact set of detecting patterns.  Neither PODEM nor the PPSFP fault
simulator takes part in that decision.

Against it, PODEM must never call a detectable fault ``redundant``;
every ``detected`` cube must detect its fault under all-0, all-1 and
random fill; and ``incompatible`` appears only under ``fixed``
constraints, and then only when no pattern honouring them detects.

The last test plants a bug (the D-frontier loses its first node) and
checks that the oracle catches it on a fixed corpus.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg import BitSimulator, Fault, PodemEngine, build_fault_list
from repro.library import cmos130
from repro.netlist import Circuit, extract_comb_view
from repro.netlist.net import PORT

LIB = cmos130()

#: Cells the corpus draws from (single output pin ``Z``).
CELLS = (
    "INV_X1", "BUF_X1", "AND2_X1", "NAND2_X1", "NAND3_X1", "OR2_X1",
    "NOR2_X1", "NOR3_X1", "XOR2_X1", "XNOR2_X1", "MUX2_X1", "AOI21_X1",
    "OAI21_X1",
)

#: A circuit spec: input count, gates as (cell, fan-in net indices),
#: observed net indices (besides the unread gate outputs).  Net ``i < n_inputs`` is input ``i``; gate
#: ``k`` drives net ``n_inputs + k``.
Spec = Tuple[int, List[Tuple[str, List[int]]], List[int]]


def _input_pins(cell: str) -> List[str]:
    return [name for name, pin in LIB[cell].pins.items()
            if pin.direction == "input"]


def build(spec: Spec) -> Circuit:
    """Netlist of a circuit spec."""
    n_inputs, gates, observed = spec
    c = Circuit("oracle")
    names = [f"i{j}" for j in range(n_inputs)]
    for name in names:
        c.add_input(name)
    for k, (cell, fanin) in enumerate(gates):
        out = f"n{k}"
        c.add_net(out)
        conns = dict(zip(_input_pins(cell), (names[i] for i in fanin)))
        conns["Z"] = out
        c.add_instance(f"g{k}", LIB[cell], conns)
        names.append(out)
    # Every gate output nothing reads is observed too: dangling logic
    # would only add trivially undetectable faults.
    used = {i for _, fanin in gates for i in fanin}
    dangling = set(range(n_inputs, len(names))) - used
    for j, i in enumerate(sorted(set(observed) | dangling)):
        c.add_output(f"o{j}", names[i])
    return c


@st.composite
def specs(draw) -> Spec:
    """Hypothesis strategy over circuit specs."""
    n_inputs = draw(st.integers(min_value=2, max_value=10))
    n_gates = draw(st.integers(min_value=2, max_value=24))
    gates = []
    for k in range(n_gates):
        cell = draw(st.sampled_from(CELLS))
        n_nets = n_inputs + k
        # Prefer recent nets (deep, reconvergent logic) but reach back
        # to any net, and allow one net on two pins of a gate.
        fanin = [
            draw(st.integers(min_value=max(0, n_nets - 6),
                             max_value=n_nets - 1)
                 | st.integers(min_value=0, max_value=n_nets - 1))
            for _ in _input_pins(cell)
        ]
        gates.append((cell, fanin))
    n_total = n_inputs + n_gates
    extra = draw(st.lists(st.integers(min_value=n_inputs,
                                      max_value=n_total - 1), max_size=3))
    return n_inputs, gates, [n_total - 1, *extra]


def seeded_spec(seed: int) -> Spec:
    """A reproducible spec for the fixed corpus."""
    rng = random.Random(seed)
    n_inputs = rng.randint(4, 10)
    gates = []
    for k in range(rng.randint(10, 24)):
        cell = rng.choice(CELLS)
        n_nets = n_inputs + k
        fanin = [rng.randint(max(0, n_nets - 6), n_nets - 1)
                 if rng.random() < 0.7 else rng.randint(0, n_nets - 1)
                 for _ in _input_pins(cell)]
        gates.append((cell, fanin))
    n_total = n_inputs + len(gates)
    observed = [n_total - 1] + [rng.randint(n_inputs, n_total - 1)
                                for _ in range(rng.randint(0, 3))]
    return n_inputs, gates, observed


# ----------------------------------------------------------------------
# Exhaustive detectability
# ----------------------------------------------------------------------
class Exhaustive:
    """All ``2**n`` patterns of a view, one bit per pattern.

    Pattern ``p`` assigns input ``view.input_nets[j]`` the bit
    ``(p >> j) & 1``.
    """

    def __init__(self, view):
        self.view = view
        self.inputs = list(view.input_nets)
        self.n_patterns = 1 << len(self.inputs)
        self.sim = BitSimulator(view, width=self.n_patterns)
        self.mask = self.sim.mask
        words = {
            net: sum(1 << p for p in range(self.n_patterns) if p >> j & 1)
            for j, net in enumerate(self.inputs)
        }
        self.good = self.sim.run(words)
        self.observed = {net for net, _ in view.output_refs}

    def detecting(self, fault: Fault) -> int:
        """Word of the patterns that detect ``fault``."""
        index = self.sim.net_index
        stuck = self.mask if fault.value else 0
        good = self.good
        site = good[index[fault.net]]
        if fault.sink is not None and (
                fault.sink[0] == PORT
                or (fault.net, fault.sink) in self.view.output_refs):
            return (site ^ stuck) & self.mask  # observed directly
        values = list(good)
        if fault.sink is None:
            values[index[fault.net]] = stuck
        for node in self.view.nodes:
            if fault.sink is None and node.out_net == fault.net:
                continue  # the stuck stem keeps its value
            pins = {pin: values[index[net]]
                    for pin, net in node.pin_nets.items()}
            if (fault.sink is not None and node.inst.name == fault.sink[0]
                    and node.pin_nets.get(fault.sink[1]) == fault.net):
                pins[fault.sink[1]] = stuck
            values[index[node.out_net]] = node.expr.eval2(pins) & self.mask
        diff = 0
        for net in self.observed:
            diff |= values[index[net]] ^ good[index[net]]
        return diff

    def pattern(self, assignment: Dict[str, int], fill: int) -> int:
        """Pattern index of ``assignment`` with the rest from ``fill``."""
        p = fill
        for j, net in enumerate(self.inputs):
            if net in assignment:
                p = (p & ~(1 << j)) | (assignment[net] << j)
        return p


def oracle_violations(spec: Spec, engine_cls=PodemEngine,
                      seed: int = 0) -> List[str]:
    """Every PODEM verdict on ``spec`` that exhaustive simulation refutes."""
    circuit = build(spec)
    view = extract_comb_view(circuit, "test")
    truth = Exhaustive(view)
    podem = engine_cls(view, backtrack_limit=64)
    rng = random.Random(seed)
    all_ones = truth.n_patterns - 1
    problems = []
    for fault in build_fault_list(circuit, view).faults:
        if fault.net not in truth.sim.net_index:
            continue
        detects = truth.detecting(fault)
        cube = podem.generate(fault)
        if cube.status == "redundant" and detects:
            problems.append(f"{fault}: detectable, called redundant")
        if cube.status == "incompatible":
            problems.append(f"{fault}: incompatible without constraints")
        if cube.status == "detected":
            for fill in (0, all_ones, rng.randrange(truth.n_patterns)):
                if not detects >> truth.pattern(cube.assignment, fill) & 1:
                    problems.append(f"{fault}: cube {cube.assignment} "
                                    f"misses under fill {fill:#x}")
        # The same fault under random constraints (dynamic compaction).
        fixed = {net: rng.getrandbits(1)
                 for net in rng.sample(truth.inputs,
                                       rng.randint(1, len(truth.inputs)))}
        constrained = podem.generate(fault, fixed=fixed, restarts=2,
                                     backtrack_limit=24)
        if constrained.status == "redundant":
            problems.append(f"{fault}: redundant under constraints")
        if constrained.status == "incompatible" and any(
                detects >> p & 1 for p in range(truth.n_patterns)
                if truth.pattern(fixed, p) == p):
            problems.append(f"{fault}: incompatible with {fixed}, but a "
                            f"pattern honouring it detects")
        if constrained.status == "detected":
            merged = {**fixed, **constrained.assignment}
            for fill in (0, all_ones):
                if not detects >> truth.pattern(merged, fill) & 1:
                    problems.append(f"{fault}: merged cube {merged} "
                                    f"misses under fill {fill:#x}")
    return problems


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs(), st.integers(min_value=0, max_value=2**16))
def test_podem_verdicts_match_exhaustive_simulation(spec, seed):
    assert oracle_violations(spec, seed=seed) == []


#: Fixed corpus for the planted-bug check.
CORPUS_SEEDS = tuple(range(12))


def test_fixed_corpus_is_clean():
    for seed in CORPUS_SEEDS:
        assert oracle_violations(seeded_spec(seed), seed=seed) == [], seed


class _FrontierLosesHead(PodemEngine):
    """Planted bug: the D-frontier silently drops its first node."""

    def _d_frontier(self, st):
        return super()._d_frontier(st)[1:]


def test_oracle_catches_planted_frontier_bug():
    caught = [
        seed for seed in CORPUS_SEEDS
        if oracle_violations(seeded_spec(seed), _FrontierLosesHead, seed)
    ]
    assert caught, "the oracle missed a PODEM that drops frontier nodes"
