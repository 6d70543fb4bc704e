"""Property-based tests on core data structures and invariants."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuits import CircuitProfile, ClockSpec, generate
from repro.library import cmos130
from repro.library.nldm import NLDMTable
from repro.netlist import extract_comb_view, validate
from repro.scan import insert_scan, simulate_shift
from repro.testability import compute_cop, compute_scoap
from repro.testability.scoap import INFINITE


@st.composite
def profiles(draw):
    n_ffs = draw(st.integers(min_value=10, max_value=40))
    n_gates = draw(st.integers(min_value=60, max_value=300))
    return CircuitProfile(
        name="prop",
        n_inputs=draw(st.integers(min_value=4, max_value=12)),
        n_outputs=draw(st.integers(min_value=4, max_value=12)),
        n_flip_flops=n_ffs,
        n_gates=n_gates,
        clocks=(ClockSpec("clk", 5000.0, 1.0),),
        hard_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
        datapath_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
    )


@given(profiles(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=12, deadline=None)
def test_generated_circuits_always_validate(profile, seed):
    circuit = generate(profile, cmos130(), seed=seed)
    report = validate(circuit)
    assert report.ok, report.error_diagnostics[:3]
    # The combinational view is acyclic and complete in both modes.
    for mode in ("test", "functional"):
        view = extract_comb_view(circuit, mode)
        assert len(view.nodes) > 0


@given(profiles(), st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=2, max_value=12))
@settings(max_examples=8, deadline=None)
def test_scan_chains_always_shift(profile, seed, max_len):
    circuit = generate(profile, cmos130(), seed=seed)
    config = insert_scan(circuit, cmos130(), max_chain_length=max_len)
    assert config.max_length <= max_len
    assert config.n_flip_flops == circuit.num_flip_flops
    rng = random.Random(seed)
    for chain in range(min(3, config.n_chains)):
        probe = [rng.getrandbits(1) for _ in range(6)]
        assert simulate_shift(circuit, config, probe, chain) == probe


@given(profiles(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_cop_values_are_probabilities(profile, seed):
    circuit = generate(profile, cmos130(), seed=seed)
    cop = compute_cop(extract_comb_view(circuit, "test"))
    for net, p in cop.p1.items():
        assert -1e-9 <= p <= 1 + 1e-9
        assert -1e-9 <= cop.obs[net] <= 1 + 1e-9
        for sv in (0, 1):
            assert -1e-9 <= cop.detection_probability(net, sv) <= 1 + 1e-9


@given(profiles(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_scoap_values_positive_and_bounded_below(profile, seed):
    circuit = generate(profile, cmos130(), seed=seed)
    view = extract_comb_view(circuit, "test")
    scoap = compute_scoap(view)
    inputs = set(view.input_nets)
    for net in scoap.cc0:
        if net in view.constants:
            continue
        assert scoap.cc0[net] >= 1 or net in inputs
        assert scoap.cc1[net] >= 1 or net in inputs
        assert scoap.co[net] >= 0


@given(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_nldm_linear_tables_are_exact_on_grid(intrinsic, ppf, sens):
    table = NLDMTable.linear(intrinsic, ppf, sens)
    for s in table.slews:
        for c in table.loads:
            got = table.lookup(float(s), float(c))
            want = (intrinsic + ppf * c + sens * s
                    + 0.002 * ppf * c ** 1.5)
            assert got.value == pytest.approx(float(want), rel=1e-9)
            assert not got.extrapolated
