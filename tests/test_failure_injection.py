"""Failure injection: the validator and flow guards catch corruption."""

import pytest

from repro.netlist import Circuit, validate
from repro.netlist.net import PORT


def _healthy(lib):
    c = Circuit("t")
    c.add_clock("clk", 1000.0)
    c.add_input("a")
    c.add_input("b")
    c.add_net("n1")
    c.add_instance("g", lib["NAND2_X1"], {"A": "a", "B": "b", "Z": "n1"})
    c.add_net("q")
    c.add_instance("ff", lib["DFF_X1"], {"D": "n1", "CLK": "clk", "Q": "q"})
    c.add_output("y", "q")
    assert validate(c).ok
    return c


def test_stale_driver_backreference_detected(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = ("g", "A")  # wrong pin recorded
    assert any("back-reference" in d.message or "driven" in d.message
               for d in validate(c).error_diagnostics)


def test_stale_sink_backreference_detected(lib):
    c = _healthy(lib)
    c.nets["a"].sinks.append(("ff", "D"))  # phantom sink
    report = validate(c)
    assert not report.ok


def test_missing_driver_detected(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = None
    assert any("no driver" in d.message
               for d in validate(c).error_diagnostics)


def test_ghost_instance_detected(lib):
    c = _healthy(lib)
    del c.instances["g"]
    report = validate(c)
    assert any("missing instance" in d.message
               for d in report.error_diagnostics)


def test_output_port_corruption_detected(lib):
    c = _healthy(lib)
    c.nets["q"].sinks.remove((PORT, "y"))
    assert any("not a sink" in d.message
               for d in validate(c).error_diagnostics)


def test_raise_on_error(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = None
    with pytest.raises(ValueError, match="netlist validation failed"):
        validate(c).raise_on_error(context="netlist validation")


def test_flow_validation_catches_corruption(lib):
    """run_flow validates between steps: a corrupted netlist aborts."""
    from repro.circuits import s38417_like
    from repro.core import FlowConfig, run_flow

    c = s38417_like(scale=0.015)
    # Sabotage: disconnect a random gate input.
    victim = next(
        i for i in c.instances.values()
        if not i.is_sequential and not i.cell.is_filler
    )
    pin = victim.cell.input_pins[0]
    c.disconnect(victim.name, pin)
    with pytest.raises(ValueError, match="netlist validation failed"):
        run_flow(c, lib, FlowConfig(run_atpg_phase=False))
