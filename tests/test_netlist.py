"""Tests for the netlist data model (Circuit / Net / Instance)."""

import pytest

from repro.netlist import Circuit, PORT, validate


def test_basic_construction(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_input("b")
    c.add_net("n1")
    c.add_instance("g", lib["NAND2_X1"], {"A": "a", "B": "b", "Z": "n1"})
    c.add_output("y", "n1")
    assert c.nets["n1"].driver == ("g", "Z")
    assert ("g", "A") in c.nets["a"].sinks
    assert c.output_net("y") == "n1"
    assert validate(c).ok


def test_duplicate_names_rejected(lib):
    c = Circuit("t")
    c.add_input("a")
    with pytest.raises(ValueError):
        c.add_net("a")
    c.add_net("n1")
    c.add_instance("g", lib["INV_X1"], {"A": "a", "Z": "n1"})
    with pytest.raises(ValueError):
        c.add_instance("g", lib["INV_X1"], {})


def test_double_driver_rejected(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g1", lib["INV_X1"], {"A": "a", "Z": "n1"})
    with pytest.raises(ValueError):
        c.add_instance("g2", lib["INV_X1"], {"A": "a", "Z": "n1"})


def test_unknown_pin_rejected(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    with pytest.raises(KeyError):
        c.add_instance("g", lib["INV_X1"], {"IN": "a", "Z": "n1"})


def test_disconnect_and_remove(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g", lib["INV_X1"], {"A": "a", "Z": "n1"})
    assert c.disconnect("g", "A") == "a"
    assert c.nets["a"].sinks == []
    c.remove_instance("g")
    assert "g" not in c.instances
    assert c.nets["n1"].driver is None
    c.remove_net("n1")
    assert "n1" not in c.nets


def test_remove_connected_net_rejected(lib):
    c = Circuit("t")
    c.add_input("a")
    with pytest.raises(ValueError):
        c.remove_net("a")


def test_split_net_moves_selected_sinks(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g0", lib["INV_X1"], {"A": "a", "Z": "n1"})
    for i in range(3):
        c.add_net(f"o{i}")
        c.add_instance(f"g{i + 1}", lib["INV_X1"],
                       {"A": "n1", "Z": f"o{i}"})
    c.add_output("y", "o0")
    moved = [("g2", "A"), ("g3", "A")]
    new_net = c.split_net_before_sinks("n1", moved)
    assert sorted(new_net.sinks) == sorted(moved)
    assert c.nets["n1"].sinks == [("g1", "A")]
    assert c.instances["g2"].conns["A"] == new_net.name
    # New net is undriven until the caller adds a driver.
    report = validate(c)
    assert any("no driver" in d.message for d in report.error_diagnostics)


def test_split_net_moves_output_ports(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g0", lib["INV_X1"], {"A": "a", "Z": "n1"})
    c.add_output("y", "n1")
    new_net = c.split_net_before_sinks("n1", [(PORT, "y")])
    assert c.output_net("y") == new_net.name


def test_swap_cell_checks_pins(lib):
    c = Circuit("t")
    c.add_clock("clk", 1000.0)
    c.add_input("d")
    c.add_net("q")
    c.add_instance("ff", lib["DFF_X1"], {"D": "d", "CLK": "clk", "Q": "q"})
    c.add_output("y", "q")
    c.swap_cell("ff", lib["SDFF_X1"])
    assert c.instances["ff"].cell.name == "SDFF_X1"
    # INV has no D pin: must be rejected.
    with pytest.raises(ValueError):
        c.swap_cell("ff", lib["INV_X1"])


def test_clone_is_independent(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g", lib["INV_X1"], {"A": "a", "Z": "n1"})
    c.add_output("y", "n1")
    dup = c.clone("t2")
    dup.remove_instance("g")
    assert "g" in c.instances
    assert c.nets["n1"].driver == ("g", "Z")


def test_stats_and_helpers(lib, tiny_pipeline):
    stats = tiny_pipeline.stats()
    assert stats["flip_flops"] == 2
    assert stats["combinational"] == 2
    assert tiny_pipeline.clock_of("ff1") == "clk"
    assert tiny_pipeline.clock_period_ps("clk") == 4000.0
    with pytest.raises(KeyError):
        tiny_pipeline.clock_period_ps("nope")
    area = tiny_pipeline.total_cell_area()
    assert area > 0


def test_validate_catches_unconnected_pin(lib):
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("g", lib["NAND2_X1"], {"A": "a", "Z": "n1"})
    report = validate(c)
    assert any("g.B" in d.message for d in report.error_diagnostics)


def test_validate_catches_bad_clock_hookup(lib):
    c = Circuit("t")
    c.add_input("notclock")
    c.add_input("d")
    c.add_net("q")
    c.add_instance("ff", lib["DFF_X1"],
                   {"D": "d", "CLK": "notclock", "Q": "q"})
    c.add_output("y", "q")
    report = validate(c)
    assert any("clock pin" in d.message for d in report.error_diagnostics)
