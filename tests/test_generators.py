"""Tests for the profile-driven circuit generator."""

import pytest

from repro.circuits import (
    CircuitProfile,
    ClockSpec,
    control_core,
    dsp_core_p26909,
    generate,
    s38417_like,
)
from repro.netlist import extract_comb_view, validate


def test_deterministic_generation(lib):
    a = s38417_like(scale=0.02, seed=7)
    b = s38417_like(scale=0.02, seed=7)
    assert a.stats() == b.stats()
    assert {n: i.cell.name for n, i in a.instances.items()} == {
        n: i.cell.name for n, i in b.instances.items()
    }
    c = s38417_like(scale=0.02, seed=8)
    assert {n: i.conns.get("A") for n, i in a.instances.items()} != {
        n: i.conns.get("A") for n, i in c.instances.items()
    }


def test_profiles_match_published_interfaces(lib):
    c = s38417_like(scale=1.0 / 8)  # keep it quick
    # Interface counts scale with the profile.
    assert c.num_flip_flops == pytest.approx(1636 / 8, rel=0.05)
    cc = control_core(scale=0.05)
    assert [d.net for d in cc.clocks] == ["clk8", "clk64"]
    assert cc.clock_period_ps("clk8") == 125000.0
    dsp = dsp_core_p26909(scale=0.02)
    assert dsp.clock_period_ps("clk") == 7143.0


def test_generated_circuits_validate(lib):
    for factory in (s38417_like, control_core, dsp_core_p26909):
        c = factory(scale=0.02)
        report = validate(c)
        assert report.ok, report.error_diagnostics[:3]
        assert not report.warning_diagnostics  # no dangling nets


def test_depth_respects_target(lib):
    c = s38417_like(scale=0.05)
    view = extract_comb_view(c, "test")
    # Soft bound: some headroom over target_depth for blocks.
    assert view.max_level() <= 30 + 25


def test_no_gate_feeds_itself_twice(lib):
    c = s38417_like(scale=0.03)
    for inst in c.instances.values():
        if inst.is_sequential or inst.cell.is_filler:
            continue
        nets = [inst.conns[p] for p in inst.cell.input_pins
                if p in inst.conns]
        assert len(nets) == len(set(nets)), inst.name


def test_clock_domain_split(lib):
    c = control_core(scale=0.05)
    domains = {}
    for inst in c.instances.values():
        if inst.is_sequential:
            domains.setdefault(c.clock_of(inst.name), []).append(inst)
    assert set(domains) == {"clk8", "clk64"}
    frac64 = len(domains["clk64"]) / c.num_flip_flops
    assert 0.5 <= frac64 <= 0.7  # profile says 0.6


def test_net_tags_cover_all_generated_nets(lib):
    c = s38417_like(scale=0.03)
    tags = c.net_tags
    assert set(tags.values()) <= {
        "control", "shadow", "hard_block", "datapath", "absorb",
    }
    assert "shadow" in set(tags.values())
    assert "hard_block" in set(tags.values())


def test_bad_profile_rejected(lib):
    with pytest.raises(ValueError):
        generate(CircuitProfile(
            name="bad", n_inputs=4, n_outputs=4, n_flip_flops=8,
            n_gates=64,
            clocks=(ClockSpec("c1", 100.0, 0.5),),  # fractions != 1
        ), lib)
    with pytest.raises(ValueError):
        CircuitProfile(
            name="x", n_inputs=1, n_outputs=1, n_flip_flops=1, n_gates=1,
        ).scaled(0.0)
