"""The ``Placer`` strategy API: registry, seeds, config wiring."""

from __future__ import annotations

import pytest

from repro import api
from repro.circuits import s38417_like
from repro.core import FlowConfig
from repro.layout import (
    PLACERS,
    Placer,
    PlacerSpec,
    QuadraticPlacer,
    SimulatedAnnealingPlacer,
    build_floorplan,
    get_placer,
    global_place,
    placement_seed,
    register_placer,
    require_placer,
)


@pytest.fixture(scope="module")
def circuit():
    return s38417_like(scale=0.012)


# -- registry ----------------------------------------------------------


def test_builtin_engines_registered():
    assert set(PLACERS) >= {"quadratic", "sa"}
    for name, spec in PLACERS.items():
        assert isinstance(spec, PlacerSpec)
        engine = spec.factory()
        assert engine.name == name
        assert isinstance(engine, Placer)
        assert spec.description


def test_api_reexports_registry():
    assert api.PLACERS is PLACERS
    assert api.Placer is Placer
    assert api.get_placer is get_placer


def test_get_placer_returns_fresh_instances():
    assert get_placer("quadratic") is not get_placer("quadratic")
    assert isinstance(get_placer("sa"), SimulatedAnnealingPlacer)
    # SA extends the quadratic engine (same global place, new refine).
    assert isinstance(get_placer("sa"), QuadraticPlacer)


def test_unknown_placer_did_you_mean():
    with pytest.raises(KeyError, match="did you mean 'quadratic'"):
        get_placer("quadratc")
    with pytest.raises(KeyError, match="choose from"):
        get_placer("annealing")
    with pytest.raises(ValueError, match="did you mean 'sa'"):
        require_placer("sa2")


def test_register_placer_round_trip():
    class NullPlacer(QuadraticPlacer):
        name = "null-test"

    register_placer("null-test", NullPlacer, "test-only engine")
    try:
        assert isinstance(get_placer("null-test"), NullPlacer)
    finally:
        del PLACERS["null-test"]
    with pytest.raises(KeyError):
        get_placer("null-test")


# -- global_place is the quadratic engine ----------------------------


def test_global_place_shim_matches_engine(circuit):
    plan = build_floorplan(circuit, target_utilization=0.97)
    via_shim = global_place(circuit, plan)
    plan2 = build_floorplan(circuit, target_utilization=0.97)
    via_engine = get_placer("quadratic").place(circuit, plan2)
    assert via_shim.positions == via_engine.positions
    assert via_shim.rows_cells == via_engine.rows_cells
    assert via_shim.row_of == via_engine.row_of


# -- deterministic seeding ---------------------------------------------


def test_placement_seed_stable_and_engine_separated(circuit):
    s1 = placement_seed(circuit, "sa")
    s2 = placement_seed(circuit, "sa")
    assert s1 == s2
    assert 0 <= s1 < 2 ** 63
    assert placement_seed(circuit, "quadratic") != s1
    other = s38417_like(scale=0.02)
    assert placement_seed(other, "sa") != s1


def test_placement_seed_ignores_positions(circuit):
    before = placement_seed(circuit, "sa")
    plan = build_floorplan(circuit, target_utilization=0.97)
    global_place(circuit, plan)  # placing must not perturb the seed
    assert placement_seed(circuit, "sa") == before


# -- FlowConfig wiring -------------------------------------------------


def test_flow_config_validates_placer():
    assert FlowConfig().placer == "quadratic"
    assert FlowConfig(placer="sa").placer == "sa"
    with pytest.raises(ValueError, match="did you mean 'quadratic'"):
        FlowConfig(placer="quadratc")
    with pytest.raises(ValueError, match="unknown placer"):
        FlowConfig.from_dict({"placer": "gordian"})
    with pytest.raises(ValueError, match="unknown placer"):
        FlowConfig().replace(placer="annealer")


def test_flow_config_placer_round_trips():
    config = FlowConfig(placer="sa")
    assert FlowConfig.from_dict(config.to_dict()) == config
