"""The simulated-annealing engine: determinism, legality, quality.

The headline gates mirror the executor's bit-identity contract: the
``"sa"`` engine must reproduce exactly — same process, fresh process
pool, any job count — because its only randomness is the content-derived
seed threaded through ``Placer.refine``.
"""

from __future__ import annotations

import functools

import pytest

from repro.atpg import AtpgConfig
from repro.circuits import s38417_like
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    FlowConfig,
    run_experiment,
    run_sweeps,
)
from repro.layout import build_floorplan, get_placer, placement_seed

FAST_ATPG = AtpgConfig(seed=7, backtrack_limit=24, max_deterministic=60,
                       abort_recovery_blocks=4, second_chance_factor=1)
LEVELS = (0.0, 2.0)
SCALE = 0.012


def sa_experiment() -> ExperimentConfig:
    return ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=SCALE),
        tp_percents=LEVELS,
        flow=FlowConfig(atpg=FAST_ATPG, placer="sa"),
    )


def table_dicts(result):
    return {
        "table1": result.table1_rows(),
        "table2": result.table2_rows(),
        "table3": result.table3_rows(),
    }


def _place_and_refine(circuit, passes=2):
    plan = build_floorplan(circuit, target_utilization=0.97)
    engine = get_placer("sa")
    seed = placement_seed(circuit, "sa")
    placement = engine.place(circuit, plan, seed=seed)
    gain = engine.refine(circuit, placement, passes=passes, seed=seed)
    return placement, gain


# ----------------------------------------------------------------------
# Unit-level determinism and legality
# ----------------------------------------------------------------------
def test_sa_refine_is_bit_identical_across_runs():
    circuit = s38417_like(scale=0.02)
    p1, g1 = _place_and_refine(circuit)
    p2, g2 = _place_and_refine(circuit)
    assert p1.positions == p2.positions
    assert p1.rows_cells == p2.rows_cells
    assert p1.row_of == p2.row_of
    assert g1 == g2


def test_sa_seed_changes_the_anneal():
    circuit = s38417_like(scale=0.02)
    plan = build_floorplan(circuit, target_utilization=0.97)
    engine = get_placer("sa")
    base = engine.place(circuit, plan, seed=1)
    import copy

    alt = copy.deepcopy(base)
    engine.refine(circuit, base, passes=1, seed=1)
    engine.refine(circuit, alt, passes=1, seed=2)
    assert base.positions != alt.positions


def test_sa_preserves_legality():
    circuit = s38417_like(scale=0.02)
    placement, _ = _place_and_refine(circuit)
    # Every row stays within its site quota...
    occupancy = placement.row_occupancy_sites(circuit)
    for used, row in zip(occupancy, placement.plan.rows):
        assert used <= row.n_sites
    # ...bookkeeping is coherent...
    for row_index, cells in enumerate(placement.rows_cells):
        for name in cells:
            assert placement.row_of[name] == row_index
    # ...and no two cells in a row overlap.
    for cells in placement.rows_cells:
        spans = []
        for name in cells:
            x, _ = placement.positions[name]
            w = circuit.instances[name].cell.width_um
            spans.append((x - w / 2, x + w / 2))
        spans.sort()
        for (_, right), (left, _) in zip(spans, spans[1:]):
            assert left >= right - 1e-6


def test_sa_improves_on_untouched_global_placement():
    circuit = s38417_like(scale=0.02)
    plan = build_floorplan(circuit, target_utilization=0.97)
    engine = get_placer("sa")
    seed = placement_seed(circuit, "sa")
    placement = engine.place(circuit, plan, seed=seed)
    before = placement.total_hpwl_um(circuit)
    gain = engine.refine(circuit, placement, passes=2, seed=seed)
    after = placement.total_hpwl_um(circuit)
    assert gain > 0.0
    assert after == pytest.approx(before - gain, rel=1e-9)


# ----------------------------------------------------------------------
# Flow-level determinism: serial vs executor (the ISSUE's gate)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sa_serial_result():
    return run_experiment(sa_experiment())


@pytest.fixture(scope="module")
def sa_parallel_result(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("sa_sweep_cache"))
    return run_sweeps(
        [sa_experiment()],
        ExecutorConfig(jobs=2, cache_dir=cache_dir),
    )["s38417"]


def test_sa_sweep_parallel_bit_identical_to_serial(sa_serial_result,
                                                   sa_parallel_result):
    assert (table_dicts(sa_serial_result)
            == table_dicts(sa_parallel_result))


def test_sa_sweep_repeats_bit_identically(sa_serial_result):
    again = run_experiment(sa_experiment())
    assert table_dicts(again) == table_dicts(sa_serial_result)


def test_sa_and_quadratic_sweeps_differ(sa_serial_result):
    quad = run_experiment(ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=SCALE),
        tp_percents=LEVELS,
        flow=FlowConfig(atpg=FAST_ATPG),
    ))
    sa_wl = [r["wirelength_um"] for r in
             table_dicts(sa_serial_result)["table2"]]
    quad_wl = [r["wirelength_um"] for r in table_dicts(quad)["table2"]]
    assert sa_wl != quad_wl
