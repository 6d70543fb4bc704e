"""Layout generation: floorplan, placement, CTS, ECO, filler, routing.

Global placement is a pluggable strategy: engines implement the
:class:`Placer` protocol and live in the :data:`PLACERS` registry
(``"quadratic"`` is the default, ``"sa"`` adds simulated-annealing
detailed placement).  ``global_place`` is the quadratic engine's
global place as a plain function.
"""

from repro.layout.cts import (
    ClockTree,
    MAX_CLUSTER_SINKS,
    synthesize_all_clock_trees,
    synthesize_clock_tree,
)
from repro.layout.defio import def_statistics, to_def
from repro.layout.detailed import refine_placement
from repro.layout.eco import desired_position, eco_place
from repro.layout.filler import FillerReport, insert_fillers
from repro.layout.floorplan import (
    CORE_MARGIN_UM,
    Floorplan,
    GROUND_RING_UM,
    IO_RING_UM,
    POWER_RING_UM,
    Row,
    build_floorplan,
)
from repro.layout.geometry import Point, Rect, hpwl, manhattan
from repro.layout.placement import (
    Placement,
    QuadraticPlacer,
    global_place,
    repack_row,
)
from repro.layout.placer import (
    PLACERS,
    Placer,
    PlacerSpec,
    get_placer,
    placement_seed,
    register_placer,
    require_placer,
)
from repro.layout.sa import SimulatedAnnealingPlacer
from repro.layout.routing import (
    CongestionReport,
    GCELL_UM,
    GlobalRouter,
    RoutedNet,
    RouteSegment,
)

__all__ = [
    "CORE_MARGIN_UM",
    "def_statistics",
    "refine_placement",
    "to_def",
    "ClockTree",
    "CongestionReport",
    "FillerReport",
    "Floorplan",
    "GCELL_UM",
    "GROUND_RING_UM",
    "GlobalRouter",
    "IO_RING_UM",
    "MAX_CLUSTER_SINKS",
    "PLACERS",
    "POWER_RING_UM",
    "Placement",
    "Placer",
    "PlacerSpec",
    "Point",
    "QuadraticPlacer",
    "SimulatedAnnealingPlacer",
    "Rect",
    "RoutedNet",
    "RouteSegment",
    "Row",
    "build_floorplan",
    "desired_position",
    "eco_place",
    "get_placer",
    "global_place",
    "hpwl",
    "insert_fillers",
    "manhattan",
    "placement_seed",
    "register_placer",
    "repack_row",
    "require_placer",
    "synthesize_all_clock_trees",
    "synthesize_clock_tree",
]
