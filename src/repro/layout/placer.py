"""Pluggable global-placement engines: the ``Placer`` strategy API.

The paper's area/timing claims (Tables 2/3) are measured *through* one
layout engine.  To test whether those conclusions survive a change of
placer, global placement is a strategy: every engine implements the
:class:`Placer` protocol and registers itself in :data:`PLACERS` (the
same registry idiom as ``repro.api.CIRCUITS``), and the flow selects
one by name via ``FlowConfig.placer``.

Two engines ship:

* ``"quadratic"`` — the default Gordian-style analytic placer
  (:class:`repro.layout.placement.QuadraticPlacer`), whose ``place``
  is :func:`repro.layout.placement.global_place`.
* ``"sa"`` — quadratic global placement followed by HPWL-driven
  simulated-annealing detailed placement
  (:class:`repro.layout.sa.SimulatedAnnealingPlacer`), deterministic
  under a content-derived seed.

Seeds are threaded deterministically: :func:`placement_seed` derives a
63-bit seed from the netlist's structural content plus the engine
name, so the same (circuit, config) pair always places identically —
in-process, across worker processes, and across machines.  No engine
may touch process-global randomness or the wall clock (the
determinism self-lint enforces this).
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Point
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit


@runtime_checkable
class Placer(Protocol):
    """The strategy interface every placement engine implements.

    The method signatures below are a frozen API contract — they are
    snapshotted in ``tests/golden/api_surface.json`` and CI fails any
    change that does not deliberately refresh the snapshot.

    Engines must be deterministic functions of their arguments: the
    ``seed`` (derived from the flow's content hash, see
    :func:`placement_seed`) is the *only* admissible source of
    randomness, so a given (circuit, plan, seed) triple always yields
    the same placement regardless of process, job count or machine.
    """

    #: Registry name of the engine (``"quadratic"``, ``"sa"``, ...).
    name: str

    def place(self, circuit: Circuit, plan: Floorplan, *,
              seed: int = 0) -> Placement:
        """Globally place and legalise ``circuit`` into ``plan``."""
        ...

    def refine(self, circuit: Circuit, placement: Placement, *,
               passes: int = 2, seed: int = 0) -> float:
        """Detailed-placement cleanup in place; returns HPWL gain."""
        ...

    def eco_place(self, circuit: Circuit, placement: Placement,
                  new_cells: Iterable[str],
                  hints: Optional[Dict[str, Point]] = None) -> List[str]:
        """Insert post-placement ECO cells into the existing layout."""
        ...


@dataclass(frozen=True)
class PlacerSpec:
    """One registered placement engine.

    Attributes:
        factory: Builds a fresh engine instance (engines may carry
            tuning state, so the registry stores factories, not
            instances — mirroring ``CircuitSpec.factory``).
        description: One-line summary shown by ``--placer`` helpers.
    """

    factory: Callable[[], Placer]
    description: str


#: Registered placement engines, keyed by ``FlowConfig.placer`` name.
PLACERS: Dict[str, PlacerSpec] = {}


def register_placer(name: str, factory: Callable[[], Placer],
                    description: str) -> None:
    """Register (or replace) an engine under ``name``."""
    PLACERS[name] = PlacerSpec(factory=factory, description=description)


def _unknown_placer_message(name: str) -> str:
    choices = sorted(PLACERS)
    close = difflib.get_close_matches(str(name), choices, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return (f"unknown placer {name!r}{hint}; choose from "
            + ", ".join(choices))


def get_placer(name: str) -> Placer:
    """A fresh instance of the engine registered under ``name``.

    Raises:
        KeyError: Unknown engine name (message lists the choices and
            suggests the closest registered name).
    """
    spec = PLACERS.get(name)
    if spec is None:
        raise KeyError(_unknown_placer_message(name))
    return spec.factory()


def require_placer(name: str) -> None:
    """Validate an engine name for config machinery.

    Same did-you-mean message as :func:`get_placer`, raised as
    ``ValueError`` so ``FlowConfig`` rejection reads like its other
    unknown-key errors.
    """
    if name not in PLACERS:
        raise ValueError(_unknown_placer_message(name))


def placement_seed(circuit: Circuit, engine: str = "") -> int:
    """Deterministic 63-bit seed from the netlist's structural content.

    The digest covers the circuit name and the sorted instance/net
    name-and-cell structure — exactly the inputs that shape a
    placement — plus the engine name, so two engines never share a
    random stream.  Positions and other derived state never enter the
    hash.  Equal (circuit, engine) pairs seed equally in every
    process, which is what makes the SA backend bit-identical across
    ``--jobs 1`` and ``--jobs N``.
    """
    h = hashlib.sha256()
    h.update(engine.encode("utf-8"))
    h.update(b"\x00")
    h.update(circuit.name.encode("utf-8"))
    for name in sorted(circuit.instances):
        inst = circuit.instances[name]
        h.update(b"\x00i")
        h.update(name.encode("utf-8"))
        h.update(inst.cell.name.encode("utf-8"))
    for name in sorted(circuit.nets):
        net = circuit.nets[name]
        h.update(b"\x00n")
        h.update(name.encode("utf-8"))
        h.update(repr(net.driver).encode("utf-8"))
    return int(h.hexdigest()[:16], 16) & 0x7FFFFFFFFFFFFFFF


def _register_builtin_engines() -> None:
    """Populate :data:`PLACERS` with the shipped engines."""
    from repro.layout.placement import QuadraticPlacer
    from repro.layout.sa import SimulatedAnnealingPlacer

    register_placer(
        "quadratic", QuadraticPlacer,
        "Gordian-style analytic placement (clique/star springs, "
        "numpy-accelerated linear solve, row legalisation)",
    )
    register_placer(
        "sa", SimulatedAnnealingPlacer,
        "quadratic global placement + HPWL-driven simulated-annealing "
        "detailed placement (deterministic content-derived seed)",
    )


_register_builtin_engines()
