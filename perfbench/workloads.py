"""The benchmark's workloads: which sweep each one runs, and why.

Every workload is one ``repro.api.sweep_report`` call into a fresh
result cache (the cold call that ``wall_s`` times), followed by warm
replays of the same call from that cache (``replay_s``).  The netlist
is the registered circuit at its registered generation seed; the
benchmark's ``--seed`` feeds ``AtpgConfig.seed`` (offset from the
workload's published ATPG seed, so seed 0 reproduces the paper-table
and golden configurations).  ``--heldout`` swaps in a netlist from
another generation seed.

``PROBES`` are configurations on which the program currently fails one
of the benchmark's checks.  They are not benchmark workloads (the
benchmark measures only runs whose outputs are correct), but
``run.py --workload <probe>`` runs them with every check in place, so
the failure stays reproducible until the program is fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import api
from repro.atpg import AtpgConfig
from repro.core.flow import FlowConfig

#: Netlist generation seed offset used by ``--heldout`` runs.
HELDOUT_NETLIST_OFFSET = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        why: One line: what the workload stresses.
        circuit: Registered circuit name (``repro.api.CIRCUITS``).
        scale: Fraction of the published circuit size.
        netlist_seed: Registered generation seed of the circuit.
        tp_percents: TP levels, one flow cell each.
        jobs: Sweep worker processes.
        atpg: ``AtpgConfig`` fields, ATPG seed excluded; None turns
            the ATPG phase off.
        atpg_seed: ATPG seed at benchmark seed 0.
    """

    name: str
    why: str
    circuit: str
    scale: float
    netlist_seed: int
    tp_percents: Tuple[float, ...]
    jobs: int
    atpg: Optional[Dict[str, Any]]
    atpg_seed: int = 0

    def factory(self, heldout: bool = False) -> functools.partial:
        """Picklable circuit factory (sweep workers rebuild from it)."""
        seed = self.netlist_seed + (HELDOUT_NETLIST_OFFSET if heldout
                                    else 0)
        build = api.CIRCUITS[self.circuit].factory
        return functools.partial(build, scale=self.scale, seed=seed)

    def config(self, seed: int) -> FlowConfig:
        """Flow configuration of the cells at benchmark seed ``seed``."""
        base = FlowConfig().replace(**api.CIRCUITS[self.circuit].flow_defaults)
        if self.atpg is None:
            return base.replace(run_atpg_phase=False)
        return base.replace(
            atpg=AtpgConfig(seed=self.atpg_seed + seed, **self.atpg))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="atpg_s38417",
            why=("full compact ATPG on s38417 (~800 cells) at 0% and 5% TP: "
                 "PODEM is ~95% of wall; deep abort-heavy searches at 0%, "
                 "many short ones at 5%"),
            circuit="s38417",
            scale=0.02,
            netlist_seed=38417,
            tp_percents=(0.0, 5.0),
            jobs=1,
            atpg={"backtrack_limit": 48},
            atpg_seed=2004,
        ),
        Workload(
            name="sweep_p26909",
            why=("the six-level TP sweep users run on p26909 (~10k cells, "
                 "50% die) through the executor: jobs=2 pool, cold cache "
                 "writes, then warm replays"),
            circuit="p26909",
            scale=0.05,
            netlist_seed=26909,
            tp_percents=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            jobs=2,
            atpg={"backtrack_limit": 24, "max_deterministic": 60,
                  "abort_recovery_blocks": 4, "second_chance_factor": 1},
            atpg_seed=11,
        ),
    )
}

#: Failing configurations, runnable by name but not benchmarked.
#: layout_s38417: the hold-fix loop's incremental re-extraction keeps
#: stale parasitics for nets ``GlobalRouter.reroute`` rips up outside
#: the dirty set, so the incremental == full oracle fails on every run.
PROBES: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="layout_s38417",
            why=("s38417 (~10k cells) at 5% TP, 97% die, no ATPG: TPI, "
                 "hold-fix re-route/re-extract/re-STA, route and place, the "
                 "quadratic terms outside PODEM"),
            circuit="s38417",
            scale=0.3,
            netlist_seed=38417,
            tp_percents=(5.0,),
            jobs=1,
            atpg=None,
        ),
    )
}
