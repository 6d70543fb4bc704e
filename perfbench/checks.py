"""Output checks and oracles, all run outside the timed region.

* Table rows: each cell's Table 1/2/3 rows must equal the reference
  recorded for the workload (``reference/<workload>.json``).  Tables
  2 and 3 do not depend on the ATPG seed, so they are compared at
  every benchmark seed; Table 1 only at seed 0.
* Table 1 invariants: the paper's equations (1) and (2), recomputed
  here from the row's own columns, ``n_ff = n_ff(0%) + n_tp`` and
  ``n_tp = round(tp% x n_ff(0%))``.
* ATPG re-simulation: the final compacted pattern set, re-simulated
  with the public fault simulator, must detect every fault class the
  ATPG reports as detected.
* Incremental == full: on the final routes, ``extract_all`` must equal
  the parasitics the hold-fix loop maintained incrementally, and a
  from-scratch ``run_sta`` on them must equal the incremental result.

Each check returns a list of problems; an empty list is a pass.  The
row checks pair each problem with the TP level of the failing cell
(None when the whole call is at fault).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.atpg.compaction import pack_block
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import FaultStatus
from repro.atpg.simulator import BitSimulator
from repro.extraction.rc import extract_all
from repro.netlist.levelize import extract_comb_view
from repro.sta.analysis import run_sta

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TABLES = ("table1", "table2", "table3")


def table_rows(experiment) -> Dict[str, List[Dict[str, Any]]]:
    """The Table 1/2/3 rows a sweep produced (absent tables omitted)."""
    rows: Dict[str, List[Dict[str, Any]]] = {}
    for table in TABLES:
        try:
            rows[table] = getattr(experiment, f"{table}_rows")()
        except ValueError:  # the phase that feeds this table was off
            continue
    return rows


def load_reference(workload: str) -> Optional[Dict[str, Any]]:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    return a == b


#: A problem with the TP level of the cell it belongs to.
CellProblem = Tuple[Optional[float], str]


def compare_rows(fresh: Dict[str, List[Dict[str, Any]]],
                 reference: Dict[str, Any],
                 tables: tuple) -> List[CellProblem]:
    """Field-by-field diff of fresh rows against reference rows."""
    problems: List[CellProblem] = []
    for table in tables:
        want = reference.get(table)
        got = fresh.get(table)
        if want is None and got is None:
            continue
        if want is None or got is None or len(want) != len(got):
            problems.append(
                (None, f"{table}: row count differs from reference"))
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            pct = w.get("tp_percent")
            if sorted(g) != sorted(w):
                problems.append((pct, f"{table} row {i}: columns differ"))
                continue
            for key, value in w.items():
                if not _same(g[key], value):
                    problems.append((pct, f"{table} row {i} [{key}]: "
                                          f"{g[key]!r} != {value!r}"))
    return problems


def table1_invariants(rows: List[Dict[str, Any]]) -> List[CellProblem]:
    """Equations (1)-(2) and the flip-flop census of every Table 1 row."""
    problems: List[CellProblem] = []
    if not rows:
        return problems
    base = min(rows, key=lambda r: r["tp_percent"])
    for r in rows:
        pct = r["tp_percent"]
        where = f"table1 tp={pct:g}%"
        n, l_max, p = r["n_chains"], r["l_max"], r["saf_patterns"]
        if r["tdv_bits"] != 2 * n * ((l_max + 1) * p + l_max):
            problems.append((pct, f"{where}: TDV violates equation (1)"))
        if r["tat_cycles"] != (l_max + 1) * p + 2 * l_max:
            problems.append((pct, f"{where}: TAT violates equation (2)"))
        if r["n_ff"] != base["n_ff"] + r["n_tp"]:
            problems.append((pct, f"{where}: n_ff != n_ff(0%) + n_tp"))
        if r["n_tp"] != round(pct / 100.0 * base["n_ff"]):
            problems.append((pct, f"{where}: n_tp is not tp% of n_ff(0%)"))
        if not 0.0 <= r["fc_percent"] <= r["fe_percent"] <= 100.0:
            problems.append((pct, f"{where}: FC/FE out of order"))
    return problems


def atpg_resimulation(result) -> List[str]:
    """Re-simulate the final pattern set; every detected class must be."""
    atpg = result.atpg
    if atpg is None:
        return []
    view = extract_comb_view(result.circuit, "test")
    if list(view.input_nets) != list(atpg.input_nets):
        return ["atpg: pattern bit order differs from the test view"]
    sim = BitSimulator(view, width=64)
    fsim = FaultSimulator(sim)
    fault_list = atpg.fault_list
    remaining = {
        rep for rep in fault_list.classes()
        if fault_list.status[rep] is FaultStatus.DETECTED
    }
    for i in range(0, len(atpg.patterns), sim.width):
        words = pack_block(atpg.input_nets, atpg.patterns[i:i + sim.width])
        remaining.difference_update(fsim.run_block(words, remaining))
    if remaining:
        sample = ", ".join(sorted(str(f) for f in remaining)[:3])
        return [f"atpg: {len(remaining)} fault classes reported detected "
                f"are not detected by the final patterns ({sample})"]
    return []


def _path_key(path) -> Optional[tuple]:
    if path is None:
        return None
    return (path.domain, path.endpoint, path.startpoint, path.total_ps,
            path.slack_ps)


def incremental_equals_full(result) -> List[str]:
    """Full re-extraction and re-STA must reproduce the incremental state."""
    if result.placement is None or not result.config.incremental_eco:
        return []
    problems = []
    full = extract_all(result.circuit, result.placement, result.routed)
    if set(full) != set(result.parasitics):
        problems.append("extraction: net sets differ (full vs incremental)")
    differing = sorted(n for n in full
                       if full[n] != result.parasitics.get(n))
    if differing:
        problems.append(f"extraction: {len(differing)} nets differ from "
                        f"a full extract_all (first: {differing[0]})")
    sta = run_sta(result.circuit, result.parasitics, result.config.sta)
    incr = result.sta
    for domain in sorted(set(sta.paths) | set(incr.paths)):
        a, b = sta.critical(domain), incr.critical(domain)
        if (a and a.total_ps) != (b and b.total_ps):
            problems.append(f"sta: T_cp of {domain} differs (full vs "
                            "incremental)")
    if sta.hold_violations != incr.hold_violations:
        problems.append("sta: hold-violation count differs (full vs "
                        "incremental)")
    if _path_key(sta.worst_path()) != _path_key(incr.worst_path()):
        problems.append("sta: worst path differs (full vs incremental)")
    return problems
