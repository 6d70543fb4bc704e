"""Config-safe result records.

Every run writes one JSON record naming exactly what produced its
numbers: the workload definition, benchmark and netlist seeds, the
structural hash of the netlist, the ``config_fingerprint`` of the flow
configuration, the Python and numpy versions and the processor count.
:func:`compare` refuses to put two records side by side unless their
workload, netlist hash and config fingerprint agree, so numbers from
different configurations can never be read as a speedup.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, List

import numpy

from repro.core.executor import circuit_structural_hash, config_fingerprint

SCHEMA = 1
#: Keys two records must share before their metrics may be compared.
IDENTITY = ("workload", "spec", "circuit_structural_hash",
            "config_fingerprint", "trace")


class IncomparableRecords(ValueError):
    """Two records come from different configurations."""


def identity(workload, seed: int, heldout: bool, circuit, config,
             trace: bool) -> Dict[str, Any]:
    """The fields that pin down what a record measured."""
    spec = dataclasses.asdict(workload)
    spec.pop("why")
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "spec": spec,
        "seed": seed,
        "heldout": heldout,
        "trace": trace,
        "circuit_structural_hash": circuit_structural_hash(circuit),
        "config_fingerprint": config_fingerprint(config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def write(path: Path, record: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Metric-by-metric lines for two like records.

    Raises:
        IncomparableRecords: The records differ in an :data:`IDENTITY`
            field (named in the message).
    """
    for key in IDENTITY:
        if a.get(key) != b.get(key):
            raise IncomparableRecords(
                f"records differ in {key!r}; refusing to compare "
                f"{a.get('workload')} runs of different configurations")
    lines = []
    ma, mb = a["metrics"], b["metrics"]
    for name in sorted(set(ma) & set(mb)):
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else "       -"
        lines.append(f"{name:34s} {va:14.6g} {vb:14.6g} {ratio} "
                     f"{ma[name]['unit']}")
    return lines
