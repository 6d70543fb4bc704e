"""Cube-identity gate for the PODEM search.

Every :meth:`PodemEngine.generate` call that a full compact ATPG run
makes on a small s38417 at 0% and 5% TP is recorded — the call's
inputs (fault, ``fixed`` constraints, restart and backtrack
overrides) and its :class:`TestCube` (status, sorted assignment,
backtracks, restarts) — and diffed against
``tests/golden/podem_cubes.json``.

The run covers all three kinds of call the engine sees: unconstrained
primary targets, merged secondary targets (``fixed=`` the open cube)
and the second-chance pass over aborted faults.  A PODEM speedup must
leave every record unchanged: the search order, not just the verdicts,
is part of the contract, because the cubes decide the pattern set.

After an *intentional* change of the search, refresh the golden with::

    PYTHONPATH=src python -m pytest tests/test_podem_identity.py \
        --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.atpg import AtpgConfig
from repro.atpg.podem import PodemEngine
from repro.circuits import s38417_like
from repro.core import FlowConfig
from repro.core.flow import run_flow
from repro.library import cmos130

GOLDEN = Path(__file__).parent / "golden" / "podem_cubes.json"

#: Frozen run settings; changing them invalidates the golden.
SCALE = 0.012
TP_PERCENTS = (0.0, 5.0)
ATPG = dict(seed=2004, backtrack_limit=48)


def _record(fault, fixed, restarts, backtrack_limit, cube) -> list:
    return [
        [fault.net, list(fault.sink) if fault.sink else None, fault.value],
        [list(kv) for kv in sorted(fixed.items())] if fixed else None,
        restarts,
        backtrack_limit,
        cube.status,
        [list(kv) for kv in sorted(cube.assignment.items())],
        cube.backtracks,
        cube.restarts,
    ]


def record_calls(monkeypatch) -> dict:
    """Run the frozen ATPG flows and record every ``generate`` call."""
    original = PodemEngine.generate
    calls: list = []

    def recording(self, fault, fixed=None, restarts=None,
                  backtrack_limit=None):
        # ``fixed`` is the caller's open cube, which it mutates later.
        frozen = dict(fixed) if fixed else None
        cube = original(self, fault, fixed=fixed, restarts=restarts,
                        backtrack_limit=backtrack_limit)
        calls.append(_record(fault, frozen, restarts, backtrack_limit,
                             cube))
        return cube

    monkeypatch.setattr(PodemEngine, "generate", recording)
    library = cmos130()
    runs = {}
    for tp in TP_PERCENTS:
        calls = []
        config = FlowConfig(
            tp_percent=tp, run_layout_phase=False, atpg=AtpgConfig(**ATPG),
        )
        run_flow(s38417_like(scale=SCALE), library, config)
        runs[f"tp{tp:g}"] = calls
    return runs


def _dump(runs: dict) -> str:
    # One record per line keeps the golden diffable.
    lines = ["{"]
    for i, (key, records) in enumerate(runs.items()):
        lines.append(f"  {json.dumps(key)}: [")
        lines.extend(
            "    " + json.dumps(rec, separators=(",", ":"))
            + ("," if j < len(records) - 1 else "")
            for j, rec in enumerate(records)
        )
        lines.append("  ]" + ("," if i < len(runs) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_podem_cubes_match_golden(monkeypatch, update_golden):
    runs = record_calls(monkeypatch)
    if update_golden:
        GOLDEN.write_text(_dump(runs))
    golden = json.loads(GOLDEN.read_text())
    assert list(runs) == list(golden)
    for key, records in runs.items():
        expected = golden[key]
        for i, (got, want) in enumerate(zip(records, expected)):
            assert got == want, f"{key} call {i}: {got} != {want}"
        assert len(records) == len(expected), key


def test_golden_covers_every_call_kind():
    """The golden exercises unconstrained, merged and second-chance
    calls, and all three unconstrained outcomes."""
    golden = json.loads(GOLDEN.read_text())
    records = [rec for recs in golden.values() for rec in recs]
    fixed = [r for r in records if r[1] is not None]
    second = [r for r in records if r[1] is None and r[2] is not None]
    plain = [r for r in records if r[1] is None and r[2] is None]
    assert fixed and second and plain
    assert {"detected", "incompatible"} <= {r[4] for r in fixed}
    assert {"detected", "redundant", "aborted"} <= {r[4] for r in plain}
    assert any(r[7] > 1 for r in records)  # a restart was needed
