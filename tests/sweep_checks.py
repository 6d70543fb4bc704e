"""Checks on the files a ``repro sweep`` run leaves behind.

CI applies them to the outputs of its end-to-end sweeps; tier-1 tests
import the same functions.  Each check raises ``AssertionError`` on a
bad file and returns a one-line summary otherwise.

Run:  python tests/sweep_checks.py trace sweep-trace.json
      python tests/sweep_checks.py journal .cache/journal.jsonl --cells 3
      python tests/sweep_checks.py events events.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.resilience import completed_keys, read_journal
from repro.obs import read_events, validate_chrome_trace


def check_trace(path) -> str:
    """A merged Chrome trace: schema-valid, holding flow stage spans."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    problems = validate_chrome_trace(obj)
    assert not problems, problems
    names = {e["name"] for e in obj["traceEvents"]}
    assert "tpi_scan" in names and "atpg" in names, sorted(names)
    return f"trace OK: {len(obj['traceEvents'])} events"


def check_journal(path, cells: int) -> str:
    """A sweep journal recording the full task lifecycle of a degraded
    sweep and its resume, with ``cells`` cells completed in the end."""
    events = read_journal(path)
    kinds = {e["event"] for e in events}
    assert {"sweep_start", "task_start", "task_done",
            "task_exhausted", "task_resumed",
            "sweep_end"} <= kinds, sorted(kinds)
    assert len(completed_keys(events)) == cells
    return f"journal OK: {len(events)} events"


def check_events(path) -> str:
    """A JSONL event log of a sweep, correlated by run id."""
    events = read_events(path)
    kinds = {e["event"] for e in events}
    assert {"sweep_start", "task_start", "task_done",
            "sweep_end"} <= kinds, sorted(kinds)
    assert any("run_id" in e for e in events)
    return f"event log OK: {len(events)} events"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("trace").add_argument("path")
    journal = sub.add_parser("journal")
    journal.add_argument("path")
    journal.add_argument("--cells", type=int, required=True)
    sub.add_parser("events").add_argument("path")
    args = parser.parse_args(argv)
    if args.check == "trace":
        print(check_trace(args.path))
    elif args.check == "journal":
        print(check_journal(args.path, args.cells))
    else:
        print(check_events(args.path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
