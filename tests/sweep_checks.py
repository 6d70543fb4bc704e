"""Checks on the files a ``repro sweep`` run or a daemon job leaves behind.

CI applies them to the outputs of its end-to-end sweeps and of its
telemetry daemon; tier-1 tests import the same functions.  Each check
raises ``AssertionError`` on a bad file and returns a one-line summary
otherwise.

Run:  python tests/sweep_checks.py trace sweep-trace.json
      python tests/sweep_checks.py journal .cache/journal.jsonl --cells 3
      python tests/sweep_checks.py events events.jsonl
      python tests/sweep_checks.py prom metrics.prom
      python tests/sweep_checks.py job-trace job-trace.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.resilience import completed_keys, read_journal
from repro.obs import read_events, validate_chrome_trace, validate_exposition


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


def check_prom(path) -> str:
    """A daemon's Prometheus scrape: a valid exposition carrying the
    stage-latency histogram and the queue/uptime gauges."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    problems = validate_exposition(text)
    assert not problems, problems
    assert "# TYPE repro_stage_seconds histogram" in text
    assert 'stage="atpg"' in text
    assert "repro_job_queue_depth" in text
    assert "repro_uptime_seconds" in text
    lines = sum(1 for line in text.splitlines() if line.strip())
    return f"exposition OK: {lines} lines"


def check_job_trace(path) -> str:
    """A daemon job's merged Chrome trace: the job track plus worker
    tracks, with the job's and the flow's spans."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    problems = validate_chrome_trace(obj)
    assert not problems, problems
    pids = {e["pid"] for e in obj["traceEvents"]}
    assert len(pids) >= 2, pids  # job track + worker tracks
    names = {e["name"] for e in obj["traceEvents"]}
    assert {"queue_wait", "run", "atpg"} <= names, sorted(names)
    return (f"job trace OK: {len(obj['traceEvents'])} events, "
            f"{len(pids)} tracks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("trace").add_argument("path")
    journal = sub.add_parser("journal")
    journal.add_argument("path")
    journal.add_argument("--cells", type=int, required=True)
    for name in ("events", "prom", "job-trace"):
        sub.add_parser(name).add_argument("path")
    args = parser.parse_args(argv)
    if args.check == "journal":
        print(check_journal(args.path, args.cells))
    else:
        check = {"trace": check_trace, "events": check_events,
                 "prom": check_prom, "job-trace": check_job_trace}
        print(check[args.check](args.path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
