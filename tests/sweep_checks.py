"""Checks and helpers for end-to-end ``repro sweep`` and daemon runs.

CI applies them to the outputs of its end-to-end sweeps and of its
daemons; tier-1 tests import the same functions.  Each check raises
``AssertionError`` on a bad file or job and returns a one-line summary
otherwise.

Run:  python tests/sweep_checks.py trace sweep-trace.json
      python tests/sweep_checks.py journal .cache/journal.jsonl --cells 3
      python tests/sweep_checks.py events events.jsonl
      python tests/sweep_checks.py prom metrics.prom
      python tests/sweep_checks.py job-trace job-trace.json
      python tests/sweep_checks.py fault-plan chaos-plan.json --tp 2
      python tests/sweep_checks.py metrics-dedup metrics.json --hits 2
      python tests/sweep_checks.py submit-started URL --tp-percents 0.7,2.7
      python tests/sweep_checks.py recovered-job URL JOB \\
          --tp-percents 0.7,2.7

The last two need a live daemon at ``URL``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.chaos import FaultPlan, FaultSpec
from repro.core.resilience import completed_keys, read_journal
from repro.obs import read_events, validate_chrome_trace, validate_exposition


def check_trace(path) -> str:
    """A merged Chrome trace: schema-valid, holding flow stage spans,
    aligned on the monotonic clock, with each track's OS pid kept in
    its process metadata."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    problems = validate_chrome_trace(obj)
    assert not problems, problems
    names = {e["name"] for e in obj["traceEvents"]}
    assert "tpi_scan" in names and "atpg" in names, sorted(names)
    assert obj["otherData"]["clock"] == "monotonic", obj.get("otherData")
    metas = [e for e in obj["traceEvents"] if e["name"] == "process_name"]
    assert metas and all("os_pid" in m["args"] for m in metas), metas
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


def write_fault_plan(path, tp_percent: float) -> str:
    """A chaos plan killing every attempt of one s38417 cell at
    ``scan_reorder``."""
    FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=tp_percent,
                  stage="scan_reorder", times=-1),
    )).save(path)
    return f"fault plan written: kill s38417 {tp_percent:g}% at scan_reorder"


def check_metrics_dedup(path, hits: int) -> str:
    """A daemon's JSON ``/metrics`` after a re-submitted spec: at least
    ``hits`` cells served from the shared cache, and an idle queue."""
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    assert metrics["cache_hits"] >= hits, metrics
    assert metrics["cache_hit_rate"] > 0, metrics
    assert metrics["queue_depth"] == 0, metrics
    return f"metrics OK: {metrics['cache_hits']} cache hits"


def submit_started(url: str, tp_percents) -> str:
    """Submit an s38417 sweep at scale 0.01 and return its job id once
    a worker has taken it off the queue."""
    from repro.service import ServiceClient, SweepRequest

    client = ServiceClient(url)
    record = client.submit(SweepRequest(
        circuit="s38417", scale=0.01, tp_percents=tp_percents))
    while client.status(record.id)["state"] == "queued":
        time.sleep(0.05)
    return record.id


def check_recovered_job(url: str, job_id: str, tp_percents) -> str:
    """A job interrupted by a daemon kill: re-adopted by the restarted
    daemon, finished, and byte-identical to an in-process sweep."""
    from repro import api
    from repro.service import ServiceClient
    from repro.service.protocol import canonical_result_bytes

    client = ServiceClient(url)
    metrics = client.metrics()
    assert metrics["jobs_interrupted"] >= 1, metrics
    final = client.wait(job_id, timeout_s=600)
    assert final["state"] == "done", final
    served = client.result(job_id).results["s38417"]
    local = api.sweep("s38417", scale=0.01, tp_percents=tp_percents)
    assert canonical_result_bytes(served) == canonical_result_bytes(local)
    return "kill -9 soak OK: recovered job byte-identical"


def _percents(text: str):
    return tuple(float(p) for p in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("trace").add_argument("path")
    journal = sub.add_parser("journal")
    journal.add_argument("path")
    journal.add_argument("--cells", type=int, required=True)
    for name in ("events", "prom", "job-trace"):
        sub.add_parser(name).add_argument("path")
    plan = sub.add_parser("fault-plan")
    plan.add_argument("path")
    plan.add_argument("--tp", type=float, required=True)
    dedup = sub.add_parser("metrics-dedup")
    dedup.add_argument("path")
    dedup.add_argument("--hits", type=int, required=True)
    started = sub.add_parser("submit-started")
    started.add_argument("url")
    recovered = sub.add_parser("recovered-job")
    recovered.add_argument("url")
    recovered.add_argument("job")
    for daemon_check in (started, recovered):
        daemon_check.add_argument("--tp-percents", type=_percents,
                                  required=True)
    args = parser.parse_args(argv)
    if args.check == "journal":
        print(check_journal(args.path, args.cells))
    elif args.check == "fault-plan":
        print(write_fault_plan(args.path, args.tp))
    elif args.check == "metrics-dedup":
        print(check_metrics_dedup(args.path, args.hits))
    elif args.check == "submit-started":
        print(submit_started(args.url, args.tp_percents))
    elif args.check == "recovered-job":
        print(check_recovered_job(args.url, args.job, args.tp_percents))
    else:
        check = {"trace": check_trace, "events": check_events,
                 "prom": check_prom, "job-trace": check_job_trace}
        print(check[args.check](args.path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
