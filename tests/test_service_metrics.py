"""The daemon's JSON ``/metrics`` counters are sums of its registry.

``/metrics`` (JSON) and ``/metrics?format=prom`` read one counter
store, so they cannot drift apart.  The test drives one
:class:`~repro.service.jobs.JobManager` through every job-lifecycle
path that bumps a counter — done, coalesced, cancelled while queued,
expired while queued, rejected at admission — and checks each JSON
counter against the registry series it names.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import JobManager, QueueFullError, SweepRequest
from repro.service.jobs import _default_build_experiment
from repro.service.protocol import TERMINAL_STATES

ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
        "abort_recovery_blocks": 4, "second_chance_factor": 1}

#: JSON counter -> the (family, label filter) series it sums.
PARITY = {
    **{f"jobs_{event}": [("repro_jobs_total", {"event": event})]
       for event in ("submitted", "completed", "failed", "cancelled",
                     "coalesced", "recovered", "interrupted", "rejected",
                     "expired")},
    "cells_done": [("repro_cells_total", {"outcome": "ok"}),
                   ("repro_cells_total", {"outcome": "cached"})],
    "cells_failed": [("repro_cells_total", {"outcome": "failed"}),
                     ("repro_cells_total", {"outcome": "aborted"})],
    "retries": [("repro_task_retries_total", {})],
    "timeouts": [("repro_task_timeouts_total", {})],
    "worker_crashes": [("repro_worker_crashes_total", {})],
    "cache_hits": [("repro_cache_events_total", {"event": "hit"})],
    "cache_misses": [("repro_cache_events_total", {"event": "miss"})],
    "cache_evictions": [("repro_cache_events_total", {"event": "evict"})],
    "cache_write_failures": [("repro_cache_events_total",
                              {"event": "write_failed"})],
    "journal_torn_lines": [("repro_journal_torn_lines_total", {})],
    "store_torn_lines": [("repro_store_torn_lines_total", {})],
}

#: ``/metrics`` keys that are gauges or settings, not counters.
NOT_COUNTERS = {"queue_depth", "running_jobs", "job_workers",
                "worker_utilization", "cache_hit_rate", "jobs_by_state",
                "max_pending", "draining", "degraded", "degraded_reason"}


def registry_sum(registry, family, labels) -> float:
    fam = registry.get(family)
    if fam is None:
        return 0.0
    want = set(labels.items())
    return sum(inst.value for key, inst in fam.series.items()
               if want <= set(key))


def wait_terminal(manager, job_id, timeout_s=300.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if manager.record(job_id).state in TERMINAL_STATES:
            return manager.record(job_id)
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not terminal in {timeout_s}s")


def test_json_counters_equal_their_registry_sums(tmp_path):
    started = threading.Event()
    release = threading.Event()

    def build(request):
        # The first job holds the only worker until every other job
        # is queued, so each lifecycle path is taken deterministically.
        if not started.is_set():
            started.set()
            assert release.wait(60)
        return _default_build_experiment(request)

    def request(tp_percents, **overrides):
        return SweepRequest(circuit="s38417", scale=0.012,
                            tp_percents=tp_percents,
                            options={"atpg": ATPG}, **overrides)

    manager = JobManager(cache_dir=str(tmp_path), job_workers=1,
                         build_experiment=build, max_pending=3)
    try:
        done = manager.submit(request((1.0,)))
        assert started.wait(60)
        twin = manager.submit(request((1.0,)))
        assert twin.coalesced_with == done.id
        cancelled = manager.submit(request((2.0,)))
        expired = manager.submit(request((3.0,), deadline_s=0.01))
        with pytest.raises(QueueFullError):
            manager.submit(request((4.0,)))
        manager.cancel(cancelled.id)
        time.sleep(0.05)  # let the queued job's deadline pass
        release.set()
        for job in (done, twin, cancelled, expired):
            wait_terminal(manager, job.id)
        assert manager.record(expired.id).error.endswith(
            "expired before the job started")

        metrics = manager.metrics()
        assert set(metrics) - NOT_COUNTERS == set(PARITY)
        for key, series in PARITY.items():
            expected = sum(registry_sum(manager.registry, family, labels)
                           for family, labels in series)
            assert metrics[key] == expected, (key, metrics[key], expected)
        assert {key: metrics[key] for key in (
            "jobs_submitted", "jobs_completed", "jobs_coalesced",
            "jobs_cancelled", "jobs_expired", "jobs_rejected",
            "cells_done", "cache_hits", "cache_misses")} == {
            "jobs_submitted": 4, "jobs_completed": 2, "jobs_coalesced": 1,
            "jobs_cancelled": 2, "jobs_expired": 1, "jobs_rejected": 1,
            "cells_done": 2, "cache_hits": 1, "cache_misses": 1}
    finally:
        release.set()
        manager.shutdown()
