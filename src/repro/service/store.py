"""Durable job store: the daemon's crash-safe job-state journal.

A :class:`~repro.service.jobs.JobManager` keeps its jobs in memory —
fast, but a daemon crash would orphan every queued and running job
even though their sweep journals and cache artifacts survive on disk.
:class:`JobStore` closes that gap with the same discipline the sweep
journal uses one level down: an append-only JSONL file under
``<cache_dir>/jobs/`` where every job-state transition is one fsync'd
line carrying the full :class:`~repro.service.protocol.JobRecord`
wire form (and, for ``done`` jobs, the complete report payload, so
``/result`` works across a restart without recomputing anything).

Replay (:func:`JobStore.replay`) is torn-line tolerant the same way
the journal reader is — skip and *count*, never stop: after a
``kill -9`` the torn frame sits mid-file once the restarted daemon
appends behind it, so stopping at the first tear would discard every
post-restart transition.  Within one job the *last* intact record
wins; jobs come back in first-submission order so a restarted
daemon's ``/sweeps`` listing matches the pre-crash one.

The store is a journal, not a database: it only ever appends, one
line per transition, so replay cost grows with daemon history.  That
is the right trade for a job queue whose records are small and whose
consistency story must survive ``kill -9`` — compaction can ride a
later PR without changing the format.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.service.protocol import JobRecord, WireError

#: Bump on any incompatible change to the record-line layout.
STORE_VERSION = 2

#: File name of the job-state journal inside the store directory.
STORE_FILENAME = "store.jsonl"


@dataclass
class StoreReplay:
    """What a replayed job store says about past jobs.

    Attributes:
        records: The latest intact :class:`JobRecord` per job id, in
            first-submission order (the order the lines first mention
            each id).
        reports: Wire-encoded sweep reports by job id, from the latest
            record line that carried one (``done`` transitions do).
        torn_lines: Lines the replay had to skip — a torn trailing
            frame after a crash, or mid-file damage.  Non-zero is
            expected exactly once per ``kill -9``; anything more is
            real corruption worth alerting on.
    """

    records: List[JobRecord] = field(default_factory=list)
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    torn_lines: int = 0


class JobStore:
    """Append-only fsync'd journal of job-state transitions.

    One writer (the daemon) appends; :meth:`replay` reads.  Every
    :meth:`record_transition` is durable before it returns, so the
    store never claims less than what actually happened — after a
    crash the worst case is a *final* transition that tore, which
    replay counts and skips, leaving the job in its previous state
    (``running`` → re-adopted as interrupted and resumed; resumption
    is cheap because the sweep's own journal + cache already hold the
    finished cells).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / STORE_FILENAME
        self._handle = open(self.path, "a", encoding="utf-8")
        self._isolate_torn_tail()

    def _isolate_torn_tail(self) -> None:
        """Terminate a torn trailing line before the first append.

        Without this, the first post-restart transition would glue
        onto the half-line a ``kill -9`` left behind, and replay would
        lose both.  One newline confines the damage to exactly the
        torn frame.
        """
        try:
            size = self.path.stat().st_size
            if size == 0:
                return
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
        except OSError:  # pragma: no cover - unreadable store
            return
        if last != b"\n":
            self._handle.write("\n")
            self._handle.flush()

    def record_transition(self, record: JobRecord,  # lint: durable
                          report: Optional[Dict[str, Any]] = None
                          ) -> None:
        """Append one job-state transition; durable before return.

        ``report`` is the wire-encoded sweep report
        (:func:`~repro.service.protocol.report_to_wire`) and travels
        on ``done`` transitions so a restarted daemon can serve
        ``/result`` for jobs that finished in a previous life.
        """
        line = {
            "v": STORE_VERSION,
            "ts": time.time(),
            "record": record.to_wire(),
        }
        if report is not None:
            line["report"] = report
        self._handle.write(
            json.dumps(line, sort_keys=True, separators=(",", ":"))
            + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ----------------------------------------------------------
    @classmethod
    def replay(cls, root) -> StoreReplay:
        """Fold the store's history into its latest per-job state.

        Never raises on damaged content: unparseable lines, foreign
        JSON shapes, unknown store versions and undecodable records
        all count as torn and are skipped — a restarting daemon must
        come up with whatever intact history exists, not crash on the
        byte that crashed its predecessor.
        """
        path = Path(root) / STORE_FILENAME
        replay = StoreReplay()
        if not path.exists():
            return replay
        latest: Dict[str, JobRecord] = {}
        order: List[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except json.JSONDecodeError:
                    replay.torn_lines += 1
                    continue
                if (not isinstance(line, dict)
                        or line.get("v") != STORE_VERSION
                        or not isinstance(line.get("record"), dict)):
                    replay.torn_lines += 1
                    continue
                try:
                    record = JobRecord.from_wire(line["record"])
                except WireError:
                    replay.torn_lines += 1
                    continue
                if record.id not in latest:
                    order.append(record.id)
                latest[record.id] = record
                report = line.get("report")
                if isinstance(report, dict):
                    replay.reports[record.id] = report
        replay.records = [latest[jid] for jid in order]
        return replay
