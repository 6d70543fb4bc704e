"""Zero-dependency span tracer: nested spans, counters and gauges.

The flow's ``stage_seconds`` dict answers *how long* each Figure 2
stage took but not *why* — whether a 5% sweep spends its routing stage
in rip-up iterations or its ATPG stage in PODEM backtracking is
invisible at stage granularity.  This module provides the measurement
substrate: a tracer that records a **span tree** (nested timed
sections) with **counters** (monotonic accumulators, e.g. backtracks)
and **gauges** (last-written values, e.g. budget left) attached to each
span.

Design constraints, in order of importance:

* **Free when off.**  A process-wide :class:`NullTracer` is installed
  by default; every instrumentation point in the code base goes
  through it and degenerates to a no-op method call (no allocation, no
  clock read).  Instrumented hot paths therefore pay ~nothing unless a
  caller opted into tracing.
* **Picklable output.**  A finished trace is plain data
  (:class:`Span`/:class:`Trace` dataclasses of dicts, lists and
  floats), so worker processes can ship their traces back to the sweep
  executor inside a :class:`~repro.core.executor.FlowSummary`.
* **Composable.**  Activation is scoped (``with tracing() as t:``) and
  re-entrant: installing a tracer saves the previous one and restores
  it on exit, so a worker can trace one flow while the parent process
  traces the sweep around it.

Typical use::

    from repro import obs

    with obs.tracing(label="my-flow") as tracer:
        with obs.span("route") as sp:
            sp.counter("nets_routed", 123)
        trace = tracer.trace()

Instrumented library code never checks whether tracing is on — it
calls :func:`span`/:func:`counter`/:func:`gauge` unconditionally and
the active tracer (null by default) absorbs the call.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed section of a trace, possibly with nested children.

    Times are seconds relative to the owning tracer's epoch (a
    monotonic clock), so durations are immune to wall-clock steps.

    Attributes:
        name: Span name (stage spans use the ``STAGE_KEYS`` names).
        t_start: Start offset in seconds.
        t_end: End offset in seconds (0.0 while the span is open).
        counters: Accumulated counts (``counter`` adds).
        gauges: Last-written values (``gauge`` overwrites).
        children: Nested spans, in start order.
    """

    name: str
    t_start: float = 0.0
    t_end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (never negative)."""
        return max(0.0, self.t_end - self.t_start)

    def counter(self, name: str, delta: float = 1.0) -> None:
        """Add ``delta`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value``."""
        self.gauges[name] = float(value)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class _NullSpan:
    """Do-nothing stand-in yielded by :meth:`NullTracer.span`."""

    __slots__ = ()

    name = ""
    t_start = 0.0
    t_end = 0.0
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    children: List[Span] = []
    duration_s = 0.0

    def counter(self, name: str, delta: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class Trace:
    """A finished, picklable span tree plus identity metadata.

    Attributes:
        spans: Root spans, in start order.
        label: Human label of the traced unit (e.g. ``s38417@2%``).
        pid: Process that recorded the trace.
        wall_epoch: ``time.time()`` at tracer start — lets an exporter
            place traces from several processes on one global axis.
        mono_epoch: ``time.perf_counter()`` at tracer start.  On one
            machine this clock is shared across processes (CLOCK_MONOTONIC
            since boot), so merging aligns traces on it when every
            trace carries one — immune to NTP steps that skew
            ``wall_epoch``.  0.0 when unknown.
        counters: Trace-level counters recorded outside any span.
        gauges: Trace-level gauges recorded outside any span.
    """

    spans: List[Span] = field(default_factory=list)
    label: str = ""
    pid: int = 0
    wall_epoch: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    mono_epoch: float = 0.0

    @property
    def duration_s(self) -> float:
        """End of the last root span (trace-relative seconds)."""
        return max((s.t_end for s in self.spans), default=0.0)

    def walk(self) -> Iterator[Span]:
        """Every span in the trace, depth first."""
        for span in self.spans:
            yield from span.walk()

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` anywhere in the trace."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class _SpanContext:
    """Context manager entering/leaving one live span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Records a span tree for one traced unit of work.

    Args:
        label: Human label carried into the resulting :class:`Trace`.
    """

    enabled = True

    def __init__(self, label: str = ""):
        self.label = label
        self.pid = os.getpid()
        self.wall_epoch = time.time()
        self._perf_epoch = time.perf_counter()
        self.roots: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self._stack: List[Span] = []

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self._perf_epoch

    def rel_wall(self, wall_ts: float) -> float:
        """Map a ``time.time()`` stamp into trace-relative seconds."""
        return wall_ts - self.wall_epoch

    # -- spans ----------------------------------------------------------
    def _container(self) -> List[Span]:
        return self._stack[-1].children if self._stack else self.roots

    def span(self, name: str) -> _SpanContext:
        """Open a child span of the innermost open span (or a root)."""
        sp = Span(name=name, t_start=self.now())
        self._container().append(sp)
        self._stack.append(sp)
        return _SpanContext(self, sp)

    def _close(self, span: Span) -> None:
        span.t_end = self.now()
        # Unwind to (and past) the span; tolerates exceptions that
        # skipped inner __exit__ calls.
        while self._stack:
            if self._stack.pop() is span:
                break

    def record_span(
        self,
        name: str,
        t_start: float,
        t_end: float,
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        """Append a span with explicit (trace-relative) times.

        Used for events whose boundaries were measured elsewhere, e.g.
        the executor reconstructing a worker's queue-wait interval from
        wall-clock stamps.
        """
        sp = Span(name=name, t_start=t_start, t_end=max(t_start, t_end))
        if counters:
            sp.counters.update(counters)
        if gauges:
            sp.gauges.update({k: float(v) for k, v in gauges.items()})
        (parent.children if parent is not None
         else self._container()).append(sp)
        return sp

    # -- counters and gauges --------------------------------------------
    def counter(self, name: str, delta: float = 1.0) -> None:
        """Add to a counter on the innermost open span (or the trace)."""
        if self._stack:
            self._stack[-1].counter(name, delta)
        else:
            self.counters[name] = self.counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge on the innermost open span (or the trace)."""
        if self._stack:
            self._stack[-1].gauge(name, value)
        else:
            self.gauges[name] = float(value)

    # -- snapshots -------------------------------------------------------
    def mark(self) -> int:
        """Position marker in the current span container.

        Pair with :meth:`capture` to extract the subtree of spans a
        section of code added at the current nesting level.
        """
        return len(self._container())

    def capture(self, mark: int) -> Optional[Trace]:
        """Trace of the spans appended at this level since ``mark``."""
        spans = list(self._container()[mark:])
        return Trace(
            spans=spans,
            label=self.label,
            pid=self.pid,
            wall_epoch=self.wall_epoch,
            mono_epoch=self._perf_epoch,
        )

    def trace(self) -> Trace:
        """The full trace recorded so far."""
        return Trace(
            spans=list(self.roots),
            label=self.label,
            pid=self.pid,
            wall_epoch=self.wall_epoch,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            mono_epoch=self._perf_epoch,
        )


class NullTracer:
    """Inactive tracer: every operation is a cheap no-op.

    Installed process-wide by default so instrumentation points in
    library code cost one attribute lookup plus an empty method call
    when tracing is off.
    """

    enabled = False
    label = ""
    pid = 0
    wall_epoch = 0.0
    mono_epoch = 0.0

    def now(self) -> float:
        return 0.0

    def rel_wall(self, wall_ts: float) -> float:
        return 0.0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name, t_start, t_end, counters=None,
                    gauges=None, parent=None) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, delta: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def mark(self) -> int:
        return 0

    def capture(self, mark: int) -> None:
        return None

    def trace(self) -> None:
        return None


NULL_TRACER = NullTracer()

#: The process-wide active tracer; NULL_TRACER unless installed.
_current = NULL_TRACER


def get_tracer():
    """The active tracer (the shared :data:`NULL_TRACER` when off)."""
    return _current


def tracing_active() -> bool:
    """True when a real tracer is installed."""
    return _current.enabled


def install(tracer):
    """Install ``tracer`` as the active tracer; returns the previous one.

    Prefer the :func:`tracing` context manager; ``install`` exists for
    callers that cannot scope activation to a ``with`` block.
    """
    global _current
    previous = _current
    _current = tracer
    return previous


class _TracingScope:
    """Context manager installing a fresh tracer for its body."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, label: str):
        self._tracer = Tracer(label)
        self._previous = None

    def __enter__(self) -> Tracer:
        self._previous = install(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> None:
        install(self._previous)


def tracing(label: str = "") -> _TracingScope:
    """Activate a fresh :class:`Tracer` for the ``with`` body.

    Re-entrant: the previously active tracer (possibly the null one) is
    restored on exit, so nested activations compose — the executor's
    workers trace their flow while the parent traces the sweep.
    """
    return _TracingScope(label)


def span(name: str):
    """Open a span on the active tracer (no-op context when off)."""
    return _current.span(name)


def in_span() -> bool:
    """True when the active tracer currently has an open span.

    Lets cross-cutting helpers (e.g. the lint engine) attach their
    spans only *inside* an existing stage span: trace consumers rely
    on the top level being exactly the flow's stage keys.
    """
    return bool(getattr(_current, "_stack", ()))


def counter(name: str, delta: float = 1.0) -> None:
    """Bump a counter on the active tracer's innermost span."""
    _current.counter(name, delta)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active tracer's innermost span."""
    _current.gauge(name, value)
