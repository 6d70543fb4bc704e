"""Process-wide metrics registry: counters, gauges and histograms.

The span tracer (:mod:`repro.obs.tracer`) answers *why one run was
slow*; this module answers *how the fleet behaves over many runs*.  It
provides the second telemetry pillar: a :class:`MetricsRegistry`
holding named metric families — monotonic **counters**, last-value
**gauges** and log-bucketed **histograms** — each optionally split by
a small set of labels (``stage="atpg"``, ``circuit="s38417"``, ...).

Design constraints mirror the tracer's:

* **Free when off.**  A process-wide :data:`NULL_REGISTRY` is
  installed by default; the module-level helpers (:func:`inc`,
  :func:`observe`, :func:`set_gauge`) degenerate to a no-op method
  call with no allocation and no lock acquisition.  Code under
  measurement never checks whether metrics are on.
* **Prometheus-compatible semantics.**  Histogram buckets follow the
  exposition contract: the bucket labelled ``le=x`` counts every
  observation ``<= x``, buckets are cumulative when rendered, and an
  implicit ``+Inf`` bucket catches the tail, so
  :mod:`repro.obs.promtext` can encode a registry without loss.
* **Mergeable.**  Registries (and individual snapshots) merge:
  counters add, gauges keep the latest write, histograms add
  bucket-wise.  The daemon uses this to fold per-job registries into
  one scrape view.

Thread safety: a registry serialises mutation behind one lock — the
daemon's job workers share a single registry.  The null path takes no
lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def log_buckets(start: float = 0.001, factor: float = 2.0,
                count: int = 17) -> Tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i``.

    The default covers 1 ms .. ~65 s in 17 doubling steps — wide
    enough for both a single extraction stage and a whole chaos sweep.
    ``+Inf`` is always implicit and must not be included.
    """
    if start <= 0:
        raise ValueError("log_buckets start must be > 0")
    if factor <= 1.0:
        raise ValueError("log_buckets factor must be > 1")
    if count < 1:
        raise ValueError("log_buckets count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default histogram buckets for stage/cell/request latencies.
DEFAULT_LATENCY_BUCKETS = log_buckets()

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic accumulator.  Negative increments are rejected."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError("counter increments must be >= 0")
        self.value += delta


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta


class Histogram:
    """Log-bucketed distribution with Prometheus ``le`` semantics.

    ``bounds`` are finite upper bounds in increasing order; an
    observation lands in the first bucket whose bound is ``>= value``
    (i.e. ``value <= le``, boundary inclusive), or in the implicit
    ``+Inf`` bucket past the last bound.  ``bucket_counts`` stores
    per-bucket (non-cumulative) counts with one extra slot for
    ``+Inf``; the exposition layer accumulates them.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        if bounds[-1] == float("inf"):
            raise ValueError("+Inf bucket is implicit; pass finite bounds")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left finds the first bound >= value, which is exactly
        # the Prometheus rule "value <= le": an observation sitting on
        # a boundary belongs to that boundary's bucket, 0 lands in the
        # first bucket, and inf/NaN-free overflow lands in +Inf.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind when off."""

    __slots__ = ()

    value = 0.0
    sum = 0.0
    count = 0
    bounds: Tuple[float, ...] = ()

    def inc(self, delta: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative(self) -> List[Tuple[float, int]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class MetricFamily:
    """All series of one metric name: type, help text and per-label data."""

    __slots__ = ("name", "kind", "help", "bounds", "series")

    def __init__(self, name: str, kind: str, help: str = "",
                 bounds: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.series: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Named metric families, each fanned out by label values.

    The three accessor methods (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) create-or-fetch a series and return the live
    instrument; the shorthand mutators (:meth:`inc`, :meth:`set`,
    :meth:`observe`) do the common one-shot update.  A family's kind
    is fixed at first use — re-registering a name with a different
    kind raises, which catches typo'd instrumentation in tests.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- series access ---------------------------------------------------
    def _series(self, name: str, kind: str, help: str,
                labels: Dict[str, str],
                bounds: Optional[Sequence[float]] = None):
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(
                    name, kind, help,
                    tuple(float(b) for b in bounds) if bounds else None)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"not {kind}")
            if help and not fam.help:
                fam.help = help
            key = _label_key(labels)
            inst = fam.series.get(key)
            if inst is None:
                if kind == "counter":
                    inst = Counter()
                elif kind == "gauge":
                    inst = Gauge()
                else:
                    inst = Histogram(fam.bounds or DEFAULT_LATENCY_BUCKETS)
                fam.series[key] = inst
            return inst

    def describe(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        """Pre-register a family's kind, help text and (for
        histograms) bucket bounds without creating any series — the
        daemon declares its metric vocabulary up front so the first
        scrape after boot already carries HELP lines and so kind
        conflicts surface at startup, not mid-flight."""
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                self._families[name] = MetricFamily(
                    name, kind, help,
                    tuple(float(b) for b in buckets) if buckets else None)
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"not {kind}")
            elif help and not fam.help:
                fam.help = help

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._series(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._series(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        return self._series(name, "histogram", help, labels, bounds=buckets)

    # -- shorthand mutators ---------------------------------------------
    def inc(self, name: str, delta: float = 1.0, help: str = "",
            **labels: str) -> None:
        self.counter(name, help, **labels).inc(delta)

    def set(self, name: str, value: float, help: str = "",
            **labels: str) -> None:
        self.gauge(name, help, **labels).set(value)

    def observe(self, name: str, value: float, help: str = "",
                buckets: Optional[Sequence[float]] = None,
                **labels: str) -> None:
        self.histogram(name, help, buckets=buckets, **labels).observe(value)

    # -- introspection ---------------------------------------------------
    def families(self) -> Iterator[MetricFamily]:
        """Families in sorted-name order (stable exposition)."""
        with self._lock:
            fams = sorted(self._families.values(), key=lambda f: f.name)
        return iter(fams)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def total(self, name: str, **labels: str) -> float:
        """Sum of a counter family's series whose labels include
        ``labels`` (0.0 for an unknown family)."""
        want = set(_label_key(labels))
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return 0.0
            return sum(inst.value for key, inst in fam.series.items()
                       if want <= set(key))

    # -- merging ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms add; gauges take the other side's
        value (latest-write-wins, matching scrape semantics).
        Histogram series must share bucket bounds — both sides come
        from the same instrumentation code, so a mismatch is a bug.
        """
        for fam in other.families():
            for key, inst in list(fam.series.items()):
                labels = dict(key)
                if fam.kind == "counter":
                    self.counter(fam.name, fam.help, **labels).inc(inst.value)
                elif fam.kind == "gauge":
                    self.gauge(fam.name, fam.help, **labels).set(inst.value)
                else:
                    mine = self.histogram(
                        fam.name, fam.help, buckets=inst.bounds, **labels)
                    if mine.bounds != inst.bounds:
                        raise ValueError(
                            f"histogram {fam.name!r} bucket mismatch")
                    for i, n in enumerate(inst.bucket_counts):
                        mine.bucket_counts[i] += n
                    mine.sum += inst.sum
                    mine.count += inst.count


class NullRegistry:
    """Inactive registry: every operation is a cheap no-op.

    Installed process-wide by default, mirroring
    :class:`~repro.obs.tracer.NullTracer` — instrumentation points
    cost one attribute lookup plus an empty method call when metrics
    are off, and always hand back the same shared null instrument.
    """

    enabled = False

    def describe(self, name: str, kind: str, help: str = "",
                 buckets=None) -> None:
        pass

    def counter(self, name: str, help: str = "", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None,
                  **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, delta: float = 1.0, help: str = "",
            **labels) -> None:
        pass

    def set(self, name: str, value: float, help: str = "",
            **labels) -> None:
        pass

    def observe(self, name: str, value: float, help: str = "",
                buckets=None, **labels) -> None:
        pass

    def families(self) -> Iterator[MetricFamily]:
        return iter(())

    def get(self, name: str) -> None:
        return None

    def merge(self, other) -> None:
        pass


NULL_REGISTRY = NullRegistry()

#: The process-wide active registry; NULL_REGISTRY unless installed.
_current = NULL_REGISTRY


def get_registry():
    """The active registry (the shared :data:`NULL_REGISTRY` when off)."""
    return _current


def metrics_active() -> bool:
    """True when a real registry is installed."""
    return _current.enabled


def install_registry(registry):
    """Install ``registry`` process-wide; returns the previous one.

    Scope installs with try/finally (or keep one registry for the
    process lifetime, as the daemon does).
    """
    global _current
    previous = _current
    _current = registry
    return previous


def inc(name: str, delta: float = 1.0, **labels: str) -> None:
    """Bump a counter on the active registry (no-op when off)."""
    _current.inc(name, delta, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active registry (no-op when off)."""
    _current.set(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation on the active registry."""
    _current.observe(name, value, **labels)
