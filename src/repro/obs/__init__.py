"""Observability layer: traces, metrics, events, aggregation.

Zero-dependency telemetry for the Figure 2 flow, the sweep executor
and the serving daemon, organised as four pillars (DESIGN.md §12):

1. **Traces** — :mod:`repro.obs.tracer` records span trees with
   counters/gauges; :mod:`repro.obs.export` renders Chrome trace-event
   JSON and text summaries.
2. **Metrics** — :mod:`repro.obs.metrics` is a registry of counters,
   gauges and log-bucketed histograms;
   :mod:`repro.obs.promtext` encodes it in Prometheus text exposition
   format (and validates scrapes).
3. **Events** — :mod:`repro.obs.events` is a leveled JSONL event log
   with ``run_id``/``job_id``/cell correlation via :func:`bind`.
4. **Aggregation** — :mod:`repro.obs.merge` moves per-process
   traces through JSON files for the exporter to stitch into one
   sweep-level trace.

Everything is off by default and free when off: the process-wide
tracer, registry and event log are shared null singletons until a
caller installs real ones::

    from repro import obs

    with obs.tracing(label="sweep") as tracer:
        ...instrumented code...
        obs.write_chrome_trace("out.json", [tracer.trace()])
"""

from repro.obs.events import (
    NULL_EVENT_LOG,
    EventLog,
    NullEventLog,
    bind,
    emit,
    events_active,
    get_event_log,
    install_event_log,
    install_events_from_env,
    read_events,
)
from repro.obs.export import (
    chrome_trace,
    format_trace_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.merge import (
    collect_trace_files,
    read_trace_file,
    summarize_merged,
    trace_from_dict,
    trace_to_dict,
    write_trace_file,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    inc,
    install_registry,
    log_buckets,
    metrics_active,
    observe,
    set_gauge,
)
from repro.obs.promtext import render_registry, validate_exposition
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Trace,
    Tracer,
    counter,
    gauge,
    get_tracer,
    in_span,
    install,
    span,
    tracing,
    tracing_active,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "NULL_EVENT_LOG",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullEventLog",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "bind",
    "chrome_trace",
    "collect_trace_files",
    "counter",
    "emit",
    "events_active",
    "format_trace_summary",
    "gauge",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "in_span",
    "inc",
    "install",
    "install_event_log",
    "install_events_from_env",
    "install_registry",
    "log_buckets",
    "metrics_active",
    "observe",
    "read_events",
    "read_trace_file",
    "render_registry",
    "set_gauge",
    "span",
    "summarize_merged",
    "trace_from_dict",
    "trace_to_dict",
    "tracing",
    "tracing_active",
    "validate_chrome_trace",
    "validate_exposition",
    "write_chrome_trace",
    "write_trace_file",
]
