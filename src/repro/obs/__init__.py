"""repro.obs — structured tracing, metrics and profiling.

Hierarchical spans with wall/CPU timings, monotonic counters, gauges
(with explicit cross-process merge policies), a per-process recorder,
cross-process aggregation of worker snapshots, and a schema-validated
JSON export (``repro-trace/1``).  On top of the traces:

* :mod:`repro.obs.profile` — collapsed-stack ("folded") and Chrome
  trace-event exports for flamegraph.pl / speedscope / Perfetto, plus
  opt-in tracemalloc peak-bytes span attributes;
* :mod:`repro.obs.metrics` — the ``repro-metrics/1`` registry behind the
  server's ``/metrics`` exposition;
* :mod:`repro.obs.sampler` — the resource sampler and slope fits behind
  ``serve-soak``.

Regressions are judged by the repository benchmark (``perfbench/``,
parent against change) and by tier-1 goldens of deterministic counters.
See ``docs/observability.md`` for the span model and the trace schema,
and ``python -m repro trace summary`` for the pretty-printer.

Typical use::

    from repro import obs

    obs.reset_recorder()
    with obs.tracing():
        verdict = decide_solvability(task)      # records the span tree
    payload = obs.write_trace("trace.json", meta={"command": "decide"})

Tracing is off by default; instrumented hot paths cost one branch per
call site while disabled.  Traces carry spans, counters and gauges;
they have no ``cache`` section (the validator still accepts the one
older traces carry).
"""

from .export import SCHEMA, build_trace, validate_trace, write_trace
from .metrics import (
    SCHEMA as METRICS_SCHEMA,
)
from .metrics import (
    LatencyHistogram,
    RateMeter,
    build_metrics,
    parse_prometheus_text,
    prometheus_text,
    validate_metrics,
)
from .profile import (
    chrome_trace,
    folded_stacks,
    format_profile,
    write_chrome_trace,
    write_folded,
)
from .recorder import (
    DEFAULT_GAUGE_POLICY,
    GAUGE_POLICIES,
    Recorder,
    SpanRecord,
    WorkerCapture,
    annotate,
    capture_worker,
    counter_add,
    gauge_set,
    get_recorder,
    memory_profiling_enabled,
    merge_gauge_maps,
    merge_worker_snapshot,
    reset_recorder,
    set_gauge_policy,
    set_memory_profiling,
    set_tracing,
    span,
    tracing,
    tracing_enabled,
)
from .sampler import ResourceSampler, fit_slope, read_rss_bytes, series_slopes
from .summary import format_trace_summary

__all__ = [
    "DEFAULT_GAUGE_POLICY",
    "GAUGE_POLICIES",
    "LatencyHistogram",
    "METRICS_SCHEMA",
    "RateMeter",
    "Recorder",
    "ResourceSampler",
    "SCHEMA",
    "SpanRecord",
    "WorkerCapture",
    "annotate",
    "build_metrics",
    "build_trace",
    "capture_worker",
    "chrome_trace",
    "counter_add",
    "fit_slope",
    "folded_stacks",
    "format_profile",
    "format_trace_summary",
    "gauge_set",
    "get_recorder",
    "memory_profiling_enabled",
    "merge_gauge_maps",
    "merge_worker_snapshot",
    "parse_prometheus_text",
    "prometheus_text",
    "read_rss_bytes",
    "reset_recorder",
    "series_slopes",
    "set_gauge_policy",
    "set_memory_profiling",
    "set_tracing",
    "span",
    "tracing",
    "tracing_enabled",
    "validate_metrics",
    "validate_trace",
    "write_chrome_trace",
    "write_folded",
    "write_trace",
]
