"""repro.obs — structured tracing, metrics, profiling and run history.

Hierarchical spans with wall/CPU timings, monotonic counters, gauges
(with explicit cross-process merge policies), a per-process recorder,
cross-process aggregation of worker snapshots, and a schema-validated
JSON export (``repro-trace/1``).  On top of the traces:

* :mod:`repro.obs.profile` — collapsed-stack ("folded") and Chrome
  trace-event exports for flamegraph.pl / speedscope / Perfetto, plus
  opt-in tracemalloc peak-bytes span attributes;
* :mod:`repro.obs.store` — the persistent ``repro-run/1`` telemetry
  store every traced CLI invocation appends to;
* :mod:`repro.obs.trend` — per-metric history rendering and the
  noise-tolerant regression sentinel behind ``python -m repro obs diff``.

See ``docs/observability.md`` for the span model, the trace/run schemas
and the threshold model, and ``python -m repro trace summary`` for the
pretty-printer.

Typical use::

    from repro import obs

    obs.reset_recorder()
    with obs.tracing():
        verdict = decide_solvability(task)      # records the span tree
    payload = obs.write_trace("trace.json", meta={"command": "decide"})

Tracing is off by default; instrumented hot paths cost one branch per
call site while disabled.  Traces and run records carry spans, counters
and gauges; they have no ``cache`` section (validators still accept the
one older records carry).
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
from .store import (
    SCHEMA as RUN_SCHEMA,
)
from .store import (
    append_run,
    bench_run_record,
    build_run_record,
    find_run,
    latest_run,
    load_record_file,
    load_store,
    resolve_store_path,
    soak_run_record,
    validate_run_record,
)
from .sampler import ResourceSampler, fit_slope, read_rss_bytes, series_slopes
from .summary import format_trace_summary
from .trend import (
    Delta,
    Thresholds,
    diff_records,
    format_diff,
    format_trend,
    regressions,
)

__all__ = [
    "DEFAULT_GAUGE_POLICY",
    "Delta",
    "GAUGE_POLICIES",
    "LatencyHistogram",
    "METRICS_SCHEMA",
    "RUN_SCHEMA",
    "RateMeter",
    "Recorder",
    "ResourceSampler",
    "SCHEMA",
    "SpanRecord",
    "Thresholds",
    "WorkerCapture",
    "annotate",
    "append_run",
    "bench_run_record",
    "build_metrics",
    "build_run_record",
    "build_trace",
    "capture_worker",
    "chrome_trace",
    "counter_add",
    "diff_records",
    "find_run",
    "fit_slope",
    "folded_stacks",
    "format_diff",
    "format_profile",
    "format_trace_summary",
    "format_trend",
    "gauge_set",
    "get_recorder",
    "latest_run",
    "load_record_file",
    "load_store",
    "memory_profiling_enabled",
    "merge_gauge_maps",
    "merge_worker_snapshot",
    "parse_prometheus_text",
    "prometheus_text",
    "read_rss_bytes",
    "regressions",
    "reset_recorder",
    "resolve_store_path",
    "series_slopes",
    "set_gauge_policy",
    "set_memory_profiling",
    "set_tracing",
    "soak_run_record",
    "span",
    "tracing",
    "tracing_enabled",
    "validate_metrics",
    "validate_run_record",
    "validate_trace",
    "write_chrome_trace",
    "write_folded",
    "write_trace",
]
