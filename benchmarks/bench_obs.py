"""Tracing-overhead experiment: what does ``repro.obs`` cost?

Two questions, answered with numbers in the session summary table:

* **disabled** — the instrumented hot paths pay one attribute load +
  branch per call site while tracing is off (the default).  Measured two
  ways: a micro-bench of the disabled ``span()`` / ``counter_add()``
  call sites themselves, and full ``decide_solvability`` runs (a cheap
  and a splitting-heavy zoo task) whose wall clock is dominated by the
  mathematics — the instrumentation must stay within noise (< 5 %).
* **enabled** — full tracing (span tree + counters + cache deltas) on
  the same decisions, reported as a ratio against the untraced run, with
  the exported ``repro-trace/1`` payload schema-validated.

Each workload is timed with ``time.perf_counter`` (best of a few repeats)
and reported through the ``report`` fixture's summary table.

Run with the tier-2 suite::

    pytest benchmarks/bench_obs.py -m perf --benchmark-smoke
"""

from __future__ import annotations

import time

import pytest

from repro import decide_solvability
from repro.obs import (
    build_trace,
    counter_add,
    reset_recorder,
    set_tracing,
    span,
    tracing,
    validate_trace,
)
from repro.tasks.zoo import hourglass_task, path_task, pinwheel_task
from repro.topology import cache_clear

pytestmark = pytest.mark.perf

#: (name, constructor, max_rounds) — a cheap and a splitting-heavy decision
WORKLOADS = {
    "full": [
        ("hourglass", hourglass_task, 1),
        ("pinwheel", pinwheel_task, 1),
    ],
    "smoke": [
        ("path3", lambda: path_task(3), 2),
    ],
}

def _best_of(repeat, fn, *args):
    """``(last result, best wall seconds)`` over ``repeat`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def _decide(make, max_rounds):
    return decide_solvability(make(), max_rounds=max_rounds)


def _spin_callsites(n: int) -> int:
    """The disabled hot-path pattern, n times: one span + one counter."""
    for _ in range(n):
        with span("bench.noop", idx=0):
            counter_add("bench.noop")
    return n


def test_disabled_callsite_microbench(report, smoke):
    set_tracing(False)
    n = 10_000 if smoke else 200_000
    _, best = _best_of(3, _spin_callsites, n)
    ns_per_site = best / n * 1e9
    report.row(workload="callsites:disabled", n=n, ns_per_site=round(ns_per_site, 1))


def test_decision_overhead_disabled_vs_enabled(report, smoke):
    mode = "smoke" if smoke else "full"
    repeat = 2 if smoke else 3
    for name, make, max_rounds in WORKLOADS[mode]:
        set_tracing(False)
        cache_clear()
        untraced, off_s = _best_of(repeat, _decide, make, max_rounds)

        reset_recorder()
        cache_clear()
        with tracing():
            traced, on_s = _best_of(repeat, _decide, make, max_rounds)
            payload = build_trace(meta={"command": f"bench decide {name}"})
        assert validate_trace(payload) == []
        assert traced.status is untraced.status

        overhead = on_s / off_s - 1.0
        report.row(
            workload=f"decide:{name}",
            untraced_s=round(off_s, 4),
            traced_s=round(on_s, 4),
            overhead=f"{overhead * 100:+.1f}%",
            spans=sum(1 for root in payload["spans"] for _ in _walk(root)),
            verdict=traced.status.value,
        )


def _walk(span_dict):
    yield span_dict
    for child in span_dict["children"]:
        yield from _walk(child)


def _spin_histogram(hist, n: int) -> int:
    """The /metrics hot path, n times: one bounded-bucket record."""
    for i in range(n):
        hist.record(0.0001 * (1 + (i & 7)))
    return n


def _spin_registry(registry, n: int) -> int:
    """The server's per-request pattern: labelled lookup + record."""
    for _ in range(n):
        registry.histogram("request_latency_seconds", op="decide").record(0.001)
    return n


def test_live_metrics_hot_path(report, smoke):
    """Per-request cost of /metrics being on: a locked dict increment.

    Two shapes: a bare histogram record (the soak load workers' path)
    and the server's labelled lookup on its recorder + record.  Both must
    stay in the sub-microsecond regime that makes instrumenting every
    HTTP request a non-decision.
    """
    from repro.obs import LatencyHistogram, Recorder

    n = 10_000 if smoke else 200_000
    hist = LatencyHistogram()
    _, hist_s = _best_of(3, _spin_histogram, hist, n)
    _, reg_s = _best_of(3, _spin_registry, Recorder(), n)
    assert hist.count >= n  # the work really happened
    for best, label in ((hist_s, "histogram_record"), (reg_s, "registry_record")):
        ns_per_record = best / n * 1e9
        report.row(
            workload=f"metrics:{label}", n=n, ns_per_record=round(ns_per_record, 1)
        )

