"""Tracing-overhead experiment: what does ``repro.obs`` cost?

Two questions, answered with numbers in the session summary table:

* **disabled** — the instrumented hot paths pay one attribute load +
  branch per call site while tracing is off (the default).  Measured two
  ways: a micro-bench of the disabled ``span()`` / ``counter_add()``
  call sites themselves, and full ``decide_solvability`` runs (same
  workloads as ``bench_perf_core.py``) whose wall clock is dominated by
  the mathematics — the instrumentation must stay within noise (< 5 %).
* **enabled** — full tracing (span tree + counters + cache deltas) on
  the same decisions, reported as a ratio against the untraced run, with
  the exported ``repro-trace/1`` payload schema-validated.

Run with the tier-2 suite::

    pytest benchmarks/bench_obs.py -m perf --benchmark-smoke
"""

from __future__ import annotations

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
from repro.perf import PerfHarness, validate_report
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

_HARNESS = PerfHarness("obs_overhead")


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
    _, m = _HARNESS.measure(
        "callsites:disabled", _spin_callsites, n, repeat=3, meta={"n": n}
    )
    ns_per_site = m.best / n * 1e9
    m.counters["ns_per_callsite"] = ns_per_site
    report.row(workload="callsites:disabled", n=n, ns_per_site=round(ns_per_site, 1))


def test_decision_overhead_disabled_vs_enabled(report, smoke):
    mode = "smoke" if smoke else "full"
    repeat = 2 if smoke else 3
    for name, make, max_rounds in WORKLOADS[mode]:
        set_tracing(False)
        cache_clear()
        untraced, m_off = _HARNESS.measure(
            f"decide:{name}:untraced",
            _decide,
            make,
            max_rounds,
            repeat=repeat,
            meta={"tracing": False, "mode": mode},
        )

        reset_recorder()
        cache_clear()
        with tracing():
            traced, m_on = _HARNESS.measure(
                f"decide:{name}:traced",
                _decide,
                make,
                max_rounds,
                repeat=repeat,
                meta={"tracing": True, "mode": mode},
            )
            payload = build_trace(meta={"command": f"bench decide {name}"})
        assert validate_trace(payload) == []
        assert traced.status is untraced.status

        overhead = m_on.best / m_off.best - 1.0
        m_on.counters["overhead_fraction"] = overhead
        m_on.counters["spans"] = float(
            sum(1 for root in payload["spans"] for _ in _walk(root))
        )
        report.row(
            workload=f"decide:{name}",
            untraced_s=round(m_off.best, 4),
            traced_s=round(m_on.best, 4),
            overhead=f"{overhead * 100:+.1f}%",
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
    _, m_hist = _HARNESS.measure(
        "metrics:histogram_record", _spin_histogram, hist, n, repeat=3,
        meta={"n": n},
    )
    registry = Recorder()
    _, m_reg = _HARNESS.measure(
        "metrics:registry_record", _spin_registry, registry, n, repeat=3,
        meta={"n": n},
    )
    assert hist.count >= n  # the work really happened
    for m, label in ((m_hist, "histogram_record"), (m_reg, "registry_record")):
        ns_per_record = m.best / n * 1e9
        m.counters["ns_per_record"] = ns_per_record
        report.row(
            workload=f"metrics:{label}", n=n, ns_per_record=round(ns_per_record, 1)
        )


def test_emit_report(report, smoke, tmp_path):
    assert _HARNESS.measurements, "workload benches must run before emission"
    payload = _HARNESS.write(str(tmp_path / "BENCH_obs.json"))
    assert validate_report(payload) == []
    report.row(workload="emit", results=len(payload["results"]), smoke=smoke)
