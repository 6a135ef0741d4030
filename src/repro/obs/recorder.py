"""The instrument registry: spans, counters, gauges, histograms, meters.

The decision pipeline is a chain of expensive stages — canonicalize
(Theorem 3.1), iterated LAP splitting (Theorem 4.3), obstruction checks,
iterative-deepening map search (Theorem 5.1) — and knowing *where* time
goes requires structure, not scattered ``time.perf_counter()`` pairs.
This module records that structure:

* **spans** — hierarchical timed regions (``span("decide")`` containing
  ``span("transform")`` containing per-facet ``span("split.facet")`` …),
  each with wall-clock and CPU seconds plus free-form attributes;
* **counters** — monotonically accumulated numbers (search nodes,
  backtracks, split steps, conformance runs per phase);
* **gauges** — last-write-wins numbers within one process (population
  sizes, worker counts), combined *across* processes by an explicit
  per-gauge merge policy (default ``"max"``; see
  :func:`merge_gauge_maps`);
* **live instruments** — labelled latency histograms and rate meters
  plus export-time gauge callbacks, rendered with everything else by
  :func:`repro.obs.metrics.build_metrics`;
* **worker snapshots** — serialized recorder state returned by
  :mod:`multiprocessing` pool workers (see :func:`capture_worker`) and
  folded into the parent with :func:`merge_worker_snapshot`, so parallel
  census/conformance runs report *aggregate* counters and cache hit
  rates instead of silently dropping everything the workers did.

Tracing is **off by default** and gated by a module-level flag, exactly
like :func:`repro.topology.cache.set_caching`: when disabled,
:func:`span` returns a shared no-op context manager and
:func:`counter_add` / :func:`gauge_set` return immediately, so the
instrumented hot paths pay one attribute load + branch per call site
(< 5 % on ``benchmarks/bench_perf_core.py``; measured by
``benchmarks/bench_obs.py``).

The gate covers the module-level helpers only: the verdict server owns
a :class:`Recorder` and records into it unconditionally.  A labelled
counter is stored under the flat key ``name{k="v",...}``, so traces
keep one ``{key: number}`` counter map.

The span stack is deliberately per-process and single-threaded; the
library's parallelism is process-based (``repro.analysis.parallel``,
``repro.runtime.conformance``), and worker processes get a fresh
recorder via :func:`capture_worker`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import LatencyHistogram, RateMeter

_enabled: bool = False
_profile_memory: bool = False


class SpanRecord:
    """One completed (or in-flight) timed region of the span tree."""

    __slots__ = (
        "name",
        "attrs",
        "start_unix",
        "start_offset",
        "wall_seconds",
        "cpu_seconds",
        "children",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_unix = 0.0
        # seconds since the owning recorder was created (perf_counter
        # clock): lays sibling spans on one timeline for Chrome-trace
        # export without the jitter of repeated time.time() reads
        self.start_offset = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: List["SpanRecord"] = []

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_unix": self.start_unix,
            "start_offset": self.start_offset,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }

    def walk(self) -> Iterator["SpanRecord"]:
        """Depth-first iteration over this span and all its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"SpanRecord[{self.name}: {self.wall_seconds * 1e3:.2f}ms, "
            f"{len(self.children)} children]"
        )


class _ActiveSpan:
    """Context manager pushing/popping one :class:`SpanRecord`."""

    __slots__ = ("_recorder", "record", "_t0", "_c0", "_mem")

    def __init__(self, recorder: "Recorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self.record = record
        self._t0 = 0.0
        self._c0 = 0.0
        self._mem = False

    def __enter__(self) -> SpanRecord:
        rec = self._recorder
        stack = rec._stack
        (stack[-1].children if stack else rec.roots).append(self.record)
        stack.append(self.record)
        if _profile_memory:
            self._mem = True
            self._mem_enter(rec)
        self.record.start_unix = time.time()
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        self.record.start_offset = self._t0 - rec._origin_perf
        return self.record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.record.wall_seconds = time.perf_counter() - self._t0
        self.record.cpu_seconds = time.process_time() - self._c0
        if exc is not None:
            self.record.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        rec = self._recorder
        if self._mem and rec._mem_stack:
            self._mem_exit(rec)
        stack = rec._stack
        if stack and stack[-1] is self.record:
            stack.pop()
        return False

    def _mem_enter(self, rec: "Recorder") -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        tracemalloc.reset_peak()
        rec._mem_stack.append(0)

    def _mem_exit(self, rec: "Recorder") -> None:
        """Per-span peak-bytes attribution (opt-in, see ``--profile-memory``).

        ``tracemalloc`` keeps one global peak, so each span resets it on
        entry and on exit takes ``max(global peak since entry, peaks its
        children reported)`` — the child bubbles its own peak up through
        ``_mem_stack`` so a parent's number always covers its subtree.
        """
        import tracemalloc

        _, peak = tracemalloc.get_traced_memory()
        own_peak = max(rec._mem_stack.pop(), peak)
        self.record.attrs["mem_peak_bytes"] = int(own_peak)
        if rec._mem_stack:
            rec._mem_stack[-1] = max(rec._mem_stack[-1], own_peak)
        tracemalloc.reset_peak()


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def _cache_raw() -> Dict[str, Tuple[int, int]]:
    """Current-process memoization stats as ``{query: (hits, misses)}``."""
    # imported lazily: obs must stay importable below the topology layer
    from ..topology.cache import cache_info

    return {
        name: (int(stats["hits"]), int(stats["misses"]))
        for name, stats in cache_info().items()
    }


def _cache_delta(
    baseline: Dict[str, Tuple[int, int]], now: Dict[str, Tuple[int, int]]
) -> Dict[str, Dict[str, Any]]:
    """Per-query ``now - baseline``, clamped at zero (``cache_clear`` resets
    the raw counters, which would otherwise produce negative deltas)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, (hits, misses) in sorted(now.items()):
        h0, m0 = baseline.get(name, (0, 0))
        dh, dm = max(hits - h0, 0), max(misses - m0, 0)
        if dh + dm:
            out[name] = {"hits": dh, "misses": dm, "hit_rate": dh / (dh + dm)}
    return out


def merge_cache_maps(*maps: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Sum ``{query: {hits, misses, hit_rate}}`` maps; hit rates recomputed."""
    totals: Dict[str, List[int]] = {}
    for m in maps:
        for name, stats in m.items():
            pair = totals.setdefault(name, [0, 0])
            pair[0] += int(stats["hits"])
            pair[1] += int(stats["misses"])
    return {
        name: {"hits": h, "misses": m, "hit_rate": h / (h + m)}
        for name, (h, m) in sorted(totals.items())
        if h + m
    }


#: How one gauge's values combine across the parent and its pool workers.
#: ``"last"`` reproduces the old implicit dict-update behaviour — which
#: made parallel gauges depend on worker *completion order* — and is
#: therefore never the default.
GAUGE_POLICIES: Dict[str, Any] = {
    "max": max,
    "min": min,
    "sum": lambda values: sum(values),
    "last": lambda values: values[-1],
}

#: Policy applied to a gauge with no explicit entry: ``max`` is order-free
#: and matches the dominant use (high-water marks like population sizes).
DEFAULT_GAUGE_POLICY = "max"


def merge_gauge_maps(
    maps: List[Dict[str, float]],
    policies: Optional[Dict[str, str]] = None,
) -> Dict[str, float]:
    """Combine gauge maps under an explicit per-gauge policy.

    ``maps`` is ordered parent-first, then one map per worker snapshot in
    merge order.  Every policy except ``"last"`` is insensitive to that
    order, so parallel aggregates cannot depend on worker completion
    order (the bug this replaces: last-write-wins ``dict.update``).
    Unknown policy names raise :class:`ValueError` up front.
    """
    policies = policies or {}
    for name, policy in policies.items():
        if policy not in GAUGE_POLICIES:
            raise ValueError(
                f"unknown gauge policy {policy!r} for gauge {name!r}; "
                f"use one of {sorted(GAUGE_POLICIES)}"
            )
    values: Dict[str, List[float]] = {}
    for m in maps:
        for name, value in m.items():
            values.setdefault(name, []).append(float(value))
    return {
        name: GAUGE_POLICIES[policies.get(name, DEFAULT_GAUGE_POLICY)](series)
        for name, series in sorted(values.items())
    }


class Recorder:
    """Spans, counters, gauges, histograms and meters; worker merges."""

    __slots__ = (
        "roots",
        "counters",
        "gauges",
        "gauge_policies",
        "gauge_fns",
        "histograms",
        "meters",
        "labels",
        "worker_snapshots",
        "_stack",
        "_mem_stack",
        "_cache_baseline",
        "_origin_perf",
    )

    def __init__(self) -> None:
        self.roots: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.gauge_policies: Dict[str, str] = {}
        self.gauge_fns: Dict[str, Callable[[], float]] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.meters: Dict[str, RateMeter] = {}
        # series key -> (name, labels), for every labelled series
        self.labels: Dict[str, Tuple[str, Dict[str, str]]] = {}
        self.worker_snapshots: List[Dict[str, Any]] = []
        self._stack: List[SpanRecord] = []
        self._mem_stack: List[int] = []
        self._cache_baseline: Dict[str, Tuple[int, int]] = _cache_raw()
        self._origin_perf: float = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, /, **attrs: Any) -> _ActiveSpan:
        # positional-only so an attribute may itself be called "name"
        return _ActiveSpan(self, SpanRecord(name, attrs))

    def add_counter(self, name: str, value: float = 1.0, /, **labels: str) -> None:
        key = self._series(name, labels) if labels else name
        self.counters[key] = self.counters.get(key, 0.0) + value

    def histogram(self, name: str, /, **labels: str) -> LatencyHistogram:
        return self._instrument(self.histograms, LatencyHistogram, name, labels)

    def meter(self, name: str, /, **labels: str) -> RateMeter:
        return self._instrument(self.meters, RateMeter, name, labels)

    def _instrument(self, table: Dict[str, Any], kind: Any, name: str, labels: Any) -> Any:
        """One series' instrument, created on first use; ``setdefault``
        hands two racing creators the same one."""
        key = self._series(name, labels)
        found = table.get(key)
        return found if found is not None else table.setdefault(key, kind())

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge read at export time, not pushed on change."""
        self.gauge_fns[name] = fn

    def _series(self, name: str, labels: Dict[str, Any]) -> str:
        """The flat key ``name{k="v",...}`` of one series."""
        if not labels:
            return name
        key = name + "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
        if key not in self.labels:
            self.labels[key] = (name, {str(k): str(v) for k, v in labels.items()})
        return key

    def split(self, key: str) -> Tuple[str, Dict[str, str]]:
        """A series key's ``(name, labels)``."""
        return self.labels.get(key, (key, {}))

    def counter_by(self, name: str, label: str) -> Dict[str, float]:
        """``{label value: count}`` over the series of counter ``name``."""
        out: Dict[str, float] = {}
        for key, value in dict(self.counters).items():
            series, labels = self.split(key)
            if series == name and label in labels:
                out[labels[label]] = out.get(labels[label], 0.0) + value
        return out

    def merge_counters(self, other: "Recorder") -> None:
        """Add ``other``'s counters, labelled series included, to these."""
        for key, value in dict(other.counters).items():
            if key in other.labels:
                self.labels[key] = other.labels[key]
            self.counters[key] = self.counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def set_gauge_policy(self, name: str, policy: str) -> None:
        """Choose how ``name`` merges across worker snapshots.

        ``policy`` is one of :data:`GAUGE_POLICIES` (``max`` — the
        default for unconfigured gauges — ``min``, ``sum``, ``last``).
        """
        if policy not in GAUGE_POLICIES:
            raise ValueError(
                f"unknown gauge policy {policy!r}; use one of "
                f"{sorted(GAUGE_POLICIES)}"
            )
        self.gauge_policies[name] = policy

    # -- inspection --------------------------------------------------------

    def walk(self) -> Iterator[SpanRecord]:
        """Depth-first iteration over every recorded span (parent only)."""
        for root in self.roots:
            yield from root.walk()

    def find_span(self, name: str) -> Optional[SpanRecord]:
        """The first span (depth-first) with the given name, or ``None``."""
        for record in self.walk():
            if record.name == name:
                return record
        return None

    def span_names(self) -> List[str]:
        return [record.name for record in self.walk()]

    def own_cache(self) -> Dict[str, Dict[str, Any]]:
        """This process's memoization activity since the recorder was created."""
        return _cache_delta(self._cache_baseline, _cache_raw())

    # -- cross-process aggregation -----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable state for crossing a process boundary."""
        return {
            "worker": os.getpid(),
            "spans": [root.as_dict() for root in self.roots],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "gauge_policies": dict(self.gauge_policies),
            "cache": self.own_cache(),
        }

    def merge_worker(
        self,
        snapshot: Dict[str, Any],
        gauge_policies: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold one worker snapshot into this (parent) recorder.

        Counters and cache stats are summed at aggregation time — those
        merges are unambiguous.  Gauges are not: before this parameter,
        parallel gauge values depended on worker completion order
        (last-write-wins by dict update).  Every gauge now merges under
        an explicit policy — ``"max"`` unless overridden here or via
        :meth:`set_gauge_policy` — so ``workers=1`` and ``workers=N``
        produce identical :meth:`aggregate_gauges`.
        """
        if gauge_policies:
            for name, policy in gauge_policies.items():
                self.set_gauge_policy(name, policy)
        # the worker's own policy choices ride back in its snapshot; an
        # explicit parent-side policy (above, or set_gauge_policy) wins
        for name, policy in snapshot.get("gauge_policies", {}).items():
            if name not in self.gauge_policies:
                self.set_gauge_policy(name, policy)
        self.worker_snapshots.append(snapshot)

    def aggregate_gauges(self) -> Dict[str, float]:
        """Parent + worker gauges merged under the per-gauge policies."""
        return merge_gauge_maps(
            [self.gauges]
            + [dict(snap.get("gauges", {})) for snap in self.worker_snapshots],
            self.gauge_policies,
        )

    def aggregate_counters(self) -> Dict[str, float]:
        """Parent counters plus the sum of every merged worker's counters."""
        totals = dict(self.counters)
        for snap in self.worker_snapshots:
            for name, value in snap.get("counters", {}).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def aggregate_cache(self) -> Dict[str, Dict[str, Any]]:
        """Parent + worker memoization stats, summed per query.

        This is the number the parallel census/conformance engines could
        not report before: worker hits/misses used to vanish with the
        worker process, so parallel runs under-reported cache
        effectiveness.  ``workers=1`` and ``workers=N`` aggregates are
        equal on the same workload (pinned by
        ``tests/test_obs_integration.py``).
        """
        return merge_cache_maps(
            self.own_cache(),
            *(snap.get("cache", {}) for snap in self.worker_snapshots),
        )


_recorder = Recorder()


def get_recorder() -> Recorder:
    """The process-wide recorder currently collecting spans."""
    return _recorder


def reset_recorder() -> Recorder:
    """Install a fresh recorder (and cache baseline); returns the old one."""
    global _recorder
    previous = _recorder
    _recorder = Recorder()
    return previous


def tracing_enabled() -> bool:
    """Whether spans/counters are currently being recorded."""
    return _enabled


def set_tracing(enabled: bool) -> bool:
    """Globally enable/disable tracing; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def memory_profiling_enabled() -> bool:
    """Whether spans attach ``mem_peak_bytes`` (tracemalloc) attributes."""
    return _profile_memory


def set_memory_profiling(enabled: bool) -> bool:
    """Opt spans in/out of tracemalloc peak-bytes attrs; returns previous.

    Off by default and independent of :func:`set_tracing` — tracemalloc
    slows allocation-heavy code by an order of magnitude, so memory
    profiling must never ride along silently with ``--trace``.  Enabling
    starts tracemalloc lazily on the first profiled span; switching from
    on to off stops tracemalloc.
    """
    global _profile_memory
    previous = _profile_memory
    _profile_memory = bool(enabled)
    if not _profile_memory and previous:
        import tracemalloc

        if tracemalloc.is_tracing():
            tracemalloc.stop()
    return previous


@contextmanager
def tracing(enabled: bool = True) -> Iterator[Recorder]:
    """Run a block with tracing switched on (or off) and restored after."""
    previous = set_tracing(enabled)
    try:
        yield _recorder
    finally:
        set_tracing(previous)


def span(name: str, /, **attrs: Any) -> Any:
    """A timed region; a no-op singleton when tracing is disabled.

    Use as ``with span("decide", task=name) as sp:`` — ``sp`` is the
    mutable :class:`SpanRecord` when tracing, ``None`` otherwise (use
    :func:`annotate` to attach attributes without branching on that).
    The span name is positional-only, so any keyword — including
    ``name=…`` — is an attribute.
    """
    if not _enabled:
        return _NULL_SPAN
    return _recorder.span(name, **attrs)


def annotate(record: Optional[SpanRecord], /, **attrs: Any) -> None:
    """Attach attributes to an active span; no-op on the disabled ``None``."""
    if record is not None:
        record.attrs.update(attrs)


def counter_add(name: str, value: float = 1.0) -> None:
    """Accumulate into a monotonic counter (no-op while disabled)."""
    if _enabled:
        _recorder.add_counter(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a last-write-wins gauge (no-op while disabled)."""
    if _enabled:
        _recorder.set_gauge(name, value)


def set_gauge_policy(name: str, policy: str) -> None:
    """Declare how ``name`` merges across worker snapshots.

    Unlike :func:`gauge_set`, the declaration applies even while tracing
    is disabled — a merge policy is configuration, not a recording, and
    must be in place before any worker snapshot is merged.
    """
    _recorder.set_gauge_policy(name, policy)


class WorkerCapture:
    """Box carrying a worker's snapshot out of :func:`capture_worker`."""

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: Optional[Dict[str, Any]] = None


@contextmanager
def capture_worker() -> Iterator[WorkerCapture]:
    """Record a pool worker's block into a fresh recorder and snapshot it.

    Used inside :mod:`multiprocessing` worker entry points (one capture
    per work item): a fresh recorder is installed (so fork-inherited
    parent state cannot leak in), tracing is enabled, and on exit the
    block's spans, counters and *cache-delta* are serialized into
    ``capture.snapshot`` for the parent to fold in with
    :func:`merge_worker_snapshot`.  The previous recorder and flag are
    always restored — pool workers are reused across work items, so each
    item's snapshot must cover exactly its own activity.
    """
    global _recorder
    previous_recorder = _recorder
    previous_flag = set_tracing(True)
    fresh = Recorder()
    _recorder = fresh
    capture = WorkerCapture()
    try:
        yield capture
    finally:
        capture.snapshot = fresh.snapshot()
        _recorder = previous_recorder
        set_tracing(previous_flag)


def merge_worker_snapshot(snapshot: Dict[str, Any]) -> None:
    """Parent-side fold of one worker snapshot into the current recorder."""
    _recorder.merge_worker(snapshot)
