"""The service benchmark: duplicate-heavy load, cache-split latency.

One entry point, :func:`run_service_bench`, behind the ``repro
serve-bench`` CLI.  The methodology:

1. build (or replay) a zipf-skewed, seeded request stream — duplication
   is the point, the service's whole value is that repeated specs are
   served from the memo store;
2. **cold pass** — replay the stream against an empty cache and split
   per-request latencies by the envelope's ``cached`` flag, so the
   uncached sample measures real decide work over HTTP;
3. **steady pass(es)** — replay the same stream again; now essentially
   every request is a hit and the hit-rate / p50 / p99 numbers describe
   the regime the server actually runs in.

The report is ``repro-perf/1`` (so ``repro obs ingest`` and ``obs diff``
work on it unchanged) with one measurement per pass plus the
cached/uncached latency samples, and a derived
``speedup:cached_hit/uncached_decide`` ratio.  Its gates (hit rate, p99
ceiling) catch a cache bypass; speed across commits is measured by the
repository benchmark's ``service-zipf`` workload (``perfbench/``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..perf import Measurement, PerfHarness
from .client import (
    DEFAULT_SPEC_POOL,
    LoadResult,
    make_workload,
    percentile,
    run_load,
    workload_duplication,
)
from .server import ServerConfig, ServerThread


def load_replay_file(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL request stream (one payload object per line)."""
    requests: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ValueError(f"{path}:{lineno}: payload must be an object")
            requests.append(payload)
    if not requests:
        raise ValueError(f"{path}: replay file holds no requests")
    return requests


def _pass_measurement(
    name: str, result: LoadResult, meta: Dict[str, Any]
) -> Measurement:
    return Measurement(
        name=name,
        seconds_each=list(result.latencies),
        counters={
            "requests": float(result.n_requests),
            "ok": float(result.ok_count),
            "errors": float(result.error_count),
            "hit_rate": result.hit_rate,
            "throughput_rps": result.throughput,
            "p50_ms": result.percentile(50) * 1000.0,
            "p99_ms": result.percentile(99) * 1000.0,
        },
        meta=meta,
    )


def _split_latencies(result: LoadResult, cached: bool) -> List[float]:
    return [
        latency
        for latency, flag in zip(result.latencies, result.cached_flags)
        if flag is cached
    ]


def run_service_bench(
    *,
    requests: int = 200,
    concurrency: int = 4,
    pool_size: int = 6,
    skew: float = 1.2,
    seed: int = 0,
    passes: int = 2,
    replay: Optional[str] = None,
    url: Optional[str] = None,
    server_config: Optional[ServerConfig] = None,
) -> Dict[str, Any]:
    """Run the bench; returns ``{"report", "passes", "workload"}``.

    With ``url=None`` an in-process :class:`ServerThread` is started and
    torn down around the run; otherwise the stream is replayed against
    the given external server (the CI smoke job's mode).
    """
    if passes < 2:
        raise ValueError(
            f"need at least 2 passes (cold + steady), got {passes}"
        )
    if replay is not None:
        stream = load_replay_file(replay)
    else:
        stream = make_workload(
            requests,
            pool=DEFAULT_SPEC_POOL[: max(1, pool_size)],
            skew=skew,
            seed=seed,
        )
    duplication = workload_duplication(stream)

    owned_server: Optional[ServerThread] = None
    if url is None:
        owned_server = ServerThread(server_config or ServerConfig())
        owned_server.start()
        url = owned_server.url
    try:
        results = [
            run_load(url, stream, concurrency=concurrency)
            for _ in range(passes)
        ]
    finally:
        if owned_server is not None:
            owned_server.stop()

    cold, steady = results[0], results[-1]
    harness = PerfHarness("service")
    workload_meta = {
        "requests": len(stream),
        "distinct": round(len(stream) / duplication) if duplication else 0,
        "duplication": duplication,
        "concurrency": concurrency,
        "replay": replay,
        "seed": seed,
        "skew": skew,
    }
    for index, result in enumerate(results):
        kind = "cold" if index == 0 else "steady"
        harness.measurements.append(
            _pass_measurement(
                f"pass_{index}_{kind}",
                result,
                dict(workload_meta, pass_index=index),
            )
        )

    uncached = _split_latencies(cold, cached=False)
    cached = _split_latencies(steady, cached=True)
    if uncached:
        harness.measurements.append(
            Measurement(
                name="uncached_decide",
                seconds_each=uncached,
                counters={"p50_ms": percentile(uncached, 50) * 1000.0},
                meta={"source": "cold-pass misses, end-to-end over HTTP"},
            )
        )
    if cached:
        harness.measurements.append(
            Measurement(
                name="cached_hit",
                seconds_each=cached,
                counters={"p50_ms": percentile(cached, 50) * 1000.0},
                meta={"source": "steady-pass hits, end-to-end over HTTP"},
            )
        )

    harness.derived["workload_duplication"] = duplication
    harness.derived["steady_hit_rate"] = steady.hit_rate
    harness.derived["steady_p99_ms"] = steady.percentile(99) * 1000.0
    harness.derived["steady_throughput_rps"] = steady.throughput
    if uncached and cached:
        # p50-over-p50, not best-over-best: the memo store's value is the
        # typical request, and a single lucky uncached run must not
        # deflate the headline ratio
        harness.derived["speedup:cached_hit/uncached_decide"] = percentile(
            uncached, 50
        ) / max(percentile(cached, 50), 1e-9)

    return {
        "report": harness.to_report(),
        "harness": harness,
        "passes": results,
        "workload": workload_meta,
        "url": url,
    }


def check_gates(
    bench: Dict[str, Any],
    *,
    min_hit_rate: Optional[float] = None,
    max_p99_ms: Optional[float] = None,
) -> List[str]:
    """Acceptance-gate violations for a finished bench run (CI's hook)."""
    problems: List[str] = []
    derived = bench["report"]["derived"]
    if min_hit_rate is not None:
        rate = derived.get("steady_hit_rate", 0.0)
        if rate < min_hit_rate:
            problems.append(
                f"steady-state hit rate {rate:.3f} is below the "
                f"{min_hit_rate:.3f} floor"
            )
    if max_p99_ms is not None:
        p99 = derived.get("steady_p99_ms", float("inf"))
        if p99 > max_p99_ms:
            problems.append(
                f"steady-state p99 of {p99:.1f}ms exceeds the "
                f"{max_p99_ms:.1f}ms ceiling"
            )
    return problems


def format_summary(bench: Dict[str, Any]) -> str:
    """A human-readable digest of one bench run."""
    derived = bench["report"]["derived"]
    workload = bench["workload"]
    lines = [
        f"workload:   {workload['requests']} requests over "
        f"{workload['distinct']} distinct specs "
        f"({derived['workload_duplication']:.1f}x duplication, "
        f"concurrency {workload['concurrency']})",
        f"steady:     hit rate {derived['steady_hit_rate']:.3f}, "
        f"p99 {derived['steady_p99_ms']:.2f}ms, "
        f"{derived['steady_throughput_rps']:.0f} req/s",
    ]
    speedup = derived.get("speedup:cached_hit/uncached_decide")
    if speedup is not None:
        lines.append(f"cache win:  cached p50 is {speedup:.1f}x faster "
                     "than an uncached decide")
    return "\n".join(lines)


__all__ = [
    "check_gates",
    "format_summary",
    "load_replay_file",
    "run_service_bench",
]
