"""The sustained-soak harness: growth-gated long-haul load.

Two replay passes answer "how fast is a warm cache?".  This module
answers the operational question the ROADMAP's soak item asks — **does
the server leak?** — which two passes cannot: RSS,
keymap and cache growth only separate from warmup noise over a
sustained run.  The methodology:

1. drive a seeded zipf workload (the duplicate-heavy stream of
   :func:`repro.service.client.make_workload`) from ``concurrency`` client threads that *cycle* the
   stream until the deadline — a fixed request count would make the
   observed duration depend on server speed, and growth slopes need a
   controlled time axis;
2. scrape ``GET /metrics?format=json`` every ``scrape_interval``
   seconds throughout, validating each snapshot against
   ``repro-metrics/1`` (a soak that silently collected garbage scrapes
   would gate on nothing);
3. after the deadline, fit least-squares growth slopes over the final
   snapshot's ``resources`` time series — the server-side sampler ring,
   so the numbers are identical whether the server is in-process or
   across the network — excluding the warmup fraction;
4. compare each declared budget against its slope and exit nonzero on
   any excess.

Per-request latencies are folded straight into a
:class:`repro.obs.metrics.LatencyHistogram` (bounded memory: an
hours-long soak must not accumulate a per-request list), and the report
is schema-validated ``repro-soak/1``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..obs.metrics import (
    LatencyHistogram,
    quantile_from_snapshot,
    validate_metrics,
)
from ..obs.sampler import series_slopes
from .client import (
    DEFAULT_SPEC_POOL,
    ServiceClient,
    make_workload,
    workload_duplication,
)
from .server import ServerConfig, ServerThread

#: soak report format identifier
SCHEMA = "repro-soak/1"

#: budget name -> the sampler series its slope is fitted from
BUDGET_SOURCES = {
    "rss_bytes_per_s": "rss_bytes",
    "keymap_entries_per_s": "keymap_entries",
    "cache_entries_per_s": "cache_memory_entries",
}


@dataclass
class SoakBudgets:
    """Declared per-second growth ceilings; ``None`` = not gated.

    Units are the series' own (bytes/s for RSS, entries/s for keymap
    and cache).  A *negative* budget always trips on a non-negative
    slope — the trick the exit-1 tests and a deliberate canary job use.
    """

    rss_bytes_per_s: Optional[float] = None
    keymap_entries_per_s: Optional[float] = None
    cache_entries_per_s: Optional[float] = None

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "rss_bytes_per_s": self.rss_bytes_per_s,
            "keymap_entries_per_s": self.keymap_entries_per_s,
            "cache_entries_per_s": self.cache_entries_per_s,
        }

    def violations(self, slopes: Dict[str, float]) -> List[str]:
        """Human-readable budget excesses (empty = under budget)."""
        problems: List[str] = []
        for budget_name, series in BUDGET_SOURCES.items():
            ceiling = self.as_dict()[budget_name]
            if ceiling is None:
                continue
            slope = slopes.get(series)
            if slope is None:
                problems.append(
                    f"{budget_name}: no {series!r} series to gate on"
                )
            elif slope > ceiling:
                problems.append(
                    f"{budget_name}: growth {slope:.3f}/s exceeds the "
                    f"{ceiling:.3f}/s budget"
                )
        return problems


class _LoadState:
    """Shared counters the client threads fold results into."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.histogram = LatencyHistogram()
        self.requests = 0
        self.ok = 0
        self.errors = 0
        self.cached = 0


def _load_worker(
    url: str,
    stream: List[Dict[str, Any]],
    offset: int,
    deadline: float,
    state: _LoadState,
) -> None:
    """Cycle the stream (starting at ``offset``) until the deadline."""
    client = ServiceClient(url)
    index = offset % len(stream)
    try:
        while time.monotonic() < deadline:
            started = time.perf_counter()
            try:
                response = client.solve(stream[index])
            except Exception:
                with state.lock:
                    state.requests += 1
                    state.errors += 1
                return  # a dead connection ends this worker, not the soak
            latency = time.perf_counter() - started
            state.histogram.record(latency)
            with state.lock:
                state.requests += 1
                if response.get("ok"):
                    state.ok += 1
                else:
                    state.errors += 1
                if response.get("cached"):
                    state.cached += 1
            index = (index + 1) % len(stream)
    finally:
        client.close()


def run_soak(
    *,
    duration: float = 20.0,
    concurrency: int = 4,
    requests: int = 200,
    pool_size: int = 6,
    skew: float = 1.2,
    seed: int = 0,
    scrape_interval: float = 2.0,
    warmup_fraction: float = 0.25,
    budgets: Optional[SoakBudgets] = None,
    url: Optional[str] = None,
    server_config: Optional[ServerConfig] = None,
    scrapes_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one soak; returns a validated ``repro-soak/1`` report.

    With ``url=None`` an in-process :class:`ServerThread` is started and
    torn down around the run (CI's mode: the sampler, access log and
    metrics all live in this process); otherwise the load and scrapes
    target the external server.  ``scrapes_path`` appends every scrape
    as one JSONL line — the artifact CI uploads.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if scrape_interval <= 0:
        raise ValueError(
            f"scrape_interval must be positive, got {scrape_interval}"
        )
    budgets = budgets or SoakBudgets()
    stream = make_workload(
        requests, pool=DEFAULT_SPEC_POOL[: max(1, pool_size)], skew=skew, seed=seed
    )

    owned_server: Optional[ServerThread] = None
    if url is None:
        # a thread pool by default: decides then grow this process's
        # RSS, which is the one the RSS budget reads
        owned_server = ServerThread(server_config or ServerConfig(pool="thread"))
        owned_server.start()
        url = owned_server.url
    state = _LoadState()
    scrape_count = 0
    scrape_failures = 0
    scrapes_fh = open(scrapes_path, "a", encoding="utf-8") if scrapes_path else None
    try:
        started = time.monotonic()
        deadline = started + duration
        threads = [
            threading.Thread(
                target=_load_worker,
                args=(url, stream, i * len(stream) // max(1, concurrency),
                      deadline, state),
                name=f"repro-soak-{i}",
            )
            for i in range(concurrency)
        ]
        for thread in threads:
            thread.start()

        scraper = ServiceClient(url)
        try:
            while time.monotonic() < deadline:
                time.sleep(min(scrape_interval, max(0.0, deadline - time.monotonic())))
                try:
                    snapshot = scraper.metrics()
                except Exception:
                    scrape_failures += 1
                    continue
                scrape_count += 1
                if scrapes_fh is not None:
                    scrapes_fh.write(json.dumps(snapshot, sort_keys=True) + "\n")
                    scrapes_fh.flush()
            for thread in threads:
                thread.join(timeout=30.0)
            # the final scrape, after the load drained, carries the full
            # resource ring the slopes are fitted over
            final = scraper.metrics()
            final_stats = scraper.stats()
        finally:
            scraper.close()
        elapsed = time.monotonic() - started
    finally:
        if scrapes_fh is not None:
            scrapes_fh.close()
        if owned_server is not None:
            owned_server.stop()

    problems = validate_metrics(final)
    if problems:  # pragma: no cover - client.metrics() already validates
        raise ValueError(f"final scrape is not valid repro-metrics/1: {problems}")
    resources = final.get("resources") or {"samples": []}
    slopes = series_slopes(resources, warmup_fraction=warmup_fraction)
    over_budget = budgets.violations(slopes)
    latency = state.histogram.snapshot()
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "duration_seconds": elapsed,
        "config": {
            "duration": duration,
            "concurrency": concurrency,
            "requests": requests,
            "distinct_specs": round(
                len(stream) / max(workload_duplication(stream), 1e-9)
            ),
            "skew": skew,
            "seed": seed,
            "scrape_interval": scrape_interval,
            "warmup_fraction": warmup_fraction,
            "url": url,
        },
        "requests": state.requests,
        "ok": state.ok,
        "errors": state.errors,
        "hit_rate": (state.cached / state.requests) if state.requests else 0.0,
        "throughput_rps": (state.requests / elapsed) if elapsed > 0 else 0.0,
        "latency": latency,
        "latency_ms": {
            "p50": quantile_from_snapshot(latency, 0.50) * 1000.0,
            "p99": quantile_from_snapshot(latency, 0.99) * 1000.0,
        },
        "scrapes": scrape_count,
        "scrape_failures": scrape_failures,
        "resources": resources,
        "slopes": slopes,
        "budgets": budgets.as_dict(),
        "over_budget": over_budget,
        "passed": not over_budget,
        "server_stats": final_stats,
    }
    problems = validate_soak_report(report)
    if problems:  # pragma: no cover - construction bug, not runtime state
        raise AssertionError(f"built an invalid soak report: {problems}")
    return report


def validate_soak_report(payload: Any) -> List[str]:
    """Problems with one ``repro-soak/1`` document (empty = valid)."""
    if not isinstance(payload, dict):
        return ["soak report must be an object"]
    errors: List[str] = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    for field in ("created_unix", "duration_seconds", "hit_rate", "throughput_rps"):
        if not isinstance(payload.get(field), (int, float)):
            errors.append(f"{field} must be a number")
    for field in ("requests", "ok", "errors", "scrapes"):
        value = payload.get(field)
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{field} must be an integer")
    if not isinstance(payload.get("passed"), bool):
        errors.append("passed must be a boolean")
    slopes = payload.get("slopes")
    if not isinstance(slopes, dict) or not all(
        isinstance(v, (int, float)) for v in slopes.values()
    ):
        errors.append("slopes must map series names to numbers")
    budgets = payload.get("budgets")
    if not isinstance(budgets, dict) or not all(
        v is None or isinstance(v, (int, float)) for v in budgets.values()
    ):
        errors.append("budgets must map budget names to numbers or null")
    if not isinstance(payload.get("over_budget"), list):
        errors.append("over_budget must be a list")
    latency = payload.get("latency")
    if not isinstance(latency, dict) or not isinstance(
        latency.get("buckets"), list
    ):
        errors.append("latency must be a histogram snapshot with buckets")
    resources = payload.get("resources")
    if not isinstance(resources, dict) or not isinstance(
        resources.get("samples"), list
    ):
        errors.append("resources must hold a samples list")
    if (
        isinstance(payload.get("passed"), bool)
        and isinstance(payload.get("over_budget"), list)
        and payload["passed"] != (not payload["over_budget"])
    ):
        errors.append("passed must agree with over_budget")
    return errors


def format_soak_summary(report: Dict[str, Any]) -> str:
    """A human-readable digest of one soak run."""
    lines = [
        f"soak:       {report['duration_seconds']:.1f}s, "
        f"{report['requests']} requests "
        f"({report['throughput_rps']:.0f} req/s, "
        f"hit rate {report['hit_rate']:.3f}, "
        f"{report['errors']} errors)",
        f"latency:    p50 {report['latency_ms']['p50']:.2f}ms, "
        f"p99 {report['latency_ms']['p99']:.2f}ms "
        f"(conservative bucket bounds)",
        f"scrapes:    {report['scrapes']} ok, "
        f"{report['scrape_failures']} failed",
    ]
    slopes = report.get("slopes", {})
    budgets = report.get("budgets", {})
    for budget_name, series in BUDGET_SOURCES.items():
        slope = slopes.get(series)
        if slope is None:
            continue
        ceiling = budgets.get(budget_name)
        gate = f" (budget {ceiling:.3f}/s)" if ceiling is not None else ""
        lines.append(f"growth:     {series} {slope:+.3f}/s{gate}")
    if report.get("over_budget"):
        lines.append("OVER BUDGET:")
        lines.extend(f"  - {problem}" for problem in report["over_budget"])
    else:
        lines.append("verdict:    growth within budget")
    return "\n".join(lines)


__all__ = [
    "BUDGET_SOURCES",
    "SCHEMA",
    "SoakBudgets",
    "format_soak_summary",
    "run_soak",
    "validate_soak_report",
]
