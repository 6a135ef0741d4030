"""Service client and load generator for the verdict server.

:class:`ServiceClient` is a thin, dependency-free HTTP client
(:mod:`http.client`) used by tests, the soak harness and CI's replay
gate on the service smoke stream.  The load-generation half builds
**duplicate-heavy** request streams — a zipf-skewed draw over a small
spec pool, seeded so every run replays the same traffic — because the
cache-hit behaviour the service exists for only shows up under repeated
keys.

Latency accounting is client-side wall clock per request (the number a
caller actually experiences), summarized with the nearest-rank
percentiles (rank ``ceil(p/100 * n)``) that the replay gate checks.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the verdict server."""


def _split_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` -> ``(host, port)``; scheme optional."""
    trimmed = url.strip()
    for prefix in ("http://", "https://"):
        if trimmed.startswith(prefix):
            trimmed = trimmed[len(prefix):]
            break
    trimmed = trimmed.rstrip("/")
    host, _, port = trimmed.partition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port or http://host:port, got {url!r}")
    return host, int(port)


class ServiceClient:
    """One keep-alive HTTP connection to a :class:`SolvabilityServer`."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        host, port = _split_url(url)
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._conn.connect()
        # stdlib HTTPConnection leaves Nagle on and sends headers and
        # body as two small segments; without TCP_NODELAY that pattern
        # deadlocks with the peer's delayed ACK (~40ms per request),
        # which would swamp every cached-hit latency we measure
        self._conn.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"{method} {path}: non-JSON response ({exc}): {raw[:200]!r}"
            ) from exc
        return response.status, decoded

    def solve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST one request payload; returns the response envelope.

        Raises :class:`ServiceError` on transport-level failures (4xx
        with no envelope); protocol-level failures come back as
        ``ok: false`` envelopes for the caller to inspect.
        """
        status, decoded = self._request("POST", "/v1/solve", payload)
        if status != 200 and "schema" not in decoded:
            raise ServiceError(
                f"POST /v1/solve -> {status}: {decoded.get('error', decoded)}"
            )
        return decoded

    def decide(
        self, task: Any, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Convenience wrapper: a decide request for one task spec."""
        payload: Dict[str, Any] = {"op": "decide", "task": task}
        if params:
            payload["params"] = params
        return self.solve(payload)

    def stats(self) -> Dict[str, Any]:
        status, decoded = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(f"GET /v1/stats -> {status}")
        return decoded

    def metrics(self) -> Dict[str, Any]:
        """One validated ``repro-metrics/1`` snapshot (the JSON variant)."""
        from ..obs.metrics import validate_metrics

        status, decoded = self._request("GET", "/metrics?format=json")
        if status != 200:
            raise ServiceError(f"GET /metrics?format=json -> {status}")
        problems = validate_metrics(decoded)
        if problems:
            raise ServiceError(f"invalid metrics snapshot: {problems}")
        return decoded

    def metrics_text(self) -> str:
        """The Prometheus text exposition, unparsed."""
        status, raw = self._request_raw("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"GET /metrics -> {status}")
        return raw.decode("utf-8")

    def _request_raw(self, method: str, path: str) -> Tuple[int, bytes]:
        """A body-less request whose response is returned as raw bytes."""
        self._conn.request(method, path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def health(self) -> bool:
        try:
            status, decoded = self._request("GET", "/healthz")
        except (OSError, ServiceError):
            return False
        return status == 200 and decoded.get("status") == "ok"

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

#: default zoo names a generated workload draws from — tasks whose
#: uncached decide does real work (tens of ms), with both verdicts
#: represented, so the cached-vs-uncached split measures something
DEFAULT_SPEC_POOL = (
    "3-set-agreement",
    "loop-filled",
    "approx-agreement",
    "loop-hollow",
    "pinwheel",
    "2-set-agreement",
)


def zipf_weights(n: int, skew: float = 1.2) -> List[float]:
    """Unnormalized zipf weights ``1 / rank**skew`` for ranks ``1..n``."""
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


def make_workload(
    n_requests: int,
    *,
    pool: Sequence[Any] = DEFAULT_SPEC_POOL,
    skew: float = 1.2,
    seed: int = 0,
    op: str = "decide",
) -> List[Dict[str, Any]]:
    """A seeded, zipf-skewed stream of request payloads.

    With the default skew the most popular spec accounts for roughly
    half the stream, so a warm cache should field the bulk of the
    traffic — the duplicate-heavy regime the service is designed for.
    """
    rng = random.Random(seed)
    specs = list(pool)
    weights = zipf_weights(len(specs), skew)
    return [
        {"op": op, "task": rng.choices(specs, weights=weights)[0]}
        for _ in range(n_requests)
    ]


def workload_duplication(requests: Sequence[Dict[str, Any]]) -> float:
    """Total requests per distinct payload (>= 1.0; 10.0 = 10x duplication)."""
    if not requests:
        return 0.0
    distinct = {json.dumps(r, sort_keys=True) for r in requests}
    return len(requests) / len(distinct)


# ---------------------------------------------------------------------------
# Load running
# ---------------------------------------------------------------------------


@dataclass
class LoadResult:
    """Per-request latencies and envelope flags from one load run.

    ``error_count`` counts ``ok: false`` envelopes and requests that
    failed in transport (refused or dropped connection, a reply with no
    envelope).  The latter have no latency, so ``ok_count +
    error_count`` is the stream length and ``n_requests`` (the measured
    requests) falls short of it by the transport failures.
    """

    latencies: List[float] = field(default_factory=list)
    cached_flags: List[bool] = field(default_factory=list)
    ok_count: int = 0
    error_count: int = 0
    elapsed: float = 0.0

    @property
    def n_requests(self) -> int:
        return len(self.latencies)

    @property
    def hit_rate(self) -> float:
        if not self.cached_flags:
            return 0.0
        return sum(self.cached_flags) / len(self.cached_flags)

    @property
    def throughput(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.n_requests / self.elapsed

    def percentile(self, p: float) -> float:
        return percentile(self.latencies, p)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in [0, 100]; 0.0 on empty input."""
    if not values:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    # rank ceil(p/100 * n), 1-based; p == 0 reads the minimum
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def run_load(
    url: str,
    requests: Sequence[Dict[str, Any]],
    *,
    concurrency: int = 4,
) -> LoadResult:
    """Replay a request stream against a server and measure client-side.

    ``concurrency`` worker threads each hold one keep-alive connection
    and pull payloads from a shared cursor, so the stream's order is
    preserved per worker but interleaves across workers — the same shape
    a real duplicate-heavy client population produces.  Every request is
    sent, so a failed one counts in ``error_count`` instead of ending its
    worker and leaving the rest of the stream unsent.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be at least 1, got {concurrency}")
    result = LoadResult()
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def worker() -> None:
        client: Optional[ServiceClient] = None
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    if client is None:
                        client = ServiceClient(url)
                    started = time.perf_counter()
                    response = client.solve(requests[index])
                except (OSError, http.client.HTTPException, ServiceError):
                    # the request failed; the next one gets a fresh connection
                    if client is not None:
                        client.close()
                        client = None
                    with lock:
                        result.error_count += 1
                    continue
                latency = time.perf_counter() - started
                with lock:
                    result.latencies.append(latency)
                    result.cached_flags.append(bool(response.get("cached")))
                    if response.get("ok"):
                        result.ok_count += 1
                    else:
                        result.error_count += 1
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=worker, name=f"repro-load-{i}")
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed = time.perf_counter() - started
    return result


__all__ = [
    "DEFAULT_SPEC_POOL",
    "LoadResult",
    "ServiceClient",
    "ServiceError",
    "make_workload",
    "percentile",
    "run_load",
    "workload_duplication",
    "zipf_weights",
]
