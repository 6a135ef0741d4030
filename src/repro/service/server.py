"""The asyncio verdict server: stdlib HTTP over the shared request layer.

One process, one event loop, no framework: connections are accepted with
:func:`asyncio.start_server` and HTTP/1.1 is parsed by hand (request
line, headers, ``Content-Length`` body — the subset the protocol
needs).  The solve path is

    parse -> resolve task -> content key -> cache probe -> batch submit

where the cache probe serves hits without touching the worker pool and a
miss rides a per-shard batch into :func:`repro.service.workers
.run_request_batch`.  Responses to ``POST /v1/solve`` are
``repro-service/1`` envelopes; ``GET /healthz`` and ``GET /v1/stats``
exist for probes and the load generator.

Live observability (the tentpole wiring):

* every request gets a **content-derived request id** —
  ``<key[:12]>.<seq>`` for solve requests (the same content key the
  cache is addressed by) — threaded into the worker span tree as the
  ``service.batch`` span's ``request_ids`` attribute and onto a
  structured JSONL **access log** line (:mod:`repro.service.accesslog`);
* the server, its verdict cache and its batch queue count every event
  exactly once into one :class:`repro.obs.recorder.Recorder`, tracing
  or not.  ``GET /v1/stats`` and ``GET /metrics`` are two reads of it;
  ``/metrics`` renders it as Prometheus text (default) or as
  ``repro-metrics/1`` JSON (``?format=json``);
* a :class:`repro.obs.sampler.ResourceSampler` thread reads the same
  gauge table into a ring exported as the snapshot's ``resources``
  time series — the data the soak harness fits growth slopes over.

The server records no spans: a span stack is not safe across
interleaved coroutines, so spans live in the worker function.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..obs.metrics import build_metrics, prometheus_text
from ..obs.recorder import Recorder, get_recorder, tracing_enabled
from ..obs.sampler import ResourceSampler, read_rss_bytes
from .accesslog import AccessLog
from .batch import BatchQueue
from .cache import VerdictCache
from .execution import resolve_task
from .keys import canonical_dumps, content_hash, json_hash
from .protocol import (
    ProtocolError,
    SCHEMA,
    canonical_body,
    parse_request,
)
from .workers import DEFAULT_POOL, make_pool, run_request_batch, start_pool

#: maximum accepted request body, in bytes (task JSON is small; a larger
#: body is almost certainly a client bug or abuse)
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: the ``op`` latency label of each route; every other path shares
#: ``not_found``, so untrusted paths cannot grow ``/metrics``
_ROUTE_LABELS = {"/healthz": "healthz", "/v1/stats": "v1.stats",
                 "/metrics": "metrics", "/v1/solve": "v1.solve"}


@dataclass
class ServerConfig:
    """Tunables for one :class:`SolvabilityServer` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read ``server.port`` after start
    shards: int = 2
    batch_size: int = 8
    workers: int = 1
    pool: str = DEFAULT_POOL
    access_log: Optional[str] = None  # JSONL path; None = no access log
    sample_interval: float = 1.0  # resource sampler period, seconds


class SolvabilityServer:
    """Async HTTP frontend over the batch queue and verdict cache."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.recorder = Recorder()
        self.cache = VerdictCache(recorder=self.recorder)
        self._pool = make_pool(self.config.pool, self.config.workers)
        self.batches = BatchQueue(
            run_request_batch,
            self._pool,
            shards=self.config.shards,
            batch_size=self.config.batch_size,
            cache=self.cache,
            recorder=self.recorder,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        # spelling -> (request key, canonical body).  Computing a request
        # key means *building the task* (a zoo constructor plus tagged
        # re-serialization, tens of ms for the bigger complexes), which
        # would dominate every cached hit; a byte-identical payload can
        # reuse the canonicalization the first sighting paid for.
        self._keymap: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self.access_log: Optional[AccessLog] = None
        self.sampler: Optional[ResourceSampler] = None
        self._started_monotonic: Optional[float] = None
        self._request_seq = 0  # event-loop-only; suffixes request ids
        for name, fn in self._gauge_sources().items():
            self.recorder.gauge_fn(name, fn)

    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _gauge_sources(self) -> Dict[str, Callable[[], float]]:
        """The gauge table ``/metrics`` reads per scrape and the sampler per
        tick (every source is O(1))."""
        return {
            "uptime_seconds": self.uptime_seconds,
            "rss_bytes": read_rss_bytes,
            "keymap_entries": lambda: float(len(self._keymap)),
            "queue_depth": lambda: float(self.batches.queue_depth()),
            "cache_memory_entries": lambda: float(self.cache.memory_size_stats()["entries"]),
            "cache_memory_bytes": lambda: float(self.cache.memory_size_stats()["approx_bytes"]),
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the pool, the sampler, the shard dispatchers, then listen.

        The pool comes first: a process pool forks its workers before
        the sampler thread and the resolver thread of ``start_server``
        exist.
        """
        start_pool(self._pool)
        self._started_monotonic = time.monotonic()
        if self.config.access_log:
            self.access_log = AccessLog(self.config.access_log)
        self.sampler = ResourceSampler(
            self.recorder.gauge_fns, interval=self.config.sample_interval
        )
        self.sampler.start()
        await self.batches.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain the dispatchers, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batches.stop()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.sampler is not None:
            self.sampler.stop()
        if self.access_log is not None:
            self.access_log.close()

    async def serve_forever(self) -> None:
        """Block on the listen socket until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except ProtocolError as exc:
                    self._observe("-", "-", 400, 0.0, {})
                    await self._write_response(
                        writer, 400, {"error": str(exc)}, keep_alive=False
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                started = time.perf_counter()
                status, payload, access = await self._route(method, path, body)
                latency = time.perf_counter() - started
                self._observe(method, path, status, latency, access)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _observe(
        self,
        method: str,
        path: str,
        status: int,
        latency: float,
        access: Dict[str, Any],
    ) -> None:
        """Record one response: status counter, histograms, meters, log.

        A request too malformed to route has no ``route`` and no latency.
        """
        rec = self.recorder
        rec.add_counter("http_responses", status=str(status))
        rec.meter("requests").record()
        if status >= 400:
            rec.meter("errors").record()
        op = access.get("op") or access.get("route")
        if op is not None:
            rec.histogram("request_latency_seconds", op=op).record(latency)
        tier = access.get("cache_tier")
        if access.get("op"):  # solve requests only: tier is meaningful
            rec.histogram("tier_latency_seconds", tier=tier or "miss").record(latency)
        if access.get("coalesced"):
            rec.meter("coalesced").record()
        if self.access_log is not None:
            self.access_log.write(
                request_id=access.get("request_id", "-"),
                method=method,
                path=path,
                status=status,
                latency_seconds=latency,
                op=access.get("op"),
                key_prefix=access.get("key_prefix"),
                cache_tier=tier,
                coalesced=access.get("coalesced"),
                queue_wait_seconds=access.get("queue_wait_seconds"),
                batch_size=access.get("batch_size"),
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request, or ``None`` on a closed socket."""
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ProtocolError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ProtocolError(f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"request body of {length} bytes is too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _next_request_id(self, content: str) -> str:
        """``<content-derived 12 hex>.<per-process sequence>``.

        The prefix is the request's content key (or a hash of the
        method+path for non-solve endpoints), so identical requests
        share a greppable prefix; the sequence disambiguates the
        individual occurrence.  Event-loop-only increment — no lock.
        """
        self._request_seq += 1
        return f"{content[:12]}.{self._request_seq:06d}"

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], Tuple[str, str]], Dict[str, Any]]:
        path, _, query = path.partition("?")
        access: Dict[str, Any] = {
            "request_id": self._next_request_id(content_hash(f"{method} {path}")),
            "route": _ROUTE_LABELS.get(path, "not_found"),
        }
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, access
            return 200, {"status": "ok", "schema": SCHEMA}, access
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}, access
            return 200, self.stats(), access
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, access
            snapshot = self.metrics_snapshot()
            if "format=json" in query:
                return 200, snapshot, access
            return 200, (prometheus_text(snapshot), "text/plain; version=0.0.4"), access
        if path == "/v1/solve":
            if method != "POST":
                return 405, {"error": "solve is POST-only"}, access
            return await self._solve(body, access)
        return 404, {"error": f"no route {path!r}"}, access

    async def _solve(
        self, body: bytes, access: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}, access
        spelling = canonical_dumps(payload)
        known = self._keymap.get(spelling)
        if known is not None:
            key, canonical = known
            self.recorder.add_counter("service.keymap.hit")
        else:
            try:
                req = parse_request(payload)
                task = resolve_task(req.task)
                canonical = canonical_body(req, task)
            except ProtocolError as exc:
                return 400, {"error": str(exc)}, access
            key = json_hash(canonical)
            self._keymap[spelling] = (key, canonical)
        self.recorder.add_counter(f"service.op.{canonical['op']}")
        # re-derive the id from the content key so the access log, the
        # span attr and the cache entry all share one greppable prefix
        request_id = self._next_request_id(key)
        access.update(
            request_id=request_id,
            op=canonical["op"],
            key_prefix=key[:12],
        )
        hit = self.cache.get(key)
        if hit is not None:
            access["cache_tier"] = "memory"
            return 200, dict(hit, cached=True), access
        # submit the *canonical* body so every spelling of the same
        # request coalesces onto one in-flight computation; the request
        # id rides as a transport-only key the worker strips before
        # execution (and the keymap's stored dict is never mutated)
        response, info = await self.batches.submit_ex(
            key, dict(canonical, _request_id=request_id)
        )
        access.update(
            cache_tier=None,
            coalesced=info.coalesced,
            queue_wait_seconds=info.queue_wait_seconds,
            batch_size=info.batch_size,
        )
        if (
            not response.get("ok")
            and response.get("error", {}).get("kind") == "internal-error"
        ):
            return 500, response, access
        return 200, response, access

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], Tuple[str, str]],
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, tuple):
            text, content_type = payload
            body = text.encode("utf-8")
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- introspection -----------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One ``repro-metrics/1`` snapshot (instruments + resource ring)."""
        resources = self.sampler.series() if self.sampler is not None else None
        return build_metrics(self.recorder, resources=resources)

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe snapshot for ``GET /v1/stats`` and the bench.

        Counts are the recorder's: ``requests`` and ``errors`` sum
        ``http_responses{status}`` (all, and >= 400), which a response
        joins as it is sent — so this read does not count itself.
        """
        counters = self.recorder.counters
        responses = self.recorder.counter_by("http_responses", "status")
        return {
            "schema": SCHEMA,
            "requests": int(sum(responses.values())),
            "errors": int(sum(n for code, n in responses.items() if int(code) >= 400)),
            "uptime_seconds": self.uptime_seconds(),
            "keymap": {"entries": len(self._keymap)},
            "cache": self.cache.stats(),
            "batch": {
                "shards": self.batches.shards,
                "batch_size": self.batches.batch_size,
                "dispatched_batches": int(counters.get("service.batches", 0)),
                "dispatched_requests": int(counters.get("service.batched_requests", 0)),
                "coalesced": int(counters.get("service.coalesced", 0)),
                "queue_depth": self.batches.queue_depth(),
            },
            "pool": self.config.pool,
            "workers": self.config.workers,
        }


class ServerThread:
    """A server on a dedicated thread with its own event loop.

    The synchronous wrapper tests and the bench harness use: ``start()``
    blocks until the listen port is known, ``stop()`` is threadsafe and
    joins the thread.  Usable as a context manager.

    With tracing on, ``stop()`` folds the server's counters into the
    process recorder, so an in-process traced run keeps them (counters
    only: the server records no spans).
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.server = SolvabilityServer(config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        port = self.server.port
        if port is None:
            raise RuntimeError("server is not running")
        return port

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
            if tracing_enabled():
                get_recorder().merge_counters(self.server.recorder)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = [
    "MAX_BODY_BYTES",
    "ServerConfig",
    "ServerThread",
    "SolvabilityServer",
]
