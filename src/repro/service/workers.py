"""The worker-pool backend: batches of requests through the decide path.

A worker executes whole batches, not single requests: the per-dispatch
overhead (executor hop, span bookkeeping) is paid once per batch, and a
long-lived worker keeps its interned simplices, memoized tables and
warm diskstore handles across batches — the same warm-table effect the
census pool measured at 4–8.6x.

``pool="thread"`` (default) runs batches on a thread pool inside the
server process: when tracing is on, the decide path's spans and
counters land in the process recorder, and with the default single
worker the span tree stays well-nested.  ``pool="process"`` forks a
:class:`~concurrent.futures.ProcessPoolExecutor` for CPU-parallel misses
(worker-side telemetry is not merged back — acceptable for a
throughput-oriented deployment).  Batch and request counts are the
dispatcher's (``service.batches`` / ``service.batched_requests`` in
:mod:`repro.service.batch`), not counted again here.  ``pool="inline"``
executes synchronously in the caller, which tests use for determinism.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..obs import span
from .execution import execute_payload

#: accepted pool kinds for :func:`make_pool`
POOL_KINDS = ("thread", "process", "inline")


def run_request_batch(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute one batch of raw request payloads, in order.

    The module-level entry point every pool kind dispatches (picklable,
    so process pools can import it by reference).  One response per
    payload, positionally aligned with the input.

    Payloads may carry a ``_request_id`` rider (the server's per-request
    id).  Riders are stripped before execution — the protocol layer
    tolerates unknown keys, but the request key must hash the canonical
    body, not transport metadata — and surface on the ``service.batch``
    span as the ``request_ids`` attribute, which is what joins an
    access-log line to the span tree that computed it.
    """
    request_ids = [
        rid
        for payload in payloads
        if isinstance(rid := payload.get("_request_id"), str)
    ]
    cleaned = [
        {k: v for k, v in payload.items() if k != "_request_id"}
        if "_request_id" in payload
        else payload
        for payload in payloads
    ]
    with span(
        "service.batch",
        size=len(cleaned),
        request_ids=",".join(request_ids) if request_ids else "",
    ):
        return [execute_payload(payload) for payload in cleaned]


def warm_worker() -> None:
    """Process-pool initializer: build the zoo registry's tables once."""
    from .execution import ZOO  # noqa: F401 - imported for its side effects


def make_pool(kind: str, workers: int = 1) -> Optional[Executor]:
    """An executor for :func:`run_request_batch`, or ``None`` for inline."""
    if kind == "inline":
        return None
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if kind == "thread":
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
    if kind == "process":
        return ProcessPoolExecutor(max_workers=workers, initializer=warm_worker)
    raise ValueError(f"unknown pool kind {kind!r}; use one of {POOL_KINDS}")


__all__ = ["POOL_KINDS", "make_pool", "run_request_batch", "warm_worker"]
