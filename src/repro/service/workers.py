"""The worker-pool backend: batches of requests through the decide path.

A worker executes whole batches, not single requests: the per-dispatch
overhead (executor hop, span bookkeeping) is paid once per batch, and a
long-lived worker keeps its interned simplices and the zoo registry
across batches, while its decides load transforms and towers from the
diskstore.

``pool="process"`` (:data:`DEFAULT_POOL`, the default of
``ServerConfig.pool`` and of ``repro serve --pool``) decides misses in
fork-started worker processes.  A decide is milliseconds of pure
Python; on a thread it holds the interpreter lock that the event loop
needs to serve cache hits.  :func:`start_pool` forks the workers while
the server has no thread of its own yet, and each worker exits when the
server process is gone, however it ended.  Worker-side telemetry (the
decide path's spans and counters) is not merged back.

``pool="thread"`` runs batches on a thread pool inside the server
process: when tracing is on, the decide path's spans and counters land
in the process recorder, and with a single worker the span tree stays
well-nested.  The in-process soak uses it, so that its RSS gate sees the
decides.  Batch and request counts are the dispatcher's
(``service.batches`` / ``service.batched_requests`` in
:mod:`repro.service.batch`), not counted again here.  ``pool="inline"``
executes synchronously in the caller, which tests use for determinism.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional

from ..obs import span
from .execution import execute_payload

#: accepted pool kinds for :func:`make_pool`
POOL_KINDS = ("thread", "process", "inline")

#: the server's pool kind unless configured otherwise: decides run in
#: forked processes, off the event loop's interpreter lock
DEFAULT_POOL = "process"


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


def _exit_with_parent() -> None:
    """Process-pool initializer: exit as soon as the server is gone.

    A pool worker blocks on a task queue whose write end it inherited,
    so a server killed by a signal would otherwise leave it running
    forever, reparented to init.  The parent sentinel is a pipe whose
    other end only the parent (and workers forked after this one, which
    exit first by the same rule) holds open.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


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
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent,
        )
    raise ValueError(f"unknown pool kind {kind!r}; use one of {POOL_KINDS}")


def start_pool(pool: Optional[Executor]) -> None:
    """Fork a process pool's workers now and wait until one answers.

    A fork-context pool forks every worker on its first submit, and only
    then starts its manager thread.  Calling this before any other
    thread exists keeps the fork away from locks a thread might hold.
    A forked worker starts warm: it inherits the server's imports and
    the zoo registry.  Thread and inline pools have nothing to start.
    """
    if isinstance(pool, ProcessPoolExecutor):
        pool.submit(os.getpid).result()


__all__ = [
    "DEFAULT_POOL",
    "POOL_KINDS",
    "make_pool",
    "run_request_batch",
    "start_pool",
]
