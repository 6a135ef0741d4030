"""Per-shard batch queues between the asyncio front end and the pool.

Cache misses do not hit the executor one by one.  Each request key is
assigned to a shard (a stable function of the key's leading hex), every
shard owns an :class:`asyncio.Queue` plus one dispatcher task, and a
dispatcher drains its queue into batches of up to ``batch_size``
requests before handing the batch to the worker pool in a single
executor hop — so a thundering herd of distinct specs costs
``ceil(n / batch_size)`` dispatches per shard, not ``n``.

Duplicate keys never reach the pool twice: a key with a batch already in
flight **coalesces** onto the in-flight future
(``service.coalesced`` counter), which is what drives the end-to-end
cache hit rate toward 1 under duplicate-heavy traffic even before the
first response lands in the memo store.

Every dispatch counts ``service.batches`` / ``service.batched_requests``
into the queue's :class:`~repro.obs.recorder.Recorder` (the server
passes its own); :meth:`BatchQueue.queue_depth` is read at export time.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.recorder import Recorder
from .cache import VerdictCache
from .protocol import make_response

#: sentinel that tells a shard dispatcher to exit
_SHUTDOWN = object()

#: one queued unit of work:
#: (key, raw payload, future to resolve, enqueue time, shared SubmitInfo)
_Item = Tuple[
    str,
    Dict[str, Any],
    "asyncio.Future[Dict[str, Any]]",
    float,
    "SubmitInfo",
]


@dataclass
class SubmitInfo:
    """Per-request dispatch facts the access log records.

    Filled in by the dispatcher at batch-formation time; a coalesced
    submit shares the original item's info object, so every waiter on
    one in-flight key reports the same queue wait and batch size.
    """

    coalesced: bool = False
    queue_wait_seconds: Optional[float] = None
    batch_size: Optional[int] = None


def shard_of(key: str, shards: int) -> int:
    """The stable shard index of a content key."""
    return int(key[:8], 16) % shards


class BatchQueue:
    """Sharded batching dispatcher with in-flight key coalescing."""

    def __init__(
        self,
        backend: Callable[[List[Dict[str, Any]]], List[Dict[str, Any]]],
        pool: Optional[Any],
        *,
        shards: int = 2,
        batch_size: int = 8,
        cache: Optional[VerdictCache] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self._backend = backend
        self._pool = pool
        self.shards = shards
        self.batch_size = batch_size
        self._memo = cache
        self._queues: List[asyncio.Queue] = []
        self._tasks: List[asyncio.Task] = []
        self._pending: Dict[str, Tuple[asyncio.Future, SubmitInfo]] = {}
        self.recorder = recorder if recorder is not None else Recorder()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Create the per-shard queues and dispatcher tasks."""
        self._queues = [asyncio.Queue() for _ in range(self.shards)]
        self._tasks = [
            asyncio.create_task(self._dispatch_loop(i), name=f"shard-{i}")
            for i in range(self.shards)
        ]

    async def stop(self) -> None:
        """Drain-free shutdown: wake every dispatcher and await it."""
        for q in self._queues:
            q.put_nowait(_SHUTDOWN)
        for task in self._tasks:
            await task
        self._tasks = []

    # -- submission --------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests currently enqueued across all shards."""
        return sum(q.qsize() for q in self._queues)

    async def submit(self, key: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve one keyed request through the batch pipeline."""
        response, _info = await self.submit_ex(key, payload)
        return response

    async def submit_ex(
        self, key: str, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], SubmitInfo]:
        """Like :meth:`submit`, plus the dispatch facts for this request.

        The pending-check plus enqueue is synchronous (no ``await``
        between them), so two coroutines submitting the same key cannot
        race past each other on a single event loop.  A coalesced
        submit's info is the *original* item's (shared object): the
        queue wait and batch size it reports are those of the dispatch
        that actually computed the response.
        """
        pending = self._pending.get(key)
        if pending is not None:
            future, info = pending
            self.recorder.add_counter("service.coalesced")
            response = await asyncio.shield(future)
            return response, SubmitInfo(
                coalesced=True,
                queue_wait_seconds=info.queue_wait_seconds,
                batch_size=info.batch_size,
            )
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        info = SubmitInfo()
        self._pending[key] = (future, info)
        self._queues[shard_of(key, self.shards)].put_nowait(
            (key, payload, future, time.perf_counter(), info)
        )
        response = await asyncio.shield(future)
        return response, info

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            first = await queue.get()
            if first is _SHUTDOWN:
                return
            batch: List[_Item] = [first]
            while len(batch) < self.batch_size:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SHUTDOWN:
                    queue.put_nowait(_SHUTDOWN)
                    break
                batch.append(item)
            await self._run_batch(shard, batch)

    async def _run_batch(self, shard: int, batch: List[_Item]) -> None:
        self.recorder.add_counter("service.batches")
        self.recorder.add_counter("service.batched_requests", len(batch))
        dispatch_at = time.perf_counter()
        for _key, _payload, _fut, enqueued_at, info in batch:
            info.queue_wait_seconds = dispatch_at - enqueued_at
            info.batch_size = len(batch)
        payloads = [payload for (_key, payload, _fut, _t, _info) in batch]
        loop = asyncio.get_running_loop()
        try:
            if self._pool is None:
                results = self._backend(payloads)
            else:
                results = await loop.run_in_executor(
                    self._pool, self._backend, payloads
                )
        except Exception as exc:
            # the transport boundary: a defect in one batch must not kill
            # the shard dispatcher (the server maps these to HTTP 500;
            # the CLI path never goes through a BatchQueue, so nothing
            # is silently swallowed there)
            self.recorder.add_counter("service.errors.internal", len(batch))
            for key, payload, future, _enqueued_at, _info in batch:
                self._pending.pop(key, None)
                if not future.done():
                    op = payload.get("op")
                    future.set_result(
                        make_response(
                            key,
                            op if isinstance(op, str) else "decide",
                            error=(
                                "internal-error",
                                f"{type(exc).__name__}: {exc}",
                            ),
                        )
                    )
            return
        for (key, _payload, future, _t, _info), response in zip(batch, results):
            if self._memo is not None:
                self._memo.put(key, response)
            self._pending.pop(key, None)
            if not future.done():
                future.set_result(response)


__all__ = ["BatchQueue", "SubmitInfo", "shard_of"]
