"""The worker pools: batches of requests through the decide path.

A worker executes whole batches, not single requests: the per-dispatch
overhead (a pipe round trip, span bookkeeping) is paid once per batch,
and a long-lived worker keeps its interned simplices and the zoo
registry across batches, while its decides load transforms and towers
from the diskstore.

Every pool kind has the same three methods: ``start()``, ``async
run(payloads)`` and ``close()``, so the batch queue awaits one line
whichever kind it holds.

``pool="process"`` (:data:`DEFAULT_POOL`, the default of
``ServerConfig.pool`` and of ``repro serve --pool``) is a
:class:`PipePool`: misses are decided in fork-started worker processes.
A decide is milliseconds of pure Python; on a thread it holds the
interpreter lock that the event loop needs to serve cache hits.
:meth:`PipePool.start` forks the workers while the server has no thread
of its own yet.  Each worker reads length-prefixed pickled batches from
a request pipe and writes each reply to a reply pipe that the event
loop itself reads, so no server thread touches a miss.  A worker exits
on end-of-file of its request pipe: when the server closes the pool or
dies, however it died.  A worker that dies fails its in-flight batches
and leaves the rotation; it is not replaced, since forking once the
server's threads exist is what :meth:`PipePool.start` avoids.
Worker-side telemetry (the decide path's spans and counters) is not
merged back.

``pool="thread"`` runs batches on a thread pool inside the server
process: when tracing is on, the decide path's spans and counters land
in the process recorder, and with a single worker the span tree stays
well-nested.  The in-process soak uses it, so that its RSS gate sees the
decides.  Batch and request counts are the dispatcher's
(``service.batches`` / ``service.batched_requests`` in
:mod:`repro.service.batch`), not counted again here.  ``pool="inline"``
executes synchronously on the event loop, which tests use for
determinism.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import struct
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from ..obs import span
from .execution import execute_payload

#: accepted pool kinds for :func:`make_pool`
POOL_KINDS = ("thread", "process", "inline")

#: the server's pool kind unless configured otherwise: decides run in
#: forked processes, off the event loop's interpreter lock
DEFAULT_POOL = "process"

Batch = List[Dict[str, Any]]

#: a pipe frame's length prefix
_HEADER = struct.Struct("!Q")

#: the parent-side pipe ends of every live worker of every pipe pool in
#: this process; a freshly forked worker closes them all, so that only
#: the server holds a worker's request pipe open
_PARENT_ENDS: Set[int] = set()


def run_request_batch(payloads: Batch) -> Batch:
    """Execute one batch of raw request payloads, in order.

    The backend every pool kind runs unless told otherwise.  One
    response per payload, positionally aligned with the input.

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


class WorkerError(RuntimeError):
    """A batch that a worker process raised on, or did not live to answer."""


class InlinePool:
    """Runs each batch on the event loop itself."""

    def __init__(self, backend: Callable[[Batch], Batch] = run_request_batch) -> None:
        self._backend = backend

    def start(self) -> None:
        """Nothing to start."""

    async def run(self, payloads: Batch) -> Batch:
        return self._backend(payloads)

    def close(self) -> None:
        """Nothing to release."""


class ThreadPool(InlinePool):
    """Runs each batch on a thread of the server process."""

    def __init__(self, backend: Callable[[Batch], Batch], workers: int) -> None:
        super().__init__(backend)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )

    async def run(self, payloads: Batch) -> Batch:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._backend, payloads)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


class _Worker:
    """The server's end of one worker process: its two pipes, the bytes
    not yet written to it, the reply bytes not yet parsed, and one
    future per batch it was sent, oldest first."""

    __slots__ = ("pid", "send_fd", "recv_fd", "outbox", "inbox", "waiting")

    def __init__(self, pid: int, send_fd: int, recv_fd: int) -> None:
        self.pid = pid
        self.send_fd = send_fd
        self.recv_fd = recv_fd
        self.outbox = bytearray()
        self.inbox = bytearray()
        self.waiting: Deque["asyncio.Future[Batch]"] = deque()


class PipePool(InlinePool):
    """Fork-started worker processes, fed and read by the event loop."""

    def __init__(self, backend: Callable[[Batch], Batch], workers: int) -> None:
        super().__init__(backend)
        self._size = workers
        self._live: List[_Worker] = []
        self._pids: List[int] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def pids(self) -> List[int]:
        """The process ids of the workers still in the rotation."""
        return [worker.pid for worker in self._live]

    def start(self) -> None:
        """Fork the workers; call on the event loop, before any thread.

        A forked worker starts warm: it inherits the server's imports and
        the zoo registry.
        """
        self._loop = asyncio.get_running_loop()
        for _ in range(self._size):
            worker = self._fork()
            self._pids.append(worker.pid)
            self._live.append(worker)
            self._loop.add_reader(worker.recv_fd, self._on_readable, worker)

    def _fork(self) -> _Worker:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            # the child ends in os._exit, whatever happens: it must never
            # unwind into the server's frames that it inherited
            code = 1
            try:
                for fd in (request_w, reply_r, *_PARENT_ENDS):
                    os.close(fd)
                _serve(self._backend, request_r, reply_w)
                code = 0
            except BrokenPipeError:
                pass  # the server closed the reply pipe mid-batch
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        os.set_blocking(request_w, False)
        os.set_blocking(reply_r, False)
        _PARENT_ENDS.update((request_w, reply_r))
        return _Worker(pid, request_w, reply_r)

    async def run(self, payloads: Batch) -> Batch:
        """Send one batch to the least-loaded live worker; await its reply."""
        if not self._live:
            raise WorkerError("no worker process is left")
        assert self._loop is not None
        worker = min(self._live, key=lambda w: len(w.waiting))
        future = self._loop.create_future()
        worker.waiting.append(future)
        frame = pickle.dumps(payloads, pickle.HIGHEST_PROTOCOL)
        self._send(worker, _HEADER.pack(len(frame)) + frame)
        return await future

    def _send(self, worker: _Worker, data: bytes) -> None:
        """Write without blocking; the pipe's overflow waits in the outbox."""
        if not worker.outbox:
            try:
                data = data[os.write(worker.send_fd, data):]
            except BlockingIOError:
                pass
            except BrokenPipeError:
                return  # the worker is gone; its reply pipe's EOF fails the batch
            if not data:
                return
            assert self._loop is not None
            self._loop.add_writer(worker.send_fd, self._flush, worker)
        worker.outbox += data

    def _flush(self, worker: _Worker) -> None:
        try:
            sent = os.write(worker.send_fd, worker.outbox)
        except BlockingIOError:
            return
        except BrokenPipeError:
            sent = len(worker.outbox)
        del worker.outbox[:sent]
        if not worker.outbox:
            assert self._loop is not None
            self._loop.remove_writer(worker.send_fd)

    def _on_readable(self, worker: _Worker) -> None:
        """Resolve the batches whose replies have fully arrived, in order."""
        try:
            data = os.read(worker.recv_fd, 1 << 16)
        except BlockingIOError:
            return
        if not data:
            self._detach(worker, f"worker process {worker.pid} exited")
            return
        inbox = worker.inbox
        inbox += data
        while len(inbox) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(inbox)[0]
            if len(inbox) < end:
                break
            ok, value = pickle.loads(inbox[_HEADER.size:end])
            del inbox[:end]
            future = worker.waiting.popleft()
            if future.done():
                continue
            if ok:
                future.set_result(value)
            else:
                future.set_exception(WorkerError(value))

    def _detach(self, worker: _Worker, reason: str) -> None:
        """Take a worker out of the rotation and fail its batches."""
        assert self._loop is not None
        self._live.remove(worker)
        self._loop.remove_reader(worker.recv_fd)
        self._loop.remove_writer(worker.send_fd)
        for fd in (worker.send_fd, worker.recv_fd):
            _PARENT_ENDS.discard(fd)
            os.close(fd)
        while worker.waiting:
            future = worker.waiting.popleft()
            if not future.done():
                future.set_exception(WorkerError(reason))

    def close(self) -> None:
        """Close every request pipe, then reap the workers.

        A worker reads EOF and exits once its current batch, if any, is
        done.
        """
        for worker in list(self._live):
            self._detach(worker, "the worker pool is closed")
        for pid in self._pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self._pids = []


def _serve(backend: Callable[[Batch], Batch], recv_fd: int, send_fd: int) -> None:
    """A worker's loop: one frame in, one frame out, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the server handles ^C
    signal.set_wakeup_fd(-1)  # inherited: it would wake the server's loop
    with open(recv_fd, "rb") as inbox, open(send_fd, "wb") as outbox:
        while len(head := inbox.read(_HEADER.size)) == _HEADER.size:
            body = inbox.read(_HEADER.unpack(head)[0])
            try:
                frame = pickle.dumps(
                    (True, backend(pickle.loads(body))), pickle.HIGHEST_PROTOCOL
                )
            except Exception as exc:
                frame = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            outbox.write(_HEADER.pack(len(frame)) + frame)
            outbox.flush()


def make_pool(
    kind: str,
    workers: int = 1,
    backend: Callable[[Batch], Batch] = run_request_batch,
) -> InlinePool:
    """A pool of ``kind`` running ``backend`` on each batch."""
    if kind == "inline":
        return InlinePool(backend)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if kind == "thread":
        return ThreadPool(backend, workers)
    if kind == "process":
        return PipePool(backend, workers)
    raise ValueError(f"unknown pool kind {kind!r}; use one of {POOL_KINDS}")


__all__ = [
    "DEFAULT_POOL",
    "POOL_KINDS",
    "InlinePool",
    "PipePool",
    "ThreadPool",
    "WorkerError",
    "make_pool",
    "run_request_batch",
]
