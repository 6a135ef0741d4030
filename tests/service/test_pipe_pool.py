"""The pipe pool behind ``pool="process"``: dead workers, large frames,
reply routing.

A worker that dies fails the batches it held with the transport
boundary's 500 ``internal-error`` and leaves the rotation; a batch frame
larger than the pipe waits in the server's outbox instead of blocking
the event loop that serves cache hits; and every reply resolves the
batch it answers.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import os
import pickle
import signal
import threading
import time

from repro.service.server import ServerConfig, ServerThread, SolvabilityServer
from repro.service.workers import PipePool
from repro.topology import diskstore

#: a synthesize that keeps a worker busy for seconds
SLOW = {"op": "synthesize", "task": "3-set-agreement", "params": {"runs": 2000}}


def _call(port: int, method: str, path: str, payload=None):
    """``(status, parsed body)`` of one request on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=None if payload is None else json.dumps(payload))
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


def _cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _busy_worker(pids, timeout: float = 30.0) -> int:
    """The worker that is using the CPU, i.e. deciding."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        before = {pid: _cpu_ticks(pid) for pid in pids}
        time.sleep(0.2)
        busy = [pid for pid in pids if _cpu_ticks(pid) - before[pid] >= 5]
        if len(busy) == 1:
            return busy[0]
    raise AssertionError("no worker became busy")


def test_a_killed_worker_fails_its_batch_and_leaves_the_rotation(
    tmp_path, caplog, capfd
):
    with caplog.at_level(logging.DEBUG), diskstore.store_at(str(tmp_path / "store")):
        with ServerThread(ServerConfig(pool="process", workers=2)) as st:
            pool = st.server._pool
            decide = {"op": "decide", "task": "consensus"}
            assert _call(st.port, "POST", "/v1/solve", decide)[0] == 200
            entries = st.server.stats()["cache"]["entries"]

            replies = []
            sender = threading.Thread(
                target=lambda: replies.append(_call(st.port, "POST", "/v1/solve", SLOW))
            )
            sender.start()
            victim = _busy_worker(pool.pids)
            os.kill(victim, signal.SIGKILL)
            sender.join(120)
            assert not sender.is_alive()
            status, body = replies[0]
            assert status == 500
            assert body["ok"] is False and body["error"]["kind"] == "internal-error"
            assert str(victim) in body["error"]["message"]
            assert st.server.stats()["cache"]["entries"] == entries  # not cached

            # hits and probes still answer; the survivor decides the next miss
            status, body = _call(st.port, "POST", "/v1/solve", decide)
            assert (status, body["cached"]) == (200, True)
            assert _call(st.port, "GET", "/healthz")[0] == 200
            assert len(pool.pids) == 1 and victim not in pool.pids
            status, body = _call(st.port, "POST", "/v1/solve", {"op": "decide", "task": "fork"})
            assert (status, body["ok"], body["cached"]) == (200, True, False)

            # with no worker left, every miss is a 500 and hits still answer
            os.kill(pool.pids[0], signal.SIGKILL)
            for task in ("majority", "fan"):
                status, body = _call(st.port, "POST", "/v1/solve", {"op": "decide", "task": task})
                assert status == 500 and body["error"]["kind"] == "internal-error"
            assert pool.pids == []
            assert _call(st.port, "POST", "/v1/solve", decide)[0] == 200
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert "Traceback" not in capfd.readouterr().err


async def _solve_over_http(port: int, body: bytes):
    """``(status, parsed body)`` of one solve request, on this event loop."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def test_a_frame_larger_than_the_pipe_does_not_stall_the_loop(tmp_path):
    # the protocol layer tolerates unknown keys: the padding rides along
    padded = {"op": "decide", "task": "consensus", "padding": "x" * (1 << 17)}
    assert len(pickle.dumps([padded])) > 1 << 16
    hit = json.dumps({"op": "decide", "task": "consensus"}).encode()

    async def main():
        server = SolvabilityServer(ServerConfig(pool="process", workers=1))
        await server.start()
        loop = asyncio.get_running_loop()
        done_at = {}
        try:
            assert (await _solve_over_http(server.port, hit))[0] == 200
            # two keys on two shards, so the second batch is sent while
            # the worker decides the first
            slow = asyncio.ensure_future(server.batches.submit("0" * 64, SLOW))
            slow.add_done_callback(lambda _: done_at.setdefault("slow", loop.time()))
            await asyncio.sleep(0.3)
            large = asyncio.ensure_future(server.batches.submit("1" * 64, padded))
            await asyncio.sleep(0.05)
            status, body = await _solve_over_http(server.port, hit)
            done_at["hit"] = loop.time()
            assert (status, body["cached"]) == (200, True)
            slow_reply, large_reply = await asyncio.gather(slow, large)
        finally:
            await server.stop()
        assert done_at["hit"] < done_at["slow"]
        assert slow_reply["ok"] is True and large_reply["ok"] is True

    with diskstore.store_at(str(tmp_path / "store")):
        asyncio.run(main())


def test_every_reply_reaches_its_own_batch():
    """More workers than cores, many batches in flight, some frames larger
    than a pipe: each batch must get back its own payloads."""

    def echo(payloads):
        return [{"n": p["n"], "size": len(p["pad"]), "pid": os.getpid()} for p in payloads]

    async def main():
        pool = PipePool(echo, workers=4)
        pool.start()
        try:
            batches = [
                [{"n": (i, j), "pad": "x" * (i * 7919 % (1 << 18))} for j in range(i % 3 + 1)]
                for i in range(120)
            ]
            replies = await asyncio.wait_for(
                asyncio.gather(*(pool.run(batch) for batch in batches)), 60
            )
            return pool.pids, batches, replies
        finally:
            pool.close()

    pids, batches, replies = asyncio.run(main())
    for batch, reply in zip(batches, replies):
        assert [(r["n"], r["size"]) for r in reply] == [
            (p["n"], len(p["pad"])) for p in batch
        ]
    assert {r["pid"] for reply in replies for r in reply} == set(pids)
