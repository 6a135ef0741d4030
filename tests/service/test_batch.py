"""The sharded batch queue: batching, coalescing, error isolation."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.batch import BatchQueue, shard_of
from repro.service.cache import VerdictCache
from repro.service.protocol import make_response
from repro.topology import diskstore


def _backend_ok(payloads):
    return [
        make_response(p["key"], "decide", verdict=None) | {"n": p["n"]}
        for p in payloads
    ]


def _key(i: int) -> str:
    return f"{i:040x}"


class TestShardOf:
    def test_stable_and_in_range(self):
        for i in range(64):
            key = _key(i)
            assert shard_of(key, 4) == shard_of(key, 4)
            assert 0 <= shard_of(key, 4) < 4

    def test_single_shard_accepts_everything(self):
        assert shard_of(_key(123), 1) == 0


class TestBatching:
    def test_distinct_keys_resolve_positionally(self):
        calls = []

        def backend(payloads):
            calls.append(len(payloads))
            return _backend_ok(payloads)

        async def run():
            queue = BatchQueue(backend, None, shards=2, batch_size=8)
            await queue.start()
            results = await asyncio.gather(
                *(
                    queue.submit(_key(i), {"key": _key(i), "n": i})
                    for i in range(10)
                )
            )
            await queue.stop()
            return results

        results = asyncio.run(run())
        assert [r["n"] for r in results] == list(range(10))
        assert sum(calls) == 10
        assert len(calls) <= 10  # at least some batching happened

    def test_duplicate_keys_coalesce_onto_one_computation(self):
        executed = []

        def backend(payloads):
            executed.extend(p["key"] for p in payloads)
            return _backend_ok(payloads)

        async def run():
            queue = BatchQueue(backend, None, shards=1, batch_size=8)
            await queue.start()
            key = _key(7)
            results = await asyncio.gather(
                *(queue.submit(key, {"key": key, "n": 7}) for _ in range(6))
            )
            await queue.stop()
            return results

        results = asyncio.run(run())
        assert executed.count(_key(7)) == 1
        assert all(r == results[0] for r in results)

    def test_dispatch_counts_land_in_the_recorder(self):
        async def run():
            queue = BatchQueue(_backend_ok, None, shards=1, batch_size=8)
            await queue.start()
            key = _key(5)
            await asyncio.gather(
                *(queue.submit(key, {"key": key, "n": 5}) for _ in range(4)),
                queue.submit(_key(6), {"key": _key(6), "n": 6}),
            )
            await queue.stop()
            return queue.recorder.counters

        counters = asyncio.run(run())
        assert counters["service.coalesced"] == 3
        assert counters["service.batched_requests"] == 2
        assert counters["service.batches"] >= 1

    def test_backend_defect_fails_the_batch_not_the_dispatcher(self):
        attempts = []

        def backend(payloads):
            attempts.append(list(payloads))
            if len(attempts) == 1:
                raise RuntimeError("worker blew up")
            return _backend_ok(payloads)

        async def run():
            queue = BatchQueue(backend, None, shards=1, batch_size=8)
            await queue.start()
            first = await queue.submit(_key(1), {"key": _key(1), "n": 1})
            # the dispatcher survived: a later submit still works
            second = await queue.submit(_key(2), {"key": _key(2), "n": 2})
            await queue.stop()
            return first, second

        first, second = asyncio.run(run())
        assert first["ok"] is False
        assert first["error"]["kind"] == "internal-error"
        assert "worker blew up" in first["error"]["message"]
        assert second["ok"] is True

    def test_responses_populate_the_cache(self, tmp_path):
        def backend(payloads):
            return [
                make_response(p["key"], "decide", verdict=None)
                for p in payloads
            ]

        async def run(cache):
            queue = BatchQueue(
                backend, None, shards=1, batch_size=4, cache=cache
            )
            await queue.start()
            await queue.submit(_key(3), {"key": _key(3), "n": 3})
            await queue.stop()

        with diskstore.store_at(str(tmp_path / "s")):
            cache = VerdictCache(persist=False)
            asyncio.run(run(cache))
            assert cache.get(_key(3)) is not None

    def test_constructor_validates_shape(self):
        with pytest.raises(ValueError):
            BatchQueue(_backend_ok, None, shards=0)
        with pytest.raises(ValueError):
            BatchQueue(_backend_ok, None, batch_size=0)
