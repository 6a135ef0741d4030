"""Concurrent writers against the shared stores: no torn records.

The service runs the diskstore and the verdict cache from multiple
threads (client workers, the server thread, pool workers), so both must
tolerate racing writers: a diskstore key raced by two writers must end
up wholly one value or wholly the other — never interleaved bytes.
"""

from __future__ import annotations

import threading

from repro.service.cache import VerdictCache, hit_body
from repro.service.protocol import make_response
from repro.topology import diskstore


def _race(n_threads: int, work) -> list:
    """Run ``work(i)`` on n threads with a start barrier; returns errors."""
    barrier = threading.Barrier(n_threads)
    errors: list = []

    def runner(i: int) -> None:
        barrier.wait()
        try:
            work(i)
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestDiskstoreConcurrency:
    def test_racing_writers_same_key_leave_a_loadable_entry(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "store")):
            key = diskstore.content_hash("contended")
            n_threads = 8
            payloads = {i: {"writer": i, "blob": "x" * 4096} for i in range(n_threads)}

            def work(i: int) -> None:
                for _ in range(10):
                    diskstore.store("verdict", key, payloads[i])

            assert _race(n_threads, work) == []
            # atomic temp-file + os.replace: the survivor is exactly one
            # writer's payload, never a byte-interleaved hybrid
            final = diskstore.load("verdict", key)
            assert final in payloads.values()

    def test_racing_writers_distinct_keys_all_round_trip(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "store")):
            n_threads = 8

            def work(i: int) -> None:
                diskstore.store("verdict", f"{i:040x}", {"writer": i})

            assert _race(n_threads, work) == []
            for i in range(n_threads):
                assert diskstore.load("verdict", f"{i:040x}") == {"writer": i}


class TestVerdictCacheConcurrency:
    def test_racing_puts_and_gets_stay_consistent(self):
        cache = VerdictCache()
        keys = [f"{i:040x}" for i in range(4)]
        responses = {
            k: make_response(k, "decide", verdict=None) for k in keys
        }

        def work(i: int) -> None:
            for _ in range(25):
                k = keys[i % len(keys)]
                cache.put(k, responses[k])
                got = cache.get(k)
                assert got is None or got == hit_body(responses[k])

        assert _race(8, work) == []
        for k in keys:
            assert cache.get(k) == hit_body(responses[k])
