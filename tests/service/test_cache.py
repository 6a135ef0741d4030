"""The in-memory verdict cache: hits, misses, counters."""

from __future__ import annotations

import json

from repro.service.cache import VerdictCache, hit_body
from repro.service.protocol import make_response


def _response(key: str, ok: bool = True):
    if ok:
        return make_response(
            key,
            "decide",
            verdict={
                "schema": "repro-verdict/1",
                "status": "unsolvable",
                "solvable": False,
                "task": "t",
                "n_processes": 3,
                "splits": 0,
                "certificate": {"kind": "none"},
            },
        )
    return make_response(key, "decide", error=("synthesis-error", "no"))


class TestMemoryLevel:
    def test_miss_then_hit(self):
        cache = VerdictCache()
        key = "a" * 40
        assert cache.get(key) is None
        cache.put(key, _response(key))
        rec = cache.recorder
        before = rec.counters.get("service.cache.hit.memory", 0)
        assert cache.get(key) == json.dumps(
            dict(_response(key), cached=True), sort_keys=True
        ).encode()
        assert rec.counters.get("service.cache.hit.memory", 0) == before + 1
        stats = cache.stats()
        assert stats["hits_memory"] == 1
        assert stats["hits_disk"] == 0
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_size_is_the_stored_body_length(self):
        cache = VerdictCache()
        for key in ("c" * 40, "d" * 40, "c" * 40):
            cache.put(key, _response(key))
        assert cache.memory_size_stats() == {
            "entries": 2,
            "approx_bytes": len(hit_body(_response("c" * 40)))
            + len(hit_body(_response("d" * 40))),
        }

    def test_failures_are_never_cached(self):
        cache = VerdictCache()
        key = "b" * 40
        cache.put(key, _response(key, ok=False))
        assert cache.get(key) is None
        assert cache.stats()["entries"] == 0
