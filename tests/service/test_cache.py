"""The two-level verdict cache: memory, diskstore, counters."""

from __future__ import annotations

from repro.obs.recorder import Recorder
from repro.service.cache import NAMESPACE, VerdictCache
from repro.service.protocol import make_response
from repro.topology import diskstore


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
    def test_miss_then_hit(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "s")):
            cache = VerdictCache()
            key = "a" * 40
            assert cache.get(key) is None
            cache.put(key, _response(key))
            rec = cache.recorder
            before = rec.counters.get("service.cache.hit.memory", 0)
            assert cache.get(key) == _response(key)
            assert rec.counters.get("service.cache.hit.memory", 0) == before + 1
            stats = cache.stats()
            assert stats["hits_memory"] == 1
            assert stats["misses"] == 1
            assert stats["hit_rate"] == 0.5

    def test_failures_are_never_cached(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "s")):
            cache = VerdictCache()
            key = "b" * 40
            cache.put(key, _response(key, ok=False))
            assert cache.get(key) is None
            assert cache.stats()["entries"] == 0


class TestDiskLevel:
    def test_survives_a_fresh_instance(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "s")):
            key = "c" * 40
            VerdictCache().put(key, _response(key))
            rec = Recorder()
            fresh = VerdictCache(recorder=rec)
            disk_before = rec.counters.get("service.cache.hit.disk", 0)
            assert fresh.get(key) == _response(key)
            assert rec.counters.get("service.cache.hit.disk", 0) == disk_before + 1
            # promoted: second probe is a memory hit
            mem_before = rec.counters.get("service.cache.hit.memory", 0)
            fresh.get(key)
            assert (
                rec.counters.get("service.cache.hit.memory", 0) == mem_before + 1
            )
            assert fresh.stats()["hits_disk"] == 1

    def test_foreign_objects_under_the_namespace_are_misses(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "s")):
            key = "d" * 40
            diskstore.store(NAMESPACE, key, {"not": "an envelope"})
            assert VerdictCache().get(key) is None

    def test_persist_false_never_touches_disk(self, tmp_path):
        store_dir = tmp_path / "s"
        with diskstore.store_at(str(store_dir)):
            cache = VerdictCache(persist=False)
            key = "e" * 40
            cache.put(key, _response(key))
            assert cache.get(key) == _response(key)
            assert not (store_dir / NAMESPACE).exists()
