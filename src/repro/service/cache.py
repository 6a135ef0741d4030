"""The content-addressed verdict memo store behind the service.

One in-process dict keyed by the canonical request key from
:func:`repro.service.protocol.request_key` — the steady-state fast path
a hot key is served from with no I/O at all.  Nothing outlives the
server: a restarted server re-decides each request once, and those
decides still load their transforms, towers and class verdicts from the
persistent :mod:`repro.topology.diskstore`.

Values are complete ``repro-service/1`` response envelopes (JSON-safe
dicts), not verdict objects: a hit is served byte-for-byte without
re-rendering, which is also what makes the CLI/service bit-identical
guarantee cheap to keep.

Every probe counts once into the cache's recorder (the server passes
its own): ``service.cache.hit.memory`` / ``service.cache.miss``, which
:meth:`VerdictCache.stats` reads back, together with the accounting
half of the ROADMAP eviction item: the entry count plus an approximate
byte footprint (estimated from the canonical JSON length — cheap,
stable across processes, and a sound relative signal for the soak
growth gate even though the true ``dict`` overhead is larger).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..obs.recorder import Recorder
from .keys import canonical_dumps


class VerdictCache:
    """In-memory content-addressed response cache."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self._memory: Dict[str, Dict[str, Any]] = {}
        self.recorder = recorder if recorder is not None else Recorder()
        self._memory_bytes = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """A cached response envelope, or ``None`` on miss."""
        response = self._memory.get(key)
        if response is not None:
            self.recorder.add_counter("service.cache.hit.memory")
        else:
            self.recorder.add_counter("service.cache.miss")
        return response

    def put(self, key: str, response: Dict[str, Any]) -> None:
        """Memoize one response; only successes are worth keeping.

        Failed responses (budget exhaustion, preflight rejections) stay
        out: budgets and code change, and a cached failure would outlive
        the condition that produced it.
        """
        if not response.get("ok"):
            return
        if key not in self._memory:
            self._memory_bytes += len(canonical_dumps(response))
        self._memory[key] = response

    def stats(self) -> Dict[str, Any]:
        """Hit/miss totals, the hit rate and the size accounting.

        ``hits_disk`` and ``tiers.disk`` always read 0: the service keeps
        no disk tier, and the keys stay so readers of ``/v1/stats`` keep
        their shape.
        """
        counters = self.recorder.counters
        memory = int(counters.get("service.cache.hit.memory", 0))
        misses = int(counters.get("service.cache.miss", 0))
        total = memory + misses
        return {
            "entries": len(self._memory),
            "hits_memory": memory,
            "hits_disk": 0,
            "misses": misses,
            "hit_rate": (memory / total) if total else 0.0,
            "tiers": {
                "memory": self.memory_size_stats(),
                "disk": {"entries": 0, "approx_bytes": 0},
            },
        }

    def memory_size_stats(self) -> Dict[str, int]:
        """The entry count and approximate bytes.

        O(1) — safe for per-scrape gauges and per-second samplers.
        Bytes are the summed canonical-JSON lengths of the stored
        envelopes (an underestimate of true ``dict`` footprint, but
        monotone in it).
        """
        return {
            "entries": len(self._memory),
            "approx_bytes": self._memory_bytes,
        }


__all__ = ["VerdictCache"]
