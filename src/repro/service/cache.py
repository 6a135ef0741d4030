"""The content-addressed verdict memo store behind the service.

One in-process dict keyed by the canonical request key from
:func:`repro.service.protocol.request_key` — the steady-state fast path
a hot key is served from with no I/O at all.  Nothing outlives the
server: a restarted server re-decides each request once, and those
decides still load their transforms, towers and class verdicts from the
persistent :mod:`repro.topology.diskstore`.

Values are hit bodies: the ``repro-service/1`` response envelope with
``cached: true``, rendered to JSON bytes once, when it is stored
(:func:`hit_body`).  A hit is written to the socket as it is, with no
JSON work, and the stored bytes are the ones a fresh render of the
envelope would give, which is also what keeps the CLI/service
bit-identical guarantee cheap.

Every probe counts once into the cache's recorder (the server passes
its own): ``service.cache.hit.memory`` / ``service.cache.miss``, which
:meth:`VerdictCache.stats` reads back, together with the accounting
half of the ROADMAP eviction item: the entry count plus the summed
length of the stored bodies.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..obs.recorder import Recorder


def hit_body(response: Dict[str, Any]) -> bytes:
    """The HTTP body a cache hit on ``response`` is answered with."""
    return json.dumps(dict(response, cached=True), sort_keys=True).encode("utf-8")


class VerdictCache:
    """In-memory content-addressed cache of rendered hit bodies."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self._memory: Dict[str, bytes] = {}
        self.recorder = recorder if recorder is not None else Recorder()
        self._memory_bytes = 0

    def get(self, key: str) -> Optional[bytes]:
        """The cached hit body, or ``None`` on miss."""
        response = self._memory.get(key)
        if response is not None:
            self.recorder.add_counter("service.cache.hit.memory")
        else:
            self.recorder.add_counter("service.cache.miss")
        return response

    def put(self, key: str, response: Dict[str, Any]) -> None:
        """Render and memoize one response; only successes are worth keeping.

        Failed responses (budget exhaustion, preflight rejections) stay
        out: budgets and code change, and a cached failure would outlive
        the condition that produced it.
        """
        if not response.get("ok"):
            return
        body = hit_body(response)
        self._memory_bytes += len(body) - len(self._memory.get(key, b""))
        self._memory[key] = body

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
        """The entry count and the summed length of the stored bodies.

        O(1) — safe for per-scrape gauges and per-second samplers.
        ``approx_bytes`` keeps its name for readers of ``/v1/stats``; it
        is exact for the bodies and leaves out the dict's own overhead.
        """
        return {
            "entries": len(self._memory),
            "approx_bytes": self._memory_bytes,
        }


__all__ = ["VerdictCache", "hit_body"]
