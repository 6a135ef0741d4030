"""The content-addressed verdict memo store behind the service.

Two levels, both keyed by the canonical request key from
:func:`repro.service.protocol.request_key`:

* an in-process dict — the steady-state fast path a hot key is served
  from with no I/O at all;
* the persistent :mod:`repro.topology.diskstore` (namespace
  ``"service"``) — survives server restarts and is shared with every
  other process pointing at the same store directory, so a verdict
  computed once on a machine is never recomputed there.

Values are complete ``repro-service/1`` response envelopes (JSON-safe
dicts), not verdict objects: a hit is served byte-for-byte without
re-rendering, which is also what makes the CLI/service bit-identical
guarantee cheap to keep.

Every probe counts once into the cache's recorder (the server passes
its own): ``service.cache.hit.memory`` / ``service.cache.hit.disk`` /
``service.cache.miss``, which :meth:`VerdictCache.stats` reads back.
:meth:`VerdictCache.size_stats` adds the accounting half of
the ROADMAP eviction item: per-tier entry counts plus approximate byte
footprints (memory bytes are estimated from the canonical JSON length —
cheap, stable across processes, and a sound relative signal for the
soak growth gate even though the true ``dict`` overhead is larger).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..obs.recorder import Recorder
from ..topology import diskstore
from .keys import canonical_dumps
from .protocol import SCHEMA

#: diskstore namespace holding persisted response envelopes
NAMESPACE = "service"


def _disk_get(key: str) -> Optional[Any]:
    """Probe the persistent layer (kept tiny: a persisted entry point)."""
    return diskstore.load(NAMESPACE, key)


def _disk_put(key: str, response: Dict[str, Any]) -> None:
    """Persist one response envelope (kept tiny: a persisted entry point)."""
    diskstore.store(NAMESPACE, key, response)


class VerdictCache:
    """Two-level content-addressed response cache (memory + diskstore)."""

    def __init__(self, persist: bool = True, recorder: Optional[Recorder] = None) -> None:
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._persist = persist
        self.recorder = recorder if recorder is not None else Recorder()
        self._memory_bytes = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """A cached response envelope, or ``None`` on miss."""
        response, _tier = self.get_with_tier(key)
        return response

    def get_with_tier(
        self, key: str
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """A cached envelope plus the tier that served it.

        The tier (``"memory"``, ``"disk"``, or ``None`` on miss) is what
        the access log and the per-tier latency histograms record.  Disk
        hits are promoted into memory; a stored value that is not a
        plausible envelope (schema drift, a foreign object under the
        same namespace) is treated as a miss rather than served.
        """
        response = self._memory.get(key)
        if response is not None:
            self.recorder.add_counter("service.cache.hit.memory")
            return response, "memory"
        if self._persist:
            stored = _disk_get(key)
            if (
                isinstance(stored, dict)
                and stored.get("schema") == SCHEMA
                and stored.get("ok")
            ):
                self._remember(key, stored)
                self.recorder.add_counter("service.cache.hit.disk")
                return stored, "disk"
        self.recorder.add_counter("service.cache.miss")
        return None, None

    def put(self, key: str, response: Dict[str, Any]) -> None:
        """Memoize one response; only successes are worth persisting.

        Failed responses (budget exhaustion, preflight rejections) stay
        out of both levels: budgets and code change, and a cached
        failure would outlive the condition that produced it.
        """
        if not response.get("ok"):
            return
        self._remember(key, response)
        if self._persist:
            _disk_put(key, response)

    def _remember(self, key: str, response: Dict[str, Any]) -> None:
        if key not in self._memory:
            self._memory_bytes += len(canonical_dumps(response))
        self._memory[key] = response

    def stats(self) -> Dict[str, Any]:
        """Hit/miss totals and the end-to-end hit rate."""
        counters = self.recorder.counters
        memory = int(counters.get("service.cache.hit.memory", 0))
        disk = int(counters.get("service.cache.hit.disk", 0))
        misses = int(counters.get("service.cache.miss", 0))
        total = memory + disk + misses
        return {
            "entries": len(self._memory),
            "hits_memory": memory,
            "hits_disk": disk,
            "misses": misses,
            "hit_rate": ((memory + disk) / total) if total else 0.0,
        }

    def memory_size_stats(self) -> Dict[str, int]:
        """The in-process tier's entry count and approximate bytes.

        O(1) — safe for per-scrape gauges and per-second samplers.
        Bytes are the summed canonical-JSON lengths of the stored
        envelopes (an underestimate of true ``dict`` footprint, but
        monotone in it).
        """
        return {
            "entries": len(self._memory),
            "approx_bytes": self._memory_bytes,
        }

    def size_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier entry counts and approximate byte footprints.

        Disk numbers come from
        :func:`repro.topology.diskstore.namespace_stats` — an
        O(entries) directory walk over the whole shared namespace, not
        just this process's writes — so this belongs in ``/v1/stats``
        and the sampler tick, not per-request hot paths.
        """
        disk = (
            diskstore.namespace_stats(NAMESPACE)
            if self._persist
            else {"entries": 0, "approx_bytes": 0}
        )
        return {"memory": self.memory_size_stats(), "disk": disk}


__all__ = ["NAMESPACE", "VerdictCache"]
