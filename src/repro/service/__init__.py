"""repro.service — solvability-as-a-service.

The decide/synthesize/conform pipeline is a pure function of the task
spec, so a verdict computed once should be served forever.  This package
is the long-running layer that makes that true:

* :mod:`repro.service.keys` — the one shared content-hashing vocabulary
  (extracted from the telemetry store's run ids and the tower
  diskstore's content keys) every cache and store now agrees on;
* :mod:`repro.service.protocol` — the ``repro-service/1`` request /
  response schema, request canonicalization and the deterministic
  ``repro-verdict/1`` verdict JSON shared bit-for-bit with the CLI;
* :mod:`repro.service.execution` — the single request/response layer
  behind both the CLI subcommands and the server (task resolution,
  execution, failure-mode mapping, exit codes);
* :mod:`repro.service.cache` — the content-addressed verdict memo store
  (in-process memory in front of the persistent diskstore);
* :mod:`repro.service.batch` — per-shard batch queues with in-flight
  coalescing between the asyncio front end and the worker pool;
* :mod:`repro.service.workers` — the worker-pool backend running the
  existing decide path with warm tables;
* :mod:`repro.service.server` — the stdlib asyncio HTTP server;
* :mod:`repro.service.client` — the blocking client and the zipf-skewed
  load generator behind ``repro serve-bench``;
* :mod:`repro.service.bench` — the duplicate-heavy load benchmark behind
  ``repro serve-bench``, which writes a ``repro-perf/1`` report;
* :mod:`repro.service.accesslog` — structured JSONL access logging, one
  line per completed request, joinable to trace spans by request id;
* :mod:`repro.service.soak` — the sustained-load soak harness behind
  ``repro serve-soak``: scrapes ``/metrics`` throughout, fits growth
  slopes for RSS/keymap/cache entries and gates them against budgets
  (``repro-soak/1``).

Only :mod:`~repro.service.keys` is imported eagerly: lower layers
(:mod:`repro.topology.diskstore`, :mod:`repro.obs.store`) import it for
their hashes, so the package root must not pull the HTTP/execution
modules (which import those layers back) at import time.
"""

from __future__ import annotations

import importlib

from .keys import canonical_dumps, content_hash, json_hash, record_id

#: submodules resolved lazily via module ``__getattr__`` (PEP 562)
_SUBMODULES = (
    "accesslog",
    "batch",
    "bench",
    "cache",
    "client",
    "execution",
    "keys",
    "protocol",
    "server",
    "soak",
    "workers",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "canonical_dumps",
    "content_hash",
    "json_hash",
    "record_id",
    *_SUBMODULES,
]
