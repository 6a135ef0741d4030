"""repro.service — solvability-as-a-service.

The decide/synthesize/conform pipeline is a pure function of the task
spec, so a verdict computed once should be served forever.  This package
is the long-running layer that makes that true:

* :mod:`repro.service.keys` — the one shared content-hashing vocabulary
  (extracted from the tower diskstore's content keys) every cache and
  store now agrees on;
* :mod:`repro.service.protocol` — the ``repro-service/1`` request /
  response schema, request canonicalization and the deterministic
  ``repro-verdict/1`` verdict JSON shared bit-for-bit with the CLI;
* :mod:`repro.service.execution` — the single request/response layer
  behind both the CLI subcommands and the server (task resolution,
  execution, failure-mode mapping, exit codes);
* :mod:`repro.service.cache` — the content-addressed in-memory memo of
  response envelopes (a restart re-decides, from the diskstore's
  transforms and towers);
* :mod:`repro.service.batch` — per-shard batch queues with in-flight
  coalescing between the asyncio front end and the worker pool;
* :mod:`repro.service.workers` — the worker pools (inline, a thread
  pool, fork-started processes fed over pipes) running the existing
  decide path;
* :mod:`repro.service.server` — the stdlib asyncio HTTP server;
* :mod:`repro.service.client` — the blocking client and the zipf-skewed
  load generator behind ``repro serve-soak`` and CI's replay gate;
* :mod:`repro.service.accesslog` — structured JSONL access logging, one
  line per completed request, joinable to trace spans by request id;
* :mod:`repro.service.soak` — the sustained-load soak harness behind
  ``repro serve-soak``: scrapes ``/metrics`` throughout, fits growth
  slopes for RSS/keymap/cache entries and gates them against budgets
  (``repro-soak/1``).

Only :mod:`~repro.service.keys` is imported eagerly: a lower layer
(:mod:`repro.topology.diskstore`) imports it for its hashes, so the
package root must not pull the HTTP/execution modules (which import
that layer back) at import time.
"""

from __future__ import annotations

import importlib

from .keys import canonical_dumps, content_hash, json_hash

#: submodules resolved lazily via module ``__getattr__`` (PEP 562)
_SUBMODULES = (
    "accesslog",
    "batch",
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
    *_SUBMODULES,
]
