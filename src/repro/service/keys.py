"""Shared content-addressed keys for every cache, store and the service.

Two subsystems independently grew content hashing: the tower diskstore
hashes canonical facet text (:mod:`repro.topology.diskstore`), and the
census corpus hashes isomorphism-canonical task text.  The service's
verdict cache needs the same discipline — a spec must hash identically
whether it arrives from the CLI, an HTTP request, or a pool worker — so
the primitive operations live here, dependency-free, and the older
modules delegate to them.

Two invariants are load-bearing and must never drift:

* :func:`content_hash` is ``sha256(text)`` truncated to 40 hex chars —
  the exact digest the tower store and the committed corpus golden
  manifests already embed;
* :func:`canonical_dumps` is ``json.dumps(payload, sort_keys=True,
  default=str)`` — the exact serialization the service's request keys
  and cache sizes are computed from.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: full sha256 is overkill for cache keys; 40 hex chars (160 bits) keeps
#: collision odds negligible while staying filename- and eyeball-friendly
DEFAULT_KEY_LENGTH = 40


def content_hash(text: str, length: int = DEFAULT_KEY_LENGTH) -> str:
    """Stable hex digest of a canonical text description."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON text of a JSON-safe payload.

    Keys are sorted and non-JSON values fall back to ``str``; request
    keys hash this text, so it must not change.
    """
    return json.dumps(payload, sort_keys=True, default=str)


def json_hash(payload: Any, length: int = DEFAULT_KEY_LENGTH) -> str:
    """Content hash of a JSON-safe payload via :func:`canonical_dumps`."""
    return content_hash(canonical_dumps(payload), length=length)


__all__ = [
    "DEFAULT_KEY_LENGTH",
    "canonical_dumps",
    "content_hash",
    "json_hash",
]
