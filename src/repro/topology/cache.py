"""Query memoization for immutable topology objects.

:class:`~repro.topology.complexes.SimplicialComplex` is immutable after
construction, so every structural query (links, stars, skeleta, the
1-skeleton graph, connected components, …) is a pure function of the
instance and its arguments.  This module provides the memoization layer
those queries use:

* :func:`memoized_method` — a decorator storing results in a per-instance
  ``_cache`` dict, keyed by ``(query name, args)``;
* a **global enable flag** — :func:`set_caching`, :func:`caching_enabled`
  and the :func:`caching_disabled` context manager, used by the parity
  tests to compute the uncached result honestly (disabled mode bypasses
  both lookup *and* store);
* an **epoch counter** — :func:`cache_clear` invalidates every per-instance
  cache at once without keeping a registry of instances (each cache records
  the epoch it was built in and is discarded when stale);
* **hit/miss statistics** per query, reported by :func:`cache_info` so the
  traces and run records carry hit rates.

The caches are correctness-neutral: a memoized query must return the same
value the underlying computation would.  ``tests/topology/test_cache.py``
asserts this property query-by-query, and
``tests/solvability/test_cache_parity.py`` asserts verdict parity of the
full decision procedure with caching on and off.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, TypeVar, cast

_enabled: bool = True
_epoch: int = 0
#: query name -> [hits, misses]
_stats: Dict[str, List[int]] = {}

_EPOCH_KEY = "#epoch"

F = TypeVar("F", bound=Callable[..., Any])


def memoized_method(fn: F) -> F:
    """Memoize a method of an immutable object into its ``_cache`` slot.

    Positional arguments must be hashable (unhashable calls fall through to
    the raw function).  The wrapped function is available as
    ``method.__wrapped__`` — the test suite uses it to recompute queries
    without the cache.
    """
    name = fn.__qualname__
    stat = _stats.setdefault(name, [0, 0])

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not _enabled:
            return fn(self, *args, **kwargs)
        cache = self._cache
        if cache is None or cache[_EPOCH_KEY] != _epoch:
            cache = {_EPOCH_KEY: _epoch}
            self._cache = cache
        key = (name, args, tuple(sorted(kwargs.items()))) if kwargs else (name, args)
        try:
            if key in cache:
                stat[0] += 1
                return cache[key]
        except TypeError:  # unhashable argument: skip memoization
            return fn(self, *args, **kwargs)
        stat[1] += 1
        out = fn(self, *args, **kwargs)
        cache[key] = out
        return out

    return cast(F, wrapper)


def caching_enabled() -> bool:
    """Whether query memoization is currently active."""
    return _enabled


def set_caching(enabled: bool) -> bool:
    """Globally enable/disable query memoization; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Context manager: run a block with memoization bypassed entirely.

    Neither lookups nor stores happen inside the block, so previously
    cached results cannot leak into an uncached computation (the cache
    parity tests compare against it).
    """
    previous = set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


def cache_clear(reset_stats: bool = True) -> None:
    """Invalidate every memoized query result (all instances at once).

    Implemented by bumping a global epoch: stale per-instance caches are
    discarded lazily on their next access.
    """
    global _epoch
    _epoch += 1
    if reset_stats:
        for pair in _stats.values():
            pair[0] = pair[1] = 0


def cache_info() -> Dict[str, Dict[str, Any]]:
    """Hit/miss counters (and hit rates) per memoized query.

    Only queries exercised since the last :func:`cache_clear` appear with
    nonzero counts.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for name, (hits, misses) in sorted(_stats.items()):
        total = hits + misses
        if not total:
            continue
        out[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total,
        }
    return out
