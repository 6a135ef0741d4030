"""Persistent content-addressed store for subdivision towers and transforms.

Iterated chromatic subdivisions ``Ch^r(I)`` and link-connected transforms
are pure functions of their input complex/task, yet they dominate the
decision procedure's runtime and are recomputed by every CLI invocation
and every census pool worker.  This module gives them a small on-disk
cache:

* objects are pickled under ``<store dir>/<namespace>/<kk>/<key>.pkl``
  where ``key`` is a SHA-256 content hash of the *mathematical* input
  (canonical facet reprs — never object identities or memory addresses),
  so any process that constructs an equal complex gets a hit;
* the directory resolves in order: a :func:`store_at` override, then
  the ``REPRO_TOWER_CACHE`` environment variable, then ``.repro/towers``
  under the current directory.  Setting the variable to
  ``0``/``off``/``false``/``no``/``disabled`` turns the store off
  entirely;
* writes are atomic (temp file + ``os.replace``) so a crashed writer can
  never leave a torn pickle; a *corrupt* entry (truncated pickle,
  incompatible class layout) is deleted and silently recomputed, while a
  transient I/O failure (``EACCES``, ``ENOSPC``, ``EIO``) is warned about
  and the entry is left alone — deleting a healthy entry because the
  disk hiccuped would destroy good cache state;
* every hit/miss/write/corruption/io-error increments a
  ``diskstore.<namespace>.*`` counter in :mod:`repro.obs`, so a trace
  shows whether the store was hit, and the tier-1 counter golden pins a
  cold decide's transform miss and write.

:func:`store_disabled` (or ``REPRO_TOWER_CACHE=off``) is the one way to
run with the store off, for instance to measure an uncached baseline.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import warnings
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..obs import counter_add
from ..service.keys import content_hash

#: exception types that mean "this entry's bytes are bad" — a torn or
#: truncated pickle, garbage data, or a pickle referencing a class/field
#: layout that no longer exists.  Healing (delete + recompute) is the
#: right response to these, and *only* these: an ``OSError`` may hit a
#: perfectly healthy entry, and anything else is a programming error that
#: must propagate instead of masquerading as a cache miss.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    UnicodeDecodeError,
)

#: exception types that mean "this object cannot be pickled" on store
_UNPICKLABLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


#: environment variable naming the store directory (or disabling the store)
ENV_VAR = "REPRO_TOWER_CACHE"

#: default store directory, relative to the current working directory
DEFAULT_DIR = os.path.join(".repro", "towers")

#: environment values that disable the store instead of naming a directory
_OFF_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

_override_dir: Optional[str] = None
_enabled: bool = True


def resolve_store_dir() -> Optional[str]:
    """Resolve the store directory: override > env > default.

    Returns ``None`` when the environment variable explicitly disables
    the store.
    """
    if _override_dir is not None:
        return _override_dir
    env = os.environ.get(ENV_VAR)
    if env is not None and env.strip():
        if env.strip().lower() in _OFF_VALUES:
            return None
        return env
    return DEFAULT_DIR


def store_enabled() -> bool:
    """Whether loads/stores are live right now.

    False inside :func:`store_disabled` or when ``REPRO_TOWER_CACHE`` is
    an off-value.
    """
    return _enabled and resolve_store_dir() is not None


@contextmanager
def store_disabled() -> Iterator[None]:
    """Context manager: run a block with the disk store off."""
    global _enabled
    previous, _enabled = _enabled, False
    try:
        yield
    finally:
        _enabled = previous


@contextmanager
def store_at(path: str) -> Iterator[str]:
    """Context manager: redirect the store to ``path`` (and enable it)."""
    global _override_dir, _enabled
    prev_dir, prev_enabled = _override_dir, _enabled
    _override_dir = path
    _enabled = True
    try:
        yield path
    finally:
        _override_dir, _enabled = prev_dir, prev_enabled


# ---------------------------------------------------------------------------
# Content keys
# ---------------------------------------------------------------------------


# ``content_hash`` is re-exported from :mod:`repro.service.keys` (the
# shared hashing module all content-addressed layers now agree on); the
# digest semantics are unchanged, so committed corpus manifests and
# store directories hash identically.


def complex_key(k) -> str:
    """Content hash of a complex: its canonical facet reprs.

    Facets are in canonical sorted order and vertex reprs are
    deterministic, so equal complexes hash equally in every process —
    and any change to the complex (or to the repr format) invalidates
    the key.
    """
    return content_hash("\n".join(repr(f) for f in k.facets))


def task_text(task) -> str:
    """Exact canonical text of a task: input/output facets plus the carrier map.

    Facets are in canonical sorted order and vertex reprs deterministic, so
    equal tasks produce equal texts in every process.
    """
    parts = [
        "in:" + "\n".join(repr(f) for f in task.input_complex.facets),
        "out:" + "\n".join(repr(f) for f in task.output_complex.facets),
    ]
    for s, image in sorted(task.delta.items(), key=lambda kv: kv[0].sort_key()):
        parts.append(f"{s!r}=>" + ";".join(repr(f) for f in image.facets))
    return "\n".join(parts)


def task_key(task) -> str:
    """Content hash of a task: the hash of its :func:`task_text`."""
    return content_hash(task_text(task))


# ---------------------------------------------------------------------------
# Load / store
# ---------------------------------------------------------------------------


def _entry_path(namespace: str, key: str) -> Optional[str]:
    base = resolve_store_dir()
    if base is None:
        return None
    return os.path.join(base, namespace, key[:2], key + ".pkl")


def load(namespace: str, key: str) -> Optional[Any]:
    """Fetch a stored object, or ``None`` on miss/corruption/disabled.

    A *corrupted* entry (torn write, incompatible pickle) is removed so
    the follow-up :func:`store` replaces it with a fresh one.  An I/O
    failure (``EACCES``, ``EIO``, …) is a different animal: the entry may
    be perfectly healthy, so it is left in place, a ``RuntimeWarning`` is
    issued, and a ``diskstore.<namespace>.io_error`` counter records the
    event.  Anything else — an ``AttributeError`` from a genuine bug in a
    stored class's ``__setstate__``, say, is corruption-shaped and heals;
    non-Exception signals propagate untouched.
    """
    if not store_enabled():
        return None
    path = _entry_path(namespace, key)
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            obj = pickle.load(fh)
    except FileNotFoundError:
        counter_add(f"diskstore.{namespace}.miss")
        return None
    except OSError as exc:
        counter_add(f"diskstore.{namespace}.io_error")
        warnings.warn(
            f"diskstore: cannot read {path}: {exc} (entry kept; treating "
            "as a miss)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    except _CORRUPTION_ERRORS:
        counter_add(f"diskstore.{namespace}.corrupt")
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - racing removers
            pass
        return None
    counter_add(f"diskstore.{namespace}.hit")
    return obj


def store(namespace: str, key: str, obj: Any) -> Optional[str]:
    """Persist an object atomically; returns the entry path (or ``None``).

    Expected failures are swallowed — the store is an accelerator, never
    a correctness dependency — but they are no longer indistinguishable:
    an I/O failure (unwritable directory, full disk) warns and counts
    ``diskstore.<namespace>.io_error``, an unpicklable object counts
    ``diskstore.<namespace>.unpicklable``, and any other exception is a
    programming error that propagates.
    """
    if not store_enabled():
        return None
    path = _entry_path(namespace, key)
    if path is None:
        return None
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        counter_add(f"diskstore.{namespace}.io_error")
        warnings.warn(
            f"diskstore: cannot write under {directory}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError as exc:
        _discard(tmp)
        counter_add(f"diskstore.{namespace}.io_error")
        warnings.warn(
            f"diskstore: cannot write {path}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    except _UNPICKLABLE_ERRORS:
        _discard(tmp)
        counter_add(f"diskstore.{namespace}.unpicklable")
        return None
    except BaseException:
        # a programming error (or KeyboardInterrupt) mid-write must not
        # leak the temp file, and must not be swallowed either
        _discard(tmp)
        raise
    counter_add(f"diskstore.{namespace}.write")
    return path


def _discard(tmp: str) -> None:
    """Best-effort removal of a temp file after a failed write."""
    try:
        os.remove(tmp)
    except OSError:  # pragma: no cover - already gone or unremovable
        pass


def write_json_atomic(path: str, payload: Any) -> str:
    """Write a JSON document atomically (temp file + ``os.replace``).

    Unlike :func:`store`, failures propagate: callers (corpus manifests,
    run configs) treat these files as records of record, not as cache
    entries that may silently vanish.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # propagate everything (these files are records of record, not
        # cache entries) — including KeyboardInterrupt, which the old
        # ``except Exception`` would have let leak the temp file
        _discard(tmp)
        raise
    return path


__all__ = [
    "DEFAULT_DIR",
    "ENV_VAR",
    "complex_key",
    "content_hash",
    "load",
    "resolve_store_dir",
    "store",
    "store_at",
    "store_disabled",
    "store_enabled",
    "task_key",
    "task_text",
    "write_json_atomic",
]
