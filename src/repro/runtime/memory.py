"""Shared-memory objects (Section 2.1 of the paper).

The model: ``n`` asynchronous processes communicating through single-writer
multi-reader atomic registers.  We provide:

* :class:`RegisterArray` — one SWMR register per process;
* :class:`SnapshotObject` — an array supporting ``update`` and an atomic
  ``scan`` (the paper's "stronger variant", assumed w.l.o.g.; the
  scheduler executes a scan as one atomic step);
* non-atomic ``collect`` (a sequence of reads) for completeness;
* one-shot *immediate snapshot* — implemented as the classical
  Borowsky–Gafni floor-descent algorithm on top of atomic snapshots in
  :mod:`repro.runtime.process`, not as a primitive.

All state lives in a :class:`SharedMemory` keyed by object name; processes
never touch these objects directly — they yield operation requests that
the scheduler executes atomically (see :mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


class MemoryError_(RuntimeError):
    """Raised on invalid shared-memory usage (wrong owner, unknown object)."""


@dataclass
class RegisterArray:
    """``n`` single-writer multi-reader atomic registers."""

    n: int
    values: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.values:
            self.values = [None] * self.n

    def write(self, pid: int, value: Any) -> None:
        if not 0 <= pid < self.n:
            raise MemoryError_(f"register index {pid} out of range")
        self.values[pid] = value

    def read(self, index: int) -> Any:
        if not 0 <= index < self.n:
            raise MemoryError_(f"register index {index} out of range")
        return self.values[index]

    def snapshot_all(self) -> Tuple[Any, ...]:
        return tuple(self.values)

    def clone(self) -> "RegisterArray":
        """An independent copy (cell values are shared by reference; the
        model only ever stores immutable values in registers)."""
        return RegisterArray(self.n, list(self.values))


@dataclass
class SnapshotObject:
    """An array with atomic ``scan`` (update one slot, read all slots)."""

    n: int
    values: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.values:
            self.values = [None] * self.n

    def update(self, pid: int, value: Any) -> None:
        if not 0 <= pid < self.n:
            raise MemoryError_(f"snapshot index {pid} out of range")
        self.values[pid] = value

    def scan(self) -> Tuple[Any, ...]:
        return tuple(self.values)

    def clone(self) -> "SnapshotObject":
        """An independent copy (slot values are shared by reference)."""
        return SnapshotObject(self.n, list(self.values))


class SharedMemory:
    """A namespace of shared objects for one execution."""

    def __init__(self, n: int):
        self.n = n
        self._objects: Dict[str, Any] = {}

    def register_array(self, name: str) -> RegisterArray:
        """Create (or fetch) a register array under ``name``."""
        obj = self._objects.get(name)
        if obj is None:
            obj = RegisterArray(self.n)
            self._objects[name] = obj
        if not isinstance(obj, RegisterArray):
            raise MemoryError_(f"{name!r} exists and is not a register array")
        return obj

    def snapshot_object(self, name: str) -> SnapshotObject:
        """Create (or fetch) a snapshot object under ``name``."""
        obj = self._objects.get(name)
        if obj is None:
            obj = SnapshotObject(self.n)
            self._objects[name] = obj
        if not isinstance(obj, SnapshotObject):
            raise MemoryError_(f"{name!r} exists and is not a snapshot object")
        return obj

    def get(self, name: str) -> Any:
        try:
            return self._objects[name]
        except KeyError as exc:
            raise MemoryError_(f"unknown shared object {name!r}") from exc

    def clone(self) -> "SharedMemory":
        """A structurally independent copy of every shared object.

        Used by :meth:`repro.runtime.scheduler.Execution.fork` to branch an
        execution without replaying its memory operations.  Register cells
        and snapshot slots are copied per object; the *values* inside them
        are shared by reference, which is sound because protocol code only
        stores immutable values (vertices, tuples, ints).
        """
        copy = SharedMemory(self.n)
        copy._objects = {name: obj.clone() for name, obj in self._objects.items()}
        return copy

    def object_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._objects))
