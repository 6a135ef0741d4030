"""Simplices and chromatic vertices.

This module provides the two most basic objects of the combinatorial-topology
substrate used throughout the library:

* :class:`Vertex` — a chromatic vertex ``(color, value)``, where the color is
  a process id and the value is an arbitrary hashable payload (an input
  value, an output value, or a view acquired during computation).
* :class:`Simplex` — an immutable finite set of vertices.

Both are hashable and totally ordered (by a deterministic sort key), which
lets complexes, carrier maps and search procedures iterate deterministically
regardless of hash randomization.

Performance notes
-----------------

Both classes are slotted and immutable, and :class:`Simplex` is *interned*
(hash-consed): constructing a simplex over a vertex set that already has a
live simplex returns the existing instance.  Interning makes equality checks
mostly pointer comparisons, lets expensive derived data (sorted vertex
tuples, sort keys, faces, color sets) be computed once per distinct simplex,
and keeps the memory footprint of large subdivision complexes flat.  The
intern table holds weak references only, so simplices are reclaimed as soon
as no complex uses them.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Tuple


def vertex_sort_key(v: Hashable) -> Tuple:
    """A deterministic sort key usable for arbitrary hashable vertices.

    Chromatic :class:`Vertex` objects sort by ``(color, repr(value))`` so
    that simplices print with process ids in increasing order; any other
    vertex sorts by its type name and ``repr``.
    """
    if isinstance(v, Vertex):
        key = v._skey
        if key is None:
            key = (0, v.color, repr(v.value))
            object.__setattr__(v, "_skey", key)
        return key
    return (1, type(v).__name__, repr(v))


class Vertex:
    """A chromatic vertex ``(color, value)``.

    ``color`` is the process id (an integer in ``range(n)`` for an
    ``n``-process system) and ``value`` is any hashable payload.
    """

    __slots__ = ("color", "value", "_hash", "_skey")

    def __init__(self, color: int, value: Hashable):
        if not isinstance(color, int):
            raise TypeError(f"vertex color must be an int, got {color!r}")
        try:
            h = hash((color, value))
        except TypeError as exc:  # pragma: no cover - defensive
            raise TypeError(f"vertex value must be hashable, got {value!r}") from exc
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", h)
        # sort key computed lazily by vertex_sort_key (repr of nested views
        # is the expensive part; most vertices are never compared)
        object.__setattr__(self, "_skey", None)

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError(f"Vertex is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Vertex is immutable (cannot delete {name!r})")

    def with_value(self, value: Hashable) -> "Vertex":
        """Return a vertex with the same color and a new value."""
        return Vertex(self.color, value)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Vertex):
            return (
                self._hash == other._hash
                and self.color == other.color
                and self.value == other.value
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.color}:{self.value!r})"

    def __lt__(self, other: "Vertex") -> bool:
        if not isinstance(other, Vertex):
            return NotImplemented
        return vertex_sort_key(self) < vertex_sort_key(other)

    def __reduce__(self):
        return (Vertex, (self.color, self.value))

    def __copy__(self) -> "Vertex":
        return self

    def __deepcopy__(self, memo) -> "Vertex":
        return self


def color_of(v: Hashable) -> Optional[int]:
    """Return the color of a vertex, or ``None`` for colorless vertices."""
    if isinstance(v, Vertex):
        return v.color
    return None


#: intern table: frozenset of vertices -> the canonical live Simplex
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: sentinel marking "colors() raises" in the per-simplex color cache
_COLORLESS = object()


class Simplex:
    """An immutable, non-empty finite set of vertices.

    The *dimension* of a simplex is ``len(simplex) - 1``; a single vertex is
    a 0-dimensional simplex.  Simplices compare equal iff they contain the
    same vertex set, and are ordered first by dimension and then
    lexicographically by sorted vertex keys, so all iteration in the library
    is deterministic.

    Instances are interned: two constructions over the same vertex set
    return the same object, so derived data (sort keys, faces, colors) is
    computed at most once per distinct simplex.
    """

    __slots__ = (
        "vertices",
        "_hash",
        "_sorted",
        "_key",
        "_colors",
        "_chromatic",
        "_faces",
        "__weakref__",
    )

    vertices: FrozenSet[Hashable]

    def __new__(cls, vertices: Iterable[Hashable]):
        vs = vertices if type(vertices) is frozenset else frozenset(vertices)
        interned = cls is Simplex
        if interned:
            cached = _INTERN.get(vs)
            if cached is not None:
                return cached
        if not vs:
            raise ValueError("a simplex must contain at least one vertex")
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_hash", hash(vs))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_colors", None)
        object.__setattr__(self, "_chromatic", None)
        object.__setattr__(self, "_faces", None)
        if interned:
            _INTERN[vs] = self
        return self

    def __init__(self, vertices: Iterable[Hashable]):
        # all work happens in __new__ so interned instances skip re-init
        pass

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError(f"Simplex is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Simplex is immutable (cannot delete {name!r})")

    # -- basic protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.sorted_vertices())

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: Hashable) -> bool:
        return v in self.vertices

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Simplex):
            return self.vertices == other.vertices
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "Simplex") -> bool:
        """Face relation: ``self <= other`` iff ``self`` is a face of ``other``."""
        return self.vertices <= other.vertices

    def __lt__(self, other: "Simplex") -> bool:
        return self.vertices < other.vertices

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.sorted_vertices())
        return f"<{inner}>"

    def __reduce__(self):
        return (type(self), (tuple(self.vertices),))

    def __copy__(self) -> "Simplex":
        return self

    def __deepcopy__(self, memo) -> "Simplex":
        return self

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension: number of vertices minus one."""
        return len(self.vertices) - 1

    def sorted_vertices(self) -> Tuple[Hashable, ...]:
        """Vertices in the library's canonical deterministic order."""
        out = self._sorted
        if out is None:
            out = tuple(sorted(self.vertices, key=vertex_sort_key))
            object.__setattr__(self, "_sorted", out)
        return out

    def sort_key(self) -> Tuple:
        """Deterministic total-order key (dimension first, then lexicographic)."""
        out = self._key
        if out is None:
            out = (
                len(self.vertices) - 1,
                tuple(vertex_sort_key(v) for v in self.sorted_vertices()),
            )
            object.__setattr__(self, "_key", out)
        return out

    def colors(self) -> FrozenSet[int]:
        """The set of colors (process ids) appearing in this simplex.

        Raises :class:`ValueError` if any vertex is colorless.
        """
        out = self._colors
        if out is None:
            cols = []
            for v in self.vertices:
                c = color_of(v)
                if c is None:
                    object.__setattr__(self, "_colors", _COLORLESS)
                    raise ValueError(
                        f"simplex {self!r} contains a colorless vertex {v!r}"
                    )
                cols.append(c)
            out = frozenset(cols)
            object.__setattr__(self, "_colors", out)
        elif out is _COLORLESS:
            bad = next(v for v in self.vertices if color_of(v) is None)
            raise ValueError(f"simplex {self!r} contains a colorless vertex {bad!r}")
        return out

    def is_chromatic(self) -> bool:
        """True iff every vertex is colored and no color repeats."""
        out = self._chromatic
        if out is None:
            cols = []
            for v in self.vertices:
                c = color_of(v)
                if c is None:
                    out = False
                    break
                cols.append(c)
            else:
                out = len(cols) == len(set(cols))
            object.__setattr__(self, "_chromatic", out)
        return out

    def vertex_of_color(self, color: int) -> Hashable:
        """Return the unique vertex of the given color.

        Raises :class:`KeyError` if the color does not appear, and
        :class:`ValueError` if it appears more than once.
        """
        found = [v for v in self.vertices if color_of(v) == color]
        if not found:
            raise KeyError(f"no vertex of color {color} in {self!r}")
        if len(found) > 1:
            raise ValueError(f"color {color} appears more than once in {self!r}")
        return found[0]

    # -- faces ---------------------------------------------------------------

    def faces(self, dim: Optional[int] = None) -> Tuple["Simplex", ...]:
        """All non-empty faces (including ``self``), optionally of one dimension.

        Faces are returned in canonical order.
        """
        cache = self._faces
        if cache is None:
            cache = {}
            object.__setattr__(self, "_faces", cache)
        out = cache.get(dim)
        if out is not None:
            return out
        if dim is not None:
            if dim < 0 or dim > self.dim:
                out = ()
            else:
                combos = itertools.combinations(self.sorted_vertices(), dim + 1)
                out = tuple(sorted((Simplex(c) for c in combos), key=Simplex.sort_key))
        else:
            acc = []
            for k in range(1, len(self.vertices) + 1):
                acc.extend(
                    Simplex(c)
                    for c in itertools.combinations(self.sorted_vertices(), k)
                )
            out = tuple(sorted(acc, key=Simplex.sort_key))
        cache[dim] = out
        return out

    def proper_faces(self) -> Tuple["Simplex", ...]:
        """All faces except ``self``."""
        return tuple(f for f in self.faces() if f != self)

    def boundary(self) -> Tuple["Simplex", ...]:
        """The codimension-1 faces, in canonical order."""
        return self.faces(dim=self.dim - 1)

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "Simplex") -> "Simplex":
        """Vertex-set union (the join's vertex set)."""
        return Simplex(self.vertices | other.vertices)

    def intersection(self, other: "Simplex") -> Optional["Simplex"]:
        """Vertex-set intersection, or ``None`` when disjoint."""
        common = self.vertices & other.vertices
        return Simplex(common) if common else None

    def without(self, v: Hashable) -> Optional["Simplex"]:
        """The face obtained by dropping vertex ``v`` (``None`` if empty)."""
        rest = self.vertices - {v}
        return Simplex(rest) if rest else None

    def with_vertex(self, v: Hashable) -> "Simplex":
        """The simplex obtained by adding vertex ``v``."""
        return Simplex(self.vertices | {v})

    def replace_vertex(self, old: Hashable, new: Hashable) -> "Simplex":
        """The simplex with ``old`` substituted by ``new``.

        Raises :class:`KeyError` if ``old`` is absent.
        """
        if old not in self.vertices:
            raise KeyError(f"{old!r} is not a vertex of {self!r}")
        return Simplex((self.vertices - {old}) | {new})


def intern_info() -> Dict[str, int]:
    """Size of the simplex intern table (live distinct simplices)."""
    return {"live_simplices": len(_INTERN)}


def simplex(*vertices: Hashable) -> Simplex:
    """Convenience constructor: ``simplex(a, b, c) == Simplex([a, b, c])``."""
    return Simplex(vertices)


def chrom(*pairs: Tuple[int, Any]) -> Simplex:
    """Build a chromatic simplex from ``(color, value)`` pairs.

    >>> chrom((0, 'a'), (1, 'b'))
    <(0:'a'), (1:'b')>
    """
    return Simplex(Vertex(c, x) for c, x in pairs)
