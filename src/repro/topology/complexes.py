"""Finite abstract simplicial complexes.

A :class:`SimplicialComplex` is stored as the downward closure of a set of
simplices.  Construction computes the closure and the facets (maximal
simplices); after that the complex is immutable.  All iteration orders are
deterministic (see :func:`repro.topology.simplex.vertex_sort_key`).

Because instances are immutable, every structural query is memoized through
:mod:`repro.topology.cache`: repeated links, stars, skeleta and
connectivity computations on the same complex are answered from
a per-instance cache.  ``repro.topology.cache.cache_info()`` reports hit
rates, ``cache_clear()`` invalidates everything, and the
``caching_disabled()`` context manager bypasses the layer (the parity
tests use it to compute the uncached result).
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from . import bitcore as _bitcore
from .cache import memoized_method
from .simplex import Simplex, color_of, vertex_sort_key


def _reconstruct_complex(cls, facets, name):
    """Pickle helper: rebuild from facets (caches are not serialized).

    Retained for pickles written by older versions; current pickles use
    :func:`_restore_complex`.
    """
    return cls(facets, name=name)


def _restore_complex(cls, simplices, facets, vertices, dim, name):
    """Pickle helper: restore the precomputed structure directly.

    Closure, facet and canonical-order computation (and, for chromatic
    subclasses, color validation) already ran in the process that pickled
    the complex; re-running them on every unpickle made loading a cached
    subdivision tower nearly as expensive as rebuilding it.  Memo caches
    stay process-local and start empty.
    """
    return _filled(
        cls, frozenset(simplices), tuple(facets), tuple(vertices), dim, name
    )


def _filled(cls, simplices, facets, vertices, dim, name):
    """A new ``cls`` instance with its slots set directly, skipping ``__init__``.

    The one slot-filling path for complexes whose structure is already
    known: unpickled ones (:func:`_restore_complex`) and face-closed sets
    (:meth:`SimplicialComplex.from_closed`).
    """
    self = object.__new__(cls)
    object.__setattr__(self, "_simplices", simplices)
    object.__setattr__(self, "_facets", facets)
    object.__setattr__(self, "_vertices", vertices)
    object.__setattr__(self, "_dim", dim)
    object.__setattr__(self, "name", name)
    object.__setattr__(self, "_hash", None)
    object.__setattr__(self, "_cache", None)
    return self


_K = TypeVar("_K", bound="SimplicialComplex")

#: slots that define a complex's identity; frozen once ``__init__`` sets them
_STRUCTURAL_SLOTS = frozenset({"_simplices", "_facets", "_vertices", "_dim"})

#: complexes ``SimplicialComplex.__init__`` has built in this process
_built = 0


def complexes_built() -> int:
    """How many complexes this process has constructed.

    Only ``__init__`` counts: unpickled complexes and
    :meth:`SimplicialComplex.from_closed` builds are excluded.

    A write-only tally: split tracing reports its growth across each
    LAP-elimination pass as the ``split.complexes_built`` counter.
    """
    return _built


class SimplicialComplex:
    """A finite abstract simplicial complex.

    Parameters
    ----------
    simplices:
        Any iterable of :class:`Simplex` (or iterables of vertices, which are
        converted).  The complex is the downward closure of these simplices.
    name:
        Optional human-readable name, used in ``repr`` only.
    """

    __slots__ = (
        "_simplices",
        "_facets",
        "_vertices",
        "_dim",
        "name",
        "_hash",
        "_cache",
        "__weakref__",
    )

    def __init__(self, simplices: Iterable, name: Optional[str] = None):
        global _built
        _built += 1
        # The closure is computed over raw vertex frozensets so that each
        # distinct face allocates exactly one Simplex, however many input
        # simplices share it; sorting and per-face derived data stay lazy.
        by_set: Dict[FrozenSet[Hashable], Simplex] = {}
        tops: List[FrozenSet[Hashable]] = []
        for s in simplices:
            if not isinstance(s, Simplex):
                s = Simplex(s)
            vs = s.vertices
            if vs not in by_set:
                by_set[vs] = s
                tops.append(vs)
        # Every simplex is a face of some input simplex, so a simplex fails
        # to be maximal iff the closure pass below generates it as a
        # proper face.
        non_facets = set()
        for vs in tops:
            size = len(vs)
            if size > 1:
                items = tuple(vs)
                for k in range(1, size):
                    for combo in itertools.combinations(items, k):
                        fs = frozenset(combo)
                        non_facets.add(fs)
                        if fs not in by_set:
                            by_set[fs] = Simplex(fs)
        self._simplices: FrozenSet[Simplex] = frozenset(by_set.values())
        self._facets: Tuple[Simplex, ...] = tuple(
            sorted(
                (s for vs, s in by_set.items() if vs not in non_facets),
                key=Simplex.sort_key,
            )
        )
        # downward closure guarantees every vertex appears as a singleton
        self._vertices: Tuple[Hashable, ...] = tuple(
            sorted(
                (next(iter(vs)) for vs in by_set if len(vs) == 1),
                key=vertex_sort_key,
            )
        )
        self._dim: int = max((s.dim for s in self._facets), default=-1)
        self.name = name
        self._hash: Optional[int] = None
        self._cache = None

    def __setattr__(self, name: str, value) -> None:
        # The memoization layer (repro.topology.cache) assumes structural
        # state never changes after construction; rebinding it would leave
        # stale cached links/stars/components silently wrong, so the
        # structural slots freeze after their first assignment.
        if name in _STRUCTURAL_SLOTS:
            try:
                object.__getattribute__(self, name)
            except AttributeError:
                pass  # first assignment, during __init__
            else:
                raise AttributeError(
                    f"{type(self).__name__}.{name} is frozen after construction "
                    "(mutating it would desynchronize memoized queries; build a "
                    "new complex instead)"
                )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if name in _STRUCTURAL_SLOTS:
            raise AttributeError(
                f"{type(self).__name__}.{name} is frozen after construction"
            )
        object.__delattr__(self, name)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, name: Optional[str] = None) -> "SimplicialComplex":
        """The empty complex (no simplices)."""
        return cls((), name=name)

    @classmethod
    def from_facets(cls, facets: Iterable, name: Optional[str] = None) -> "SimplicialComplex":
        """Alias of the constructor, for readability at call sites."""
        return cls(facets, name=name)

    @classmethod
    def from_closed(
        cls: Type[_K], simplices: Iterable[Simplex], name: Optional[str] = None
    ) -> _K:
        """The complex whose simplices are exactly ``simplices``, without closing.

        ``simplices`` must already be face-closed (every boundary face of a
        member is a member); a set that is not raises :class:`ValueError`.
        The result equals ``cls(simplices, name=name)`` slot for slot, but
        costs one membership test per boundary face instead of a closure
        pass, and it does not count towards :func:`complexes_built`.
        """
        closed = frozenset(simplices)
        non_facets = set()
        vertices = []
        for s in closed:
            size = len(s.vertices)
            if size == 1:
                vertices.extend(s.vertices)
                continue
            boundary = s.faces(size - 2)
            if not closed.issuperset(boundary):
                face = next(f for f in boundary if f not in closed)
                raise ValueError(f"not face-closed: {face!r}, a face of {s!r}, is missing")
            non_facets.update(boundary)
        facets = tuple(sorted(closed.difference(non_facets), key=Simplex.sort_key))
        vertices.sort(key=vertex_sort_key)
        # sort keys lead with the dimension, so the last facet is a top one
        dim = facets[-1].dim if facets else -1
        return _filled(cls, closed, facets, tuple(vertices), dim, name)

    # -- basic protocol ------------------------------------------------------

    def __contains__(self, s) -> bool:
        if not isinstance(s, Simplex):
            s = Simplex(s)
        return s in self._simplices

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices())

    def __len__(self) -> int:
        return len(self._simplices)

    def __bool__(self) -> bool:
        return bool(self._simplices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices is other._simplices or self._simplices == other._simplices

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._simplices)
        return self._hash

    def __repr__(self) -> str:
        label = self.name or type(self).__name__
        return f"{label}(dim={self.dim}, facets={len(self._facets)}, simplices={len(self)})"

    def __reduce__(self):
        # ship the full precomputed structure: the receiving process
        # re-interns every simplex but skips closure/sort recomputation
        return (
            _restore_complex,
            (
                type(self),
                tuple(self._simplices),
                self._facets,
                self._vertices,
                self._dim,
                self.name,
            ),
        )

    # -- structure ------------------------------------------------------------

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        """The maximal simplices, in canonical order."""
        return self._facets

    @property
    def dim(self) -> int:
        """Maximal facet dimension; ``-1`` for the empty complex."""
        return self._dim

    @property
    def vertices(self) -> Tuple[Hashable, ...]:
        """All vertices, in canonical order."""
        return self._vertices

    @memoized_method
    def simplices(self, dim: Optional[int] = None) -> Tuple[Simplex, ...]:
        """All simplices, optionally restricted to a single dimension."""
        pool = self._simplices if dim is None else (s for s in self._simplices if s.dim == dim)
        return tuple(sorted(pool, key=Simplex.sort_key))

    @memoized_method
    def f_vector(self) -> Tuple[int, ...]:
        """``f_vector()[k]`` is the number of ``k``-dimensional simplices."""
        counts = [0] * (self.dim + 1)
        for s in self._simplices:
            counts[s.dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """The Euler characteristic ``sum_k (-1)^k f_k``."""
        return sum((-1) ** k * f for k, f in enumerate(self.f_vector()))

    @memoized_method
    def is_pure(self) -> bool:
        """True iff all facets share the top dimension."""
        return all(f.dim == self.dim for f in self._facets)

    @memoized_method
    def is_chromatic(self) -> bool:
        """True iff every simplex has colored vertices with distinct colors."""
        return all(f.is_chromatic() for f in self._facets)

    @memoized_method
    def colors(self) -> FrozenSet[int]:
        """All colors appearing in the complex (colorless vertices ignored)."""
        cols = set()
        for v in self._vertices:
            c = color_of(v)
            if c is not None:
                cols.add(c)
        return frozenset(cols)

    # -- subcomplexes -----------------------------------------------------------

    @memoized_method
    def skeleton(self, k: int) -> "SimplicialComplex":
        """The ``k``-skeleton: all simplices of dimension at most ``k``."""
        return SimplicialComplex(
            (s for s in self._simplices if s.dim <= k),
            name=f"Skel^{k}({self.name})" if self.name else None,
        )

    @memoized_method
    def star(self, v: Hashable) -> "SimplicialComplex":
        """The closed star of ``v``: all simplices containing ``v``, closed down."""
        return SimplicialComplex(s for s in self._simplices if v in s)

    @memoized_method
    def link(self, v: Hashable) -> "SimplicialComplex":
        """The link of ``v``: ``{ s : v not in s and s + v in K }``."""
        out = []
        for s in self._simplices:
            if v in s:
                rest = s.without(v)
                if rest is not None:
                    out.append(rest)
        return SimplicialComplex(out)

    def induced(self, vertices: Iterable[Hashable]) -> "SimplicialComplex":
        """The subcomplex induced by a vertex subset."""
        vs = set(vertices)
        return SimplicialComplex(s for s in self._simplices if s.vertices <= vs)

    def subcomplex(self, simplices: Iterable) -> "SimplicialComplex":
        """The downward closure of the given simplices, checked to lie in ``self``."""
        chosen = [s if isinstance(s, Simplex) else Simplex(s) for s in simplices]
        for s in chosen:
            if s not in self._simplices:
                raise ValueError(f"{s!r} is not a simplex of {self!r}")
        return SimplicialComplex(chosen)

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """The union complex."""
        return SimplicialComplex(self._facets + other._facets)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """The intersection complex."""
        return SimplicialComplex(self._simplices & other._simplices)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        """True iff every simplex of ``self`` lies in ``other``."""
        return self._simplices <= other._simplices

    # -- connectivity -------------------------------------------------------------

    @memoized_method
    def _bits(self) -> "_bitcore.BitComplex":
        """Bit-packed view of the 1- and 2-skeleton (:mod:`.bitcore`)."""
        return _bitcore.BitComplex.from_complex(self)

    def adjacency(self) -> Dict[Hashable, Tuple[Hashable, ...]]:
        """The 1-skeleton as ``{vertex: neighbours}``, both in canonical order.

        Isolated vertices map to ``()``.  The dict is fresh on every call,
        so callers may mutate it.
        """
        bits = self._bits()
        return {v: bits.members(bits.adj[i]) for i, v in enumerate(bits.verts)}

    @memoized_method
    def is_connected(self) -> bool:
        """Graph connectivity of the 1-skeleton (empty complex counts as connected)."""
        return self._bits().is_connected()

    @memoized_method
    def connected_components(self) -> Tuple[FrozenSet[Hashable], ...]:
        """Vertex sets of the connected components, in deterministic order."""
        return self._bits().connected_components()

    def component_of(self, v: Hashable) -> FrozenSet[Hashable]:
        """The vertex set of the component containing ``v``."""
        for comp in self.connected_components():
            if v in comp:
                return comp
        raise KeyError(f"{v!r} is not a vertex of {self!r}")

    @memoized_method
    def is_link_connected(self) -> bool:
        """True iff the link of every vertex is a connected complex.

        This is the property the splitting pipeline of Section 4 establishes.
        """
        return self._bits().is_link_connected()

    def link_components(self, v: Hashable) -> Tuple[FrozenSet[Hashable], ...]:
        """Connected components (vertex sets) of ``link(v)``."""
        return self._bits().link_components(v)
