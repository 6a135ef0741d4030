"""Subdivisions: standard chromatic and barycentric.

The *standard chromatic subdivision* ``Ch(K)`` is the one-round
immediate-snapshot protocol complex (Section 2.4 of the paper): vertices of
``Ch(σ)`` are pairs ``(i, view)`` where ``view ⊆ σ`` is the simplex of inputs
process ``i`` saw, and facets correspond to *ordered set partitions* of the
participating ids (the order of the immediate-snapshot blocks).  For a
2-simplex it has the familiar 13 triangles.

The *barycentric subdivision* is the classical colorless subdivision whose
vertices are the simplices of ``K`` and whose facets are flags
``σ_0 ⊂ σ_1 ⊂ …``; it is used by the colorless map search as an
alternative subdivision engine.

Both constructions return a :class:`SubdivisionResult` bundling the
subdivided complex with the carrier map from the base complex (``τ ↦`` the
subdivision of ``τ``), which is exactly the data needed to express
"a simplicial map from a subdivision of I carried by Δ".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

from . import diskstore
from .carrier import CarrierMap
from .chromatic import ChromaticComplex
from .complexes import SimplicialComplex
from .simplex import Simplex, Vertex


def ordered_partitions(items: Iterable[Hashable]) -> Iterator[Tuple[FrozenSet, ...]]:
    """All ordered partitions of a finite set into nonempty blocks.

    The blocks index the concurrency classes of a one-round immediate
    snapshot: processes in the same block write together and snapshot
    together, seeing all blocks up to and including their own.

    >>> sum(1 for _ in ordered_partitions({1, 2, 3}))
    13
    """
    pool = tuple(sorted(items, key=repr))
    if not pool:
        yield ()
        return

    def rec(rest: Tuple) -> Iterator[Tuple[FrozenSet, ...]]:
        if not rest:
            yield ()
            return
        # choose the first block: any nonempty subset of the remaining items
        for k in range(1, len(rest) + 1):
            for chosen in itertools.combinations(rest, k):
                block = frozenset(chosen)
                remaining = tuple(x for x in rest if x not in block)
                for tail in rec(remaining):
                    yield (block,) + tail

    yield from rec(pool)


@dataclass(frozen=True, slots=True)
class Barycenter:
    """A barycentric-subdivision vertex: the barycenter of a base simplex."""

    simplex: Simplex

    def __repr__(self) -> str:
        return f"b{self.simplex!r}"


@dataclass(frozen=True, slots=True)
class SubdivisionResult:
    """A subdivision together with its carrier map from the base complex."""

    base: SimplicialComplex
    complex: SimplicialComplex
    carrier: CarrierMap
    #: per-instance memo for :meth:`carrier_of_vertex` (identity-neutral)
    _vcache: Dict[Hashable, Simplex] = field(
        default_factory=dict, compare=False, repr=False
    )

    def carrier_of_vertex(self, v: Hashable) -> Simplex:
        """The minimal base simplex whose subdivision contains vertex ``v``.

        Iterated subdivisions nest (a ``Ch²`` view is a simplex of ``Ch¹``),
        so resolution recurses until it reaches vertices of the base
        complex.  For the identity subdivision the carrier is the vertex
        itself.  Results are memoized per instance — the map search resolves
        every subdivision vertex many times.
        """
        cached = self._vcache.get(v)
        if cached is not None:
            return cached
        base_vertices = frozenset(self.base.vertices)

        def resolve(u: Hashable) -> frozenset:
            if u in base_vertices:
                return frozenset([u])
            if isinstance(u, Barycenter):
                inner = u.simplex
            elif isinstance(u, Vertex) and isinstance(u.value, Simplex):
                inner = u.value
            else:
                raise TypeError(f"{u!r} is not a subdivision vertex")
            out: frozenset = frozenset()
            for w in inner.vertices:
                out |= resolve(w)
            return out

        result = Simplex(resolve(v))
        self._vcache[v] = result
        return result


# ---------------------------------------------------------------------------
# Standard chromatic subdivision
# ---------------------------------------------------------------------------


def _chromatic_subdivision_facets(sigma: Simplex) -> List[Simplex]:
    """Facets of ``Ch(σ)``, one per ordered partition of ``ids(σ)``."""
    by_color = {v.color: v for v in sigma.vertices}
    facets = []
    for blocks in ordered_partitions(by_color.keys()):
        seen: set = set()
        verts = []
        for block in blocks:
            seen |= {by_color[c] for c in block}
            view = Simplex(seen)
            verts.extend(Vertex(c, view) for c in block)
        facets.append(Simplex(verts))
    return facets


def chromatic_subdivision_of_simplex(sigma: Simplex) -> ChromaticComplex:
    """``Ch(σ)`` for a single chromatic simplex."""
    if not sigma.is_chromatic():
        raise ValueError(f"{sigma!r} is not a chromatic simplex")
    return ChromaticComplex(_chromatic_subdivision_facets(sigma))


def chromatic_subdivision(k: SimplicialComplex) -> SubdivisionResult:
    """The standard chromatic subdivision of a chromatic complex.

    Returns the subdivided complex together with the carrier map sending
    each base simplex ``τ`` to ``Ch(τ)`` (a subcomplex of ``Ch(K)``).
    """
    facets: List[Simplex] = []
    for sigma in k.facets:
        facets.extend(_chromatic_subdivision_facets(sigma))
    sub = ChromaticComplex(facets, name=f"Ch({k.name})" if k.name else None)
    images: Dict[Simplex, SimplicialComplex] = {
        tau: ChromaticComplex(_chromatic_subdivision_facets(tau))
        for tau in k.simplices()
    }
    carrier = CarrierMap(k, sub, images, check=False)
    return SubdivisionResult(base=k, complex=sub, carrier=carrier)


def iterated_chromatic_subdivision(k: SimplicialComplex, rounds: int) -> SubdivisionResult:
    """``Ch^r(K)`` with the composed carrier map ``K → Ch^r(K)``.

    ``rounds = 0`` returns ``K`` with the identity carrier.  Callers that
    need several consecutive depths (iterative deepening) should use a
    :class:`SubdivisionTower`, which shares the work of the lower levels.
    """
    return SubdivisionTower(k, chromatic_subdivision).level(rounds)


# ---------------------------------------------------------------------------
# Barycentric subdivision
# ---------------------------------------------------------------------------


def _barycentric_facets(sigma: Simplex) -> List[Simplex]:
    """Facets of the barycentric subdivision of a single simplex: full flags."""
    facets = []

    def rec(chain: Tuple[Simplex, ...], top: Simplex) -> None:
        if top.dim == 0:
            facets.append(Simplex(Barycenter(s) for s in chain))
            return
        for face in top.boundary():
            rec(chain + (face,), face)

    rec((sigma,), sigma)
    return facets


def barycentric_subdivision(k: SimplicialComplex) -> SubdivisionResult:
    """The barycentric subdivision with its carrier map.

    The result is colorless even when ``K`` is chromatic; it is meant for
    the colorless (continuous-map) side of the characterization.
    """
    facets: List[Simplex] = []
    for sigma in k.facets:
        facets.extend(_barycentric_facets(sigma))
    sub = SimplicialComplex(facets, name=f"Bary({k.name})" if k.name else None)
    images: Dict[Simplex, SimplicialComplex] = {}
    for tau in k.simplices():
        tau_facets: List[Simplex] = []
        for f in tau.faces(dim=tau.dim):
            tau_facets.extend(_barycentric_facets(f))
        images[tau] = SimplicialComplex(tau_facets)
    carrier = CarrierMap(k, sub, images, check=False)
    return SubdivisionResult(base=k, complex=sub, carrier=carrier)


def iterated_barycentric_subdivision(k: SimplicialComplex, rounds: int) -> SubdivisionResult:
    """``Bary^r(K)`` with the composed carrier map."""
    return SubdivisionTower(k, barycentric_subdivision).level(rounds)


# ---------------------------------------------------------------------------
# Incremental towers of subdivisions
# ---------------------------------------------------------------------------


class SubdivisionTower:
    """Lazily computed tower ``K, Sd(K), Sd²(K), …`` with composed carriers.

    Iterative-deepening callers (the decision procedure, benchmarks) ask for
    levels ``0, 1, 2, …`` in turn; recomputing each level from scratch
    repeats all the lower subdivision and carrier-composition work.  A tower
    computes each level exactly once — ``level(r)`` extends incrementally
    from the deepest level built so far and returns cached
    :class:`SubdivisionResult` objects thereafter (so their per-vertex
    carrier memos are shared too).

    ``step`` is a one-round subdivision function such as
    :func:`chromatic_subdivision` or :func:`barycentric_subdivision`.

    Levels ``r >= 1`` are additionally cached in the persistent store of
    :mod:`repro.topology.diskstore`, keyed by ``(content hash of the base
    complex, subdivision kind, r)`` — so successive CLI runs and census
    pool workers load ``Ch^r(I)`` instead of rebuilding it.  Disable the
    store (:func:`repro.topology.diskstore.store_disabled`) to keep a
    tower purely in-memory.
    """

    __slots__ = ("base", "step", "_levels", "_base_key")

    def __init__(self, base: SimplicialComplex, step) -> None:
        self.base = base
        self.step = step
        self._base_key: Optional[str] = None
        # built lazily (r -> result): a warm-store tower asked for level r
        # loads it directly and never materializes the lower levels at all
        self._levels: Dict[int, SubdivisionResult] = {}

    @property
    def depth(self) -> int:
        """The deepest level built so far."""
        return max(self._levels, default=0)

    def _level_key(self, r: int) -> str:
        """Store key for level ``r``: base content hash + step kind + depth."""
        if self._base_key is None:
            self._base_key = diskstore.complex_key(self.base)
        kind = getattr(self.step, "__name__", type(self.step).__name__)
        return diskstore.content_hash(f"{self._base_key}:{kind}:{r}")

    def level(self, r: int) -> SubdivisionResult:
        """``Sd^r(K)`` with the composed carrier ``K → Sd^r(K)``."""
        if r < 0:
            raise ValueError("rounds must be non-negative")
        got = self._levels.get(r)
        if got is not None:
            return got
        if r == 0:
            base = self.base
            result = SubdivisionResult(
                base=base,
                complex=base,
                carrier=CarrierMap(
                    base,
                    base,
                    {s: SimplicialComplex([s]) for s in base.simplices()},
                    check=False,
                ),
            )
            self._levels[0] = result
            return result
        persisting = diskstore.store_enabled()
        if persisting:
            cached = diskstore.load("tower", self._level_key(r))
            if isinstance(cached, SubdivisionResult):
                self._levels[r] = cached
                return cached
        prev = self.level(r - 1)
        step = self.step(prev.complex)
        result = SubdivisionResult(
            base=self.base,
            complex=step.complex,
            carrier=prev.carrier.compose(step.carrier),
        )
        self._levels[r] = result
        if persisting:
            diskstore.store("tower", self._level_key(r), result)
        return result

    def levels(self, up_to: int) -> Iterator[SubdivisionResult]:
        """Yield levels ``0 … up_to`` in order (building lazily)."""
        for r in range(up_to + 1):
            yield self.level(r)
