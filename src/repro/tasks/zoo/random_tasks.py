"""Seeded random task generation.

Random tasks drive the solvability-preservation experiment (Figure 6 /
Lemma 4.2: splitting must not change the verdict) and the property-based
tests.  Generation strategy: sample a random pure 2-dimensional chromatic
output complex over small value ranges, pick random facet images for each
input facet, then close downward (``Δ(τ)`` = faces of the chosen facets
restricted to ``τ``'s ids, intersected over all containing facets to force
monotonicity), retrying until the result validates as a task.

Every such ``Δ(τ)`` is already face-closed: the simplices of a closed set
whose colors lie in ``ids(τ)`` form a closed set again, and so does an
intersection of closed sets.  The generators therefore work on simplex
sets and build each image once with
:meth:`~repro.topology.complexes.SimplicialComplex.from_closed`, never
re-closing faces they already have.

What does not change between seeds is built once, at import: the input
simplices (each with the input facets containing it) and the output
triangles over the default value range.  A seed's faces are grouped by
color set once, and each image is the union of the groups whose colors
its simplex has.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ...topology.carrier import CarrierMap
from ...topology.chromatic import ChromaticComplex
from ...topology.complexes import SimplicialComplex
from ...topology.simplex import Simplex, Vertex
from ..task import Task, TaskError
from .builders import full_input_complex, single_facet_input


def _below_ids(simplices: Iterable[Simplex], ids: FrozenSet[int]) -> FrozenSet[Simplex]:
    """The members of a face-closed set whose colors lie in ``ids`` (closed again).

    When every member is a face of a simplex with all of ``ids``'s colors,
    this is the closure of the members whose color set is exactly ``ids``.
    """
    return frozenset(s for s in simplices if s.colors() <= ids)


def _faces(facets: Iterable[Simplex]) -> FrozenSet[Simplex]:
    """The face-closed set of all faces of ``facets``."""
    out: set = set()
    for f in facets:
        out.update(f.faces())
    return frozenset(out)


def _triangle(combo: Tuple[int, ...]) -> Simplex:
    """The output triangle ``{(0,a),(1,b),(2,c)}`` of a value triple."""
    return Simplex(Vertex(i, v) for i, v in enumerate(combo))


#: value triple -> output triangle, over the value range every generator
#: draws from by default.  Holding the triangles keeps them interned across
#: seeds, and with them the faces, sort keys and color sets cached on them.
_TRIANGLES: Dict[Tuple[int, ...], Simplex] = {
    combo: _triangle(combo) for combo in itertools.product(range(3), repeat=3)
}


def _by_ids(faces: Iterable[Simplex]) -> Dict[FrozenSet[int], Set[Simplex]]:
    """The members of ``faces`` grouped by color set."""
    groups: Dict[FrozenSet[int], Set[Simplex]] = {}
    for s in faces:
        groups.setdefault(s.colors(), set()).add(s)
    return groups


def _below(groups: Dict[FrozenSet[int], Set[Simplex]], ids: FrozenSet[int]) -> FrozenSet[Simplex]:
    """:func:`_below_ids` of a set grouped by :func:`_by_ids`, group by group."""
    return frozenset().union(*(group for key, group in groups.items() if key <= ids))


def _rigid(image: SimplicialComplex, tau: Simplex) -> bool:
    """Whether ``image`` may be ``Δ(τ)``: nonempty and pure of ``τ``'s dimension.

    An attempt with an image that fails this can only fail ``Task``
    validation (strictness or rigidity), so the generators drop it before
    building the rest; the draws for it are already made.
    """
    return bool(image) and image.dim == tau.dim and image.is_pure()


def _incidence(inputs: SimplicialComplex) -> Tuple[Tuple[Simplex, Tuple[int, ...]], ...]:
    """Each input simplex, in canonical order, with the indices of the facets containing it."""
    return tuple(
        (tau, tuple(i for i, sigma in enumerate(inputs.facets) if tau <= sigma))
        for tau in inputs.simplices()
    )


#: the input simplices of :func:`random_single_input_task` with their
#: incidence; each task builds its own complex over them with
#: ``from_closed``, which skips the closure pass
_SINGLE_INCIDENCE = _incidence(single_facet_input(3, values=("x0", "x1", "x2")))
_SINGLE_INPUT = frozenset(tau for tau, _ in _SINGLE_INCIDENCE)

#: the same for :func:`random_multi_facet_task`'s default binary input complex
_MULTI_VALUES = 2
_MULTI_INCIDENCE = _incidence(full_input_complex(3, tuple(range(_MULTI_VALUES))))
_MULTI_INPUT = frozenset(tau for tau, _ in _MULTI_INCIDENCE)


#: facets requested by default when the value range allows it
DEFAULT_N_FACETS = 6


def random_output_complex(
    rng: random.Random, n_values: int = 3, n_facets: Optional[int] = None
) -> ChromaticComplex:
    """A random pure 2-dimensional chromatic complex.

    Facets are triples ``{(0,a),(1,b),(2,c)}`` with values sampled from
    ``range(n_values)``; duplicates collapse, so the result may have fewer
    facets than requested.  Only ``n_values ** 3`` distinct facets exist,
    so requests beyond that bound are rejected (the sampling loop could
    never satisfy them); the default request is capped to the bound.
    """
    return ChromaticComplex(_random_pool(rng, n_values, n_facets), name="O_random")


def _random_pool(
    rng: random.Random, n_values: int = 3, n_facets: Optional[int] = None
) -> List[Simplex]:
    """The facets :func:`random_output_complex` draws, in canonical order.

    Distinct triangles are never faces of one another, so this list is
    exactly the facet tuple of the complex they span: the generators sample
    from it (as :func:`_sorted_facets` would) without building that complex.
    """
    if n_values < 1:
        raise ValueError(f"n_values must be at least 1, got {n_values}")
    distinct = n_values**3
    if n_facets is None:
        n_facets = min(DEFAULT_N_FACETS, distinct)
    if n_facets < 1:
        raise ValueError(f"n_facets must be at least 1, got {n_facets}")
    if n_facets > distinct:
        raise ValueError(
            f"n_facets={n_facets} is unsatisfiable: only {distinct} distinct "
            f"facets exist over n_values={n_values} (the sampling loop would "
            "never terminate)"
        )
    facets = set()
    while len(facets) < n_facets:
        combo = (rng.randrange(n_values), rng.randrange(n_values), rng.randrange(n_values))
        triangle = _TRIANGLES.get(combo)
        facets.add(triangle if triangle is not None else _triangle(combo))
    return sorted(facets, key=Simplex.sort_key)


def _sorted_facets(complex_: SimplicialComplex) -> List[Simplex]:
    """Facets in canonical sort order, as a list ``rng.sample`` accepts.

    Every ``rng.sample``/``rng.choice``/``rng.shuffle`` over facets must
    draw from this order: sampling a set-derived sequence would make the
    generated task depend on hash/iteration order rather than only on the
    seed (and so differ across processes and ``PYTHONHASHSEED`` values).
    """
    return sorted(complex_.facets, key=Simplex.sort_key)


def random_single_input_task(
    seed: int, n_values: int = 3, n_facets: Optional[int] = None, image_size: int = 3
) -> Task:
    """A random three-process task with a single input facet.

    ``image_size`` bounds how many output facets the full-participation
    image contains.  Lower-dimensional images are the induced faces, which
    makes Δ monotone and rigid by construction.
    """
    rng = random.Random(seed)
    inputs = ChromaticComplex.from_closed(_SINGLE_INPUT, name="I_random")
    for _ in range(200):
        pool = _random_pool(rng, n_values, n_facets)
        chosen = rng.sample(pool, min(image_size, len(pool)))
        faces = _faces(chosen)
        groups = _by_ids(faces)
        outputs = ChromaticComplex.from_closed(faces, name="O_random")
        images = {
            tau: SimplicialComplex.from_closed(_below(groups, tau.colors()))
            for tau, _ in _SINGLE_INCIDENCE
        }
        delta = CarrierMap(inputs, outputs, images, check=False)
        try:
            return Task(inputs, outputs, delta, name=f"random(seed={seed})")
        except TaskError:
            continue
    raise RuntimeError(f"could not generate a valid random task for seed {seed}")


def random_multi_facet_task(
    seed: int, n_values: int = 2, image_size: int = 2
) -> Task:
    """A random three-process task whose input complex has several facets.

    The input complex is the full binary assignment complex (8 facets
    sharing faces); each input facet gets a random set of output facets,
    and lower-dimensional images are intersections of the incident facet
    images (restricted to matching ids), which forces monotonicity.
    Retries until the construction validates, so shared faces always admit
    common outputs.  The output complex is the reachable part only: the
    union of the facet images.  These tasks exercise the multi-facet paths of
    canonicalization and splitting that single-facet generators miss.
    """
    rng = random.Random(seed ^ 0xFACE7)
    if n_values == _MULTI_VALUES:
        inputs = ChromaticComplex.from_closed(_MULTI_INPUT, name="I_multi")
        incidence = _MULTI_INCIDENCE
    else:
        inputs = full_input_complex(3, tuple(range(n_values)), name="I_multi")
        incidence = _incidence(inputs)
    for _ in range(500):
        pool = _random_pool(rng, n_values=3, n_facets=6)
        # a shared anchor facet keeps the images of neighboring input
        # facets compatible on their common faces (monotone + strict)
        anchor = rng.choice(pool)
        facet_faces: List[FrozenSet[Simplex]] = []
        for _sigma in inputs.facets:
            extra = rng.sample(pool, min(image_size - 1, len(pool)))
            facet_faces.append(_faces([anchor] + extra))
        images: Dict[Simplex, SimplicialComplex] = {}
        for tau, containing in incidence:
            inter = frozenset.intersection(*(facet_faces[i] for i in containing))
            if tau.dim < 2:
                # a triangle's image keeps every face of its facets' images
                inter = _below_ids(inter, tau.colors())
            image = SimplicialComplex.from_closed(inter)
            if not _rigid(image, tau):
                break
            images[tau] = image
        else:
            # only the facet images are reachable: they span the output complex
            outputs = ChromaticComplex.from_closed(
                frozenset().union(*facet_faces), name="O_random"
            )
            delta = CarrierMap(inputs, outputs, images, check=False)
            try:
                return Task(inputs, outputs, delta, name=f"random-multi(seed={seed})")
            except TaskError:
                continue
    raise RuntimeError(f"could not generate a multi-facet random task for seed {seed}")


def random_sparse_task(
    seed: int, n_values: int = 3, n_facets: Optional[int] = None, drop_edges: int = 2
) -> Task:
    """A random task whose lower-dimensional images are thinned.

    Starting from :func:`random_single_input_task`'s construction, random
    facets are removed from the edge-level images (keeping at least one and
    re-closing vertices by intersection), producing tasks with less
    regular Δ — a richer source of LAPs for the splitting pipeline.
    """
    if n_facets is None:
        n_facets = min(7, n_values**3)
    rng = random.Random(seed ^ 0x5EED)
    for attempt in range(200):
        base = random_single_input_task(
            rng.randrange(1 << 30), n_values=n_values, n_facets=n_facets
        )
        inputs = base.input_complex
        images: Dict[Simplex, SimplicialComplex] = {
            tau: base.delta(tau) for tau in inputs.simplices()
        }
        kept: Dict[Simplex, FrozenSet[Simplex]] = {}
        for tau in inputs.simplices(dim=1):
            img_facets: List[Simplex] = _sorted_facets(images[tau])
            rng.shuffle(img_facets)
            kept[tau] = _faces(img_facets[: max(1, len(img_facets) - drop_edges)])
            images[tau] = SimplicialComplex.from_closed(kept[tau])
        # re-derive vertex images as intersections of incident edge images
        for x in inputs.simplices(dim=0):
            inter = frozenset.intersection(*(faces for e, faces in kept.items() if x <= e))
            images[x] = SimplicialComplex.from_closed(_below_ids(inter, x.colors()))
            if not _rigid(images[x], x):
                break
        else:
            delta = CarrierMap(inputs, base.output_complex, images, check=False)
            try:
                return Task(
                    inputs,
                    base.output_complex,
                    delta,
                    name=f"random-sparse(seed={seed})",
                )
            except TaskError:
                continue
    raise RuntimeError(f"could not generate a sparse random task for seed {seed}")
