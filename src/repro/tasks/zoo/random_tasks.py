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
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional

from ...topology.carrier import CarrierMap
from ...topology.chromatic import ChromaticComplex
from ...topology.complexes import SimplicialComplex
from ...topology.simplex import Simplex, Vertex
from ..task import Task, TaskError
from .builders import single_facet_input


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
        combo = tuple(rng.randrange(n_values) for _ in range(3))
        facets.add(Simplex(Vertex(i, v) for i, v in enumerate(combo)))
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
    inputs = single_facet_input(3, values=("x0", "x1", "x2"), name="I_random")
    for _ in range(200):
        pool = _random_pool(rng, n_values, n_facets)
        chosen = rng.sample(pool, min(image_size, len(pool)))
        faces = _faces(chosen)
        outputs = ChromaticComplex.from_closed(faces, name="O_random")
        images = {
            tau: SimplicialComplex.from_closed(_below_ids(faces, tau.colors()))
            for tau in inputs.simplices()
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
    from .builders import full_input_complex

    rng = random.Random(seed ^ 0xFACE7)
    inputs = full_input_complex(3, tuple(range(n_values)), name="I_multi")
    for _ in range(500):
        pool = _random_pool(rng, n_values=3, n_facets=6)
        # a shared anchor facet keeps the images of neighboring input
        # facets compatible on their common faces (monotone + strict)
        anchor = rng.choice(pool)
        facet_faces: Dict[Simplex, FrozenSet[Simplex]] = {}
        for sigma in inputs.facets:
            extra = rng.sample(pool, min(image_size - 1, len(pool)))
            facet_faces[sigma] = _faces([anchor] + extra)
        images: Dict[Simplex, SimplicialComplex] = {}
        for tau in inputs.simplices():
            incident = [faces for sigma, faces in facet_faces.items() if tau <= sigma]
            inter = frozenset.intersection(*incident) if incident else frozenset()
            images[tau] = SimplicialComplex.from_closed(_below_ids(inter, tau.colors()))
        # only the facet images are reachable: they span the output complex
        outputs = ChromaticComplex.from_closed(
            frozenset().union(*facet_faces.values()), name="O_random"
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
            incident = [faces for e, faces in kept.items() if x <= e]
            if incident:
                inter = frozenset.intersection(*incident)
                images[x] = SimplicialComplex.from_closed(_below_ids(inter, x.colors()))
        try:
            delta = CarrierMap(base.input_complex, base.output_complex, images, check=False)
            return Task(
                base.input_complex,
                base.output_complex,
                delta,
                name=f"random-sparse(seed={seed})",
            )
        except TaskError:
            continue
    raise RuntimeError(f"could not generate a sparse random task for seed {seed}")
