"""Loop agreement tasks [HR97, GK98].

A loop agreement task is specified by a 2-dimensional (colorless) complex
``K``, three distinguished vertices ``v0, v1, v2`` and three simple paths
``p01, p12, p20`` joining them in ``K``.  Processes start on distinguished
vertices; with one distinct input they decide that vertex, with two they
decide a simplex on the connecting path, with three they may decide any
simplex of ``K``.

Loop agreement is the engine of the undecidability results discussed in
the paper's related-work section: solvability of a loop agreement task is
equivalent to contractibility of its loop.  The chromatic encoding here
assigns each process a vertex of ``K`` as its value; an output triple is
legal when the underlying value set is a simplex of ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from ...topology.carrier import CarrierMap
from ...topology.chromatic import ChromaticComplex
from ...topology.complexes import SimplicialComplex
from ...topology.simplex import Simplex, Vertex
from ..task import Task
from .builders import full_input_complex


@dataclass(frozen=True)
class Loop:
    """A triangle loop in a colorless complex: three corners and three paths.

    Each path is a vertex sequence; ``paths[k]`` joins ``corners[k]`` to
    ``corners[(k+1) % 3]``.
    """

    complex: SimplicialComplex
    corners: Tuple[Hashable, Hashable, Hashable]
    paths: Tuple[Tuple[Hashable, ...], Tuple[Hashable, ...], Tuple[Hashable, ...]]

    def __post_init__(self) -> None:
        for k, path in enumerate(self.paths):
            if path[0] != self.corners[k] or path[-1] != self.corners[(k + 1) % 3]:
                raise ValueError(f"path {k} does not join its corners")
            for a, b in zip(path, path[1:]):
                if Simplex([a, b]) not in self.complex:
                    raise ValueError(f"path {k} uses non-edge {(a, b)!r}")

    def path_between(self, i: int, j: int) -> Tuple[Hashable, ...]:
        """The vertex sequence of the path joining corners ``i`` and ``j``."""
        key = (min(i, j), max(i, j))
        index = {(0, 1): 0, (1, 2): 1, (0, 2): 2}[key]
        return self.paths[index]

    def full_cycle(self) -> Tuple[Hashable, ...]:
        """The loop as a closed vertex sequence."""
        out: List[Hashable] = list(self.paths[0])
        out.extend(self.paths[1][1:])
        out.extend(self.paths[2][1:])
        return tuple(out)


def _chromatic_facets_over(k: SimplicialComplex, ids: Sequence[int]) -> List[Simplex]:
    """All chromatic simplices on ``ids`` whose value set is a simplex of ``k``."""
    import itertools

    out = []
    for combo in itertools.product(k.vertices, repeat=len(ids)):
        if Simplex(set(combo)) in k:
            out.append(Simplex(Vertex(i, v) for i, v in zip(ids, combo)))
    return out


def _path_edge_facets(path: Sequence[Hashable], ids: Sequence[int]) -> List[Simplex]:
    """Chromatic edges over two ids whose values lie on a common path edge."""
    out = []
    i, j = ids
    for a, b in zip(path, path[1:]):
        for va, vb in ((a, a), (a, b), (b, a), (b, b)):
            out.append(Simplex([Vertex(i, va), Vertex(j, vb)]))
    return out


def loop_agreement_task(loop: Loop, name: str = None) -> Task:
    """Build the (chromatic encoding of the) loop agreement task of ``loop``."""
    k = loop.complex
    inputs = full_input_complex(3, (0, 1, 2), name="I_loop")
    out_facets = _chromatic_facets_over(k, (0, 1, 2))
    outputs = ChromaticComplex(out_facets, name="O_loop")

    images: Dict[Simplex, SimplicialComplex] = {}
    for tau in inputs.simplices():
        ids = sorted(tau.colors())
        starts = sorted({v.value for v in tau.vertices})
        if len(starts) == 1:
            corner = loop.corners[starts[0]]
            images[tau] = SimplicialComplex(
                [Simplex(Vertex(i, corner) for i in ids)]
            )
        elif len(starts) == 2:
            path = loop.path_between(*starts)
            if len(ids) == 2:
                images[tau] = SimplicialComplex(_path_edge_facets(path, ids))
            else:
                facets = []
                for a, b in zip(path, path[1:]):
                    sub = SimplicialComplex([Simplex([a, b])])
                    facets.extend(_chromatic_facets_over(sub, ids))
                images[tau] = SimplicialComplex(facets)
        else:
            images[tau] = SimplicialComplex(_chromatic_facets_over(k, ids))
    delta = CarrierMap(inputs, outputs, images, check=False)
    return Task(inputs, outputs, delta, name=name or "loop-agreement").restrict_to_reachable()


def triangle_loop(filled: bool) -> Loop:
    """The simplest loop: a triangle boundary, optionally filled.

    The filled loop is contractible (task solvable); the hollow one is not
    (task unsolvable) — the minimal pair exercising the contractibility
    obstruction.
    """
    if filled:
        k = SimplicialComplex([("u", "v", "w")], name="disk")
    else:
        k = SimplicialComplex([("u", "v"), ("v", "w"), ("w", "u")], name="circle")
    return Loop(k, ("u", "v", "w"), (("u", "v"), ("v", "w"), ("w", "u")))


def projective_plane_loop() -> Loop:
    """A loop generating the 2-torsion of the projective plane.

    The complex is the minimal 6-vertex triangulation of RP²; the loop
    ``1–2–4–1`` generates ``H1(RP²) = Z/2``: it does not bound (so the
    loop agreement task is unsolvable) although *twice* the loop does —
    the canonical example where integer (not mod-2 rank) homology is
    needed, exercising the Smith-normal-form machinery end to end.
    """
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    k = SimplicialComplex(facets, name="RP2")
    return Loop(k, (1, 2, 4), ((1, 2), (2, 4), (4, 1)))


def annulus_loop() -> Loop:
    """A loop winding once around an annulus — not contractible.

    The annulus is the triangulated product of a hexagon with an interval;
    the distinguished loop is the inner boundary hexagon.
    """
    inner = [f"i{t}" for t in range(6)]
    outer = [f"o{t}" for t in range(6)]
    facets = []
    for t in range(6):
        t2 = (t + 1) % 6
        facets.append((inner[t], inner[t2], outer[t]))
        facets.append((inner[t2], outer[t], outer[t2]))
    k = SimplicialComplex(facets, name="annulus")
    return Loop(
        k,
        (inner[0], inner[2], inner[4]),
        (
            (inner[0], inner[1], inner[2]),
            (inner[2], inner[3], inner[4]),
            (inner[4], inner[5], inner[0]),
        ),
    )
