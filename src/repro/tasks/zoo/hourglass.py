"""The hourglass task (Figure 2 of the paper, after [HKR13, §11.1]).

A single input configuration for three processes ``P0`` (black), ``P1``
(white), ``P2`` (gray).  Solo runs decide 0.  ``P0`` running with ``P1`` or
with ``P2`` may additionally decide value 1 — and crucially ``P0``'s
value-1 vertex is *shared* between the two sides ("pinching at the
waist").  ``P1`` and ``P2`` running together may additionally decide value
2.  With all three running, any output triangle is allowed.

The output complex is two 2-dimensional lobes joined at ``P0``'s value-1
vertex ``a1``: the realization is contractible, so a continuous map
``|I| → |O|`` respecting Δ exists and the colorless-ACT condition holds —
yet the task is wait-free unsolvable.  ``a1`` is a local articulation
point; splitting it disconnects ``O``, and Corollary 5.5 (a consensus-style
argument) yields the impossibility.

The paper's figure does not enumerate the lobes' triangulation; this module
uses the minimal triangulation consistent with every property the paper
states (single LAP at ``a1``, two link components — one containing ``P1``'s
value-1 vertex — contractible realization, split complex with two connected
components).  See EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict

from ...topology.chromatic import ChromaticComplex
from ...topology.complexes import SimplicialComplex
from ...topology.simplex import Simplex, Vertex
from ..task import Task
from ...topology.carrier import CarrierMap
from .builders import single_facet_input

# Output vertices: process p's vertex with decision value v.
A0, A1 = Vertex(0, 0), Vertex(0, 1)
B0, B1, B2 = Vertex(1, 0), Vertex(1, 1), Vertex(1, 2)
C0, C1, C2 = Vertex(2, 0), Vertex(2, 1), Vertex(2, 2)

#: The five output triangles: lobe A = {A0B1C1, A1B1C1},
#: lobe B = {A1B0C2, A1B2C2, A1B2C0}; the lobes meet exactly at A1.
HOURGLASS_TRIANGLES = (
    Simplex([A0, B1, C1]),
    Simplex([A1, B1, C1]),
    Simplex([A1, B0, C2]),
    Simplex([A1, B2, C2]),
    Simplex([A1, B2, C0]),
)

#: The two-process output paths (the subdivided input edges, with P0's
#: midpoints identified into A1).
_EDGE_PATHS = {
    frozenset((0, 1)): (Simplex([A0, B1]), Simplex([B1, A1]), Simplex([A1, B0])),
    frozenset((0, 2)): (Simplex([A0, C1]), Simplex([C1, A1]), Simplex([A1, C0])),
    frozenset((1, 2)): (Simplex([B0, C2]), Simplex([C2, B2]), Simplex([B2, C0])),
}

_SOLO = {0: A0, 1: B0, 2: C0}


def hourglass_task(name: str = "hourglass") -> Task:
    """Build the hourglass task of Figure 2."""
    inputs = single_facet_input(3, values=("x0", "x1", "x2"), name="I_hourglass")
    outputs = ChromaticComplex(HOURGLASS_TRIANGLES, name="O_hourglass")

    images: Dict[Simplex, SimplicialComplex] = {}
    for tau in inputs.simplices():
        ids = tau.colors()
        if len(ids) == 1:
            (pid,) = ids
            images[tau] = SimplicialComplex([Simplex([_SOLO[pid]])])
        elif len(ids) == 2:
            images[tau] = SimplicialComplex(_EDGE_PATHS[ids])
        else:
            images[tau] = SimplicialComplex(HOURGLASS_TRIANGLES)
    delta = CarrierMap(inputs, outputs, images, check=False)
    return Task(inputs, outputs, delta, name=name)


def hourglass_articulation_vertex() -> Vertex:
    """``P0``'s value-1 vertex — the waist of the hourglass."""
    return A1
