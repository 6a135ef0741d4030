"""The test-and-set (leader election) task.

Every participating process outputs 0 ("won") or 1 ("lost"); exactly one
participant wins, and a solo participant must win.  One-shot test-and-set
has consensus number 2, so it is wait-free unsolvable from read/write
registers for two or more processes — here the characterization sees it
immediately: for any two participants the legal outputs form two disjoint
edges (i wins / j wins), so the solo outputs (both "win") are separated in
``Δ(edge)`` and Corollary 5.5 fires without any splitting.
"""

from __future__ import annotations

from typing import Iterable

from ...topology.chromatic import ChromaticComplex
from ...topology.simplex import Simplex, Vertex
from ..task import Task, task_from_function
from .builders import single_facet_input

WIN, LOSE = 0, 1


def test_and_set_task(n: int = 3, name: str = None) -> Task:
    """Build the one-shot test-and-set task for ``n`` processes."""
    if n < 2:
        raise ValueError("test-and-set needs at least two processes")
    inputs = single_facet_input(n, values=tuple(f"x{i}" for i in range(n)),
                                name="I_tas")
    out_facets = []
    for winner in range(n):
        out_facets.append(
            Simplex(
                Vertex(i, WIN if i == winner else LOSE) for i in range(n)
            )
        )
    outputs = ChromaticComplex(out_facets, name="O_tas")

    def rule(sigma: Simplex) -> Iterable[Simplex]:
        ids = sorted(sigma.colors())
        for winner in ids:
            yield Simplex(
                Vertex(i, WIN if i == winner else LOSE) for i in ids
            )

    return task_from_function(inputs, outputs, rule, name=name or f"test-and-set(n={n})")
