"""Local articulation points (Section 4).

For an input facet ``σ``, a vertex ``y ∈ Δ(σ)`` is a *local articulation
point* (LAP) w.r.t. ``σ`` when its link inside the complex ``Δ(σ)`` has at
least two connected components.  LAPs are the chromatic-only obstruction
the paper isolates; the splitting deformation removes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple

from ..tasks.task import Task
from ..topology.complexes import SimplicialComplex
from ..topology.simplex import Simplex, Vertex


@dataclass(frozen=True, slots=True)
class LocalArticulationPoint:
    """A LAP: the vertex, the input facet it is local to, and its link components."""

    vertex: Vertex
    facet: Simplex
    components: Tuple[FrozenSet[Vertex], ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_of(self, z: Vertex) -> int:
        """Index of the link component containing ``z``."""
        for i, comp in enumerate(self.components):
            if z in comp:
                return i
        raise KeyError(f"{z!r} is not in the link of {self.vertex!r}")

    def __repr__(self) -> str:
        return (
            f"LAP({self.vertex!r} w.r.t. {self.facet!r}, "
            f"{self.n_components} link components)"
        )


def local_articulation_points(
    task: Task, facet: Optional[Simplex] = None
) -> Tuple[LocalArticulationPoint, ...]:
    """All LAPs of a task, optionally restricted to one input facet.

    Returned in deterministic order (facets in canonical order, vertices in
    canonical order within each facet).
    """
    return tuple(iter_local_articulation_points(task, facet))


def iter_local_articulation_points(
    task: Task, facet: Optional[Simplex] = None
) -> Iterator[LocalArticulationPoint]:
    facets = (facet,) if facet is not None else task.input_complex.facets
    for sigma in facets:
        yield from iter_image_laps(task.delta(sigma), sigma)


def iter_image_laps(
    image: SimplicialComplex, sigma: Simplex
) -> Iterator[LocalArticulationPoint]:
    """The LAPs of one facet image ``Δ(σ)``, vertices in canonical order."""
    for y in image.vertices:
        comps = image.link_components(y)
        if len(comps) >= 2:
            yield LocalArticulationPoint(vertex=y, facet=sigma, components=comps)


def is_link_connected_task(task: Task) -> bool:
    """Whether the task has no LAP w.r.t. any input facet.

    This is the paper's notion of a *link-connected task*: ``Δ(σ)`` is link
    connected for every input facet ``σ`` (the property Theorem 4.3
    establishes).
    """
    return next(iter_local_articulation_points(task), None) is None

