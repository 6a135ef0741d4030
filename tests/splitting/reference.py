"""Per-step rebuild of LAP elimination: the parity oracle for the splitting.

Each split rewrites *every* image ``Δ(τ)``, builds a fresh output complex
and carrier map, runs a full :meth:`CarrierMap.monotonize` and a new
:class:`Task`, then detects the LAPs of the facet from scratch.  This is
the direct reading of Section 4.1 and the pipeline's behaviour before the
image table; ``test_split_parity.py`` checks the library against it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.splitting.deformation import SplitStep, SplitValue
from repro.splitting.lap import LocalArticulationPoint, local_articulation_points
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex, Vertex


def rewrite_images(
    task: Task, lap: LocalArticulationPoint, copies: Tuple[Vertex, ...]
) -> Dict[Simplex, SimplicialComplex]:
    """Every image ``Δ(τ)`` with the LAP's vertex replaced by its copies."""
    y = lap.vertex
    sigma = lap.facet
    comp_of = {z: i for i, comp in enumerate(lap.components) for z in comp}
    new_images: Dict[Simplex, SimplicialComplex] = {}
    for tau in task.input_complex.simplices():
        new_facets: List[Simplex] = []
        for rho in task.delta(tau).facets:
            if y not in rho:
                new_facets.append(rho)
                continue
            rest = rho.without(y)
            if not tau <= sigma:
                new_facets.extend(rho.replace_vertex(y, c) for c in copies)
            elif rest is None:
                new_facets.extend(Simplex([c]) for c in copies)
            else:
                witness = rest.sorted_vertices()[0]
                new_facets.append(rho.replace_vertex(y, copies[comp_of[witness]]))
        new_images[tau] = SimplicialComplex(new_facets)
    return new_images


def split_lap(task: Task, lap: LocalArticulationPoint) -> SplitStep:
    """One split, rebuilding the whole task."""
    y = lap.vertex
    copies = tuple(Vertex(y.color, SplitValue(y.value, i)) for i in range(lap.n_components))
    new_images = rewrite_images(task, lap, copies)
    facets: List[Simplex] = []
    for image in new_images.values():
        facets.extend(image.facets)
    output = ChromaticComplex(facets, name=task.output_complex.name)
    delta = CarrierMap(task.input_complex, output, new_images, check=False).monotonize()
    after = Task(task.input_complex, output, delta, name=task.name, check=False)
    return SplitStep(lap=lap, copies=copies, before=task, after=after)


def eliminate_laps(task: Task) -> Tuple[Task, Tuple[SplitStep, ...]]:
    """The final task and every step, facets in canonical order."""
    current = task
    steps: List[SplitStep] = []
    for sigma in task.input_complex.facets:
        while True:
            laps = local_articulation_points(current, facet=sigma)
            if not laps:
                break
            step = split_lap(current, laps[0])
            steps.append(step)
            current = step.after
    return current, tuple(steps)
