"""The splitting deformation (Section 4.1).

Given a canonical task ``T = (I, O, Δ)``, an input facet ``σ`` and a LAP
``y ∈ Δ(σ)`` whose link in ``Δ(σ)`` has components ``C_1 … C_r``, the
deformation replaces ``y`` by fresh copies ``y_1 … y_r`` and rewires Δ:

* simplices not containing ``y`` are kept as they are;
* a facet ``{z, z', y} ∈ Δ(τ)`` for ``τ ⊆ σ`` becomes ``{z, z', y_i}``
  where ``C_i`` is the component containing ``{z, z'}`` (and likewise for
  edges ``{z, y}``);
* for input simplices ``τ ⊄ σ``, every copy is substituted (the component
  cannot be determined locally), matching the paper's "add all the facets
  ``{z, z', y_i}`` … for all ``i``";
* vertex-level images ``{y} ∈ Δ(x)`` receive all copies and are then
  pruned by monotonization (see DESIGN.md: the paper's Section 2.3 remark
  licenses dropping outputs no protocol could decide).

Lemma 4.2: the deformed task ``T_y`` is solvable iff ``T`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from ..obs import span
from ..tasks.canonical import is_canonical
from ..tasks.task import Task, TaskError
from ..topology.carrier import CarrierMap
from ..topology.chromatic import ChromaticComplex
from ..topology.complexes import SimplicialComplex
from ..topology.simplex import Simplex, Vertex
from .lap import LocalArticulationPoint


class SplitValue:
    """The value of a split copy: the original value plus a branch index.

    Values nest under repeated splitting; :func:`unsplit_value` unwinds to
    the original output value.

    ``repr`` and ``hash`` are computed eagerly: split values are vertex
    payloads, so subdivision vertices embed them in *their* reprs and sort
    keys — without the cached string, nested splits made every vertex
    comparison re-walk the whole SplitValue chain.
    """

    __slots__ = ("base", "branch", "_repr_str", "_hash_value")

    def __init__(self, base: Hashable, branch: int) -> None:
        self.base = base
        self.branch = branch
        self._repr_str = f"{base!r}/{branch}"
        self._hash_value = hash((SplitValue, base, branch))

    def __repr__(self) -> str:
        return self._repr_str

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, SplitValue):
            return self.branch == other.branch and self.base == other.base
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash_value

    def __reduce__(self):
        return (SplitValue, (self.base, self.branch))


def unsplit_value(value: Hashable) -> Hashable:
    """Recursively strip :class:`SplitValue` wrappers."""
    while isinstance(value, SplitValue):
        value = value.base
    return value


def unsplit_vertex(v: Vertex) -> Vertex:
    """Map a (possibly repeatedly) split output vertex back to the original."""
    return Vertex(v.color, unsplit_value(v.value))


@dataclass(frozen=True)
class SplitStep:
    """One application of the splitting deformation."""

    before: Task
    after: Task
    lap: LocalArticulationPoint
    copies: Tuple[Vertex, ...]

    def project_vertex(self, v: Vertex) -> Vertex:
        """Map an ``after``-output vertex to a ``before``-output vertex."""
        if v in self.copies:
            return self.lap.vertex
        return v


class SplittingError(TaskError):
    """Raised when the deformation cannot be applied."""


def split_lap(task: Task, lap: LocalArticulationPoint, check: bool = True) -> SplitStep:
    """Apply the splitting deformation of ``O`` w.r.t. ``lap``.

    The task must be canonical, three-process (2-dimensional) and have a
    reachable output complex.  Returns the deformed task together with the
    bookkeeping needed to project protocols back (Lemma 4.2's easy
    direction).
    """
    if task.input_complex.dim != 2:
        raise SplittingError(
            "the splitting deformation is defined for three-process (2-dimensional) tasks"
        )
    if check and not is_canonical(task):
        raise SplittingError("the splitting deformation requires a canonical task")

    y = lap.vertex
    copies = tuple(Vertex(y.color, SplitValue(y.value, i)) for i in range(lap.n_components))
    with span("split.rewrite"):
        new_images = _rewrite_images(task, lap, copies)
    with span("split.task_build"):
        all_facets: List[Simplex] = []
        for img in new_images.values():
            all_facets.extend(img.facets)
        new_output = ChromaticComplex(all_facets, name=task.output_complex.name)
        delta = CarrierMap(task.input_complex, new_output, new_images, check=False)
    with span("split.monotonize"):
        delta = delta.monotonize()
    with span("split.task_build"):
        after = Task(task.input_complex, new_output, delta, name=task.name, check=check)
    return SplitStep(before=task, after=after, lap=lap, copies=copies)


def _rewrite_images(
    task: Task, lap: LocalArticulationPoint, copies: Tuple[Vertex, ...]
) -> Dict[Simplex, SimplicialComplex]:
    """Every image ``Δ(τ)`` with the LAP's vertex replaced by its copies."""
    y = lap.vertex
    sigma = lap.facet
    comp_of: Dict[Vertex, int] = {}
    for i, comp in enumerate(lap.components):
        for z in comp:
            comp_of[z] = i
    new_images: Dict[Simplex, SimplicialComplex] = {}
    for tau in task.input_complex.simplices():
        image = task.delta(tau)
        new_facets: List[Simplex] = []
        for rho in image.facets:
            if y not in rho:
                new_facets.append(rho)
                continue
            rest = rho.without(y)
            if tau <= sigma:
                if rest is None:
                    # Δ(x) ∋ {y}: the component is not locally determined —
                    # add every copy, monotonization prunes the bad ones.
                    new_facets.extend(Simplex([c]) for c in copies)
                else:
                    witness = rest.sorted_vertices()[0]
                    try:
                        i = comp_of[witness]
                    except KeyError as exc:
                        raise SplittingError(
                            f"{witness!r} from Δ({tau!r}) is missing from the link "
                            f"of {y!r} in Δ({sigma!r}); is Δ monotonic?"
                        ) from exc
                    new_facets.append(rho.replace_vertex(y, copies[i]))
            else:
                new_facets.extend(rho.replace_vertex(y, c) for c in copies)
        new_images[tau] = SimplicialComplex(new_facets)
    return new_images
