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

Only the images that contain ``y`` change, so a split is a delta update
on an :class:`ImageTable`, a mutable ``{τ: Δ(τ)}`` over the task's input
complex: the images containing ``y`` are rewritten and re-pruned against
their cofaces, and every other image is kept as it is.  An image without
``y`` needs no pruning: each simplex of an old coface image that avoids
``y`` survives the rewrite, so the old inclusion still holds.  The
output complex, carrier map and :class:`Task` are built once, by
:meth:`ImageTable.freeze`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..obs import span
from ..tasks.canonical import is_canonical
from ..tasks.task import Task, TaskError
from ..topology.carrier import CarrierMap
from ..topology.chromatic import ChromaticComplex
from ..topology.complexes import SimplicialComplex
from ..topology.simplex import Simplex, Vertex
from .lap import LocalArticulationPoint, iter_image_laps


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
class SplitRecord:
    """One application of the splitting deformation: the LAP and its copies."""

    lap: LocalArticulationPoint
    copies: Tuple[Vertex, ...]

    def project_vertex(self, v: Vertex) -> Vertex:
        """Map an output vertex after the split to one before it."""
        if v in self.copies:
            return self.lap.vertex
        return v


@dataclass(frozen=True)
class SplitStep(SplitRecord):
    """A single split together with the tasks before and after it."""

    before: Task
    after: Task


class SplittingError(TaskError):
    """Raised when the deformation cannot be applied."""


def _require_three_processes(task: Task) -> None:
    if task.input_complex.dim != 2:
        raise SplittingError(
            "the splitting deformation is defined for three-process (2-dimensional) tasks"
        )


class ImageTable:
    """The images ``{τ: Δ(τ)}`` of a canonical task, split in place.

    Each :meth:`split` replaces only the images that contain the LAP's
    vertex; :meth:`freeze` builds the deformed :class:`Task` from the
    current images.
    """

    def __init__(self, task: Task) -> None:
        self.task = task
        self.images: Dict[Simplex, SimplicialComplex] = {
            tau: task.delta(tau) for tau in task.input_complex.simplices()
        }
        self._cofaces: Dict[Simplex, List[Simplex]] = {}
        for tau in self.images:
            if tau.dim > 0:
                for face in tau.boundary():
                    self._cofaces.setdefault(face, []).append(tau)

    def first_lap(self, sigma: Simplex) -> Optional[LocalArticulationPoint]:
        """The first LAP w.r.t. the input facet ``σ``, in canonical order."""
        return next(iter_image_laps(self.images[sigma], sigma), None)

    def split(self, lap: LocalArticulationPoint) -> SplitRecord:
        """Apply the splitting deformation of the current images w.r.t. ``lap``."""
        _require_three_processes(self.task)
        y = lap.vertex
        copies = tuple(Vertex(y.color, SplitValue(y.value, i)) for i in range(lap.n_components))
        with span("split.rewrite"):
            rewritten = self._rewrite(lap, copies)
        with span("split.monotonize"):
            # top-down, so each image is pruned against final coface images
            for tau, facets in rewritten:
                cofaces = [self.images[t] for t in self._cofaces.get(tau, ())]
                if not cofaces:
                    self.images[tau] = SimplicialComplex(facets)
                else:
                    self.images[tau] = SimplicialComplex(
                        face
                        for rho in facets
                        for face in rho.faces()
                        if all(face in image for image in cofaces)
                    )
        return SplitRecord(lap=lap, copies=copies)

    def _rewrite(
        self, lap: LocalArticulationPoint, copies: Tuple[Vertex, ...]
    ) -> List[Tuple[Simplex, List[Simplex]]]:
        """The facets of every image containing ``y``, with ``y`` replaced by
        its copies; highest-dimensional input simplices first."""
        y = lap.vertex
        sigma = lap.facet
        y_simplex = Simplex([y])
        comp_of: Dict[Vertex, int] = {}
        for i, comp in enumerate(lap.components):
            for z in comp:
                comp_of[z] = i
        touched = sorted(
            (tau for tau, image in self.images.items() if y_simplex in image),
            key=lambda tau: -tau.dim,
        )
        out: List[Tuple[Simplex, List[Simplex]]] = []
        for tau in touched:
            new_facets: List[Simplex] = []
            for rho in self.images[tau].facets:
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
            out.append((tau, new_facets))
        return out

    def freeze(self, check: bool = False) -> Task:
        """The task with the current images, its output complex their union."""
        task = self.task
        all_facets: List[Simplex] = []
        for image in self.images.values():
            all_facets.extend(image.facets)
        output = ChromaticComplex(all_facets, name=task.output_complex.name)
        delta = CarrierMap(task.input_complex, output, self.images, check=False)
        return Task(task.input_complex, output, delta, name=task.name, check=check)


def split_lap(task: Task, lap: LocalArticulationPoint, check: bool = True) -> SplitStep:
    """Apply the splitting deformation of ``O`` w.r.t. ``lap``.

    The task must be canonical, three-process (2-dimensional) and have a
    reachable output complex.  Returns the deformed task together with the
    bookkeeping needed to project protocols back (Lemma 4.2's easy
    direction).
    """
    _require_three_processes(task)
    if check and not is_canonical(task):
        raise SplittingError("the splitting deformation requires a canonical task")
    table = ImageTable(task)
    record = table.split(lap)
    with span("split.task_build"):
        after = table.freeze(check=check)
    return SplitStep(lap=lap, copies=record.copies, before=task, after=after)
