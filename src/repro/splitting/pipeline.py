"""Iterated LAP elimination (Theorem 4.3) and the full task transform.

``eliminate_laps`` repeatedly applies the splitting deformation, facet by
facet, until the task is link-connected; Lemma 4.1 guarantees progress
(the LAP count w.r.t. the current facet strictly decreases, and facets
already cleaned stay clean).  All splits update one
:class:`~repro.splitting.deformation.ImageTable`, frozen into a
:class:`Task` once, after the last facet.

``link_connected_form`` is the complete front end used by the decision
procedure: canonicalize if needed (Section 3), then split (Section 4),
returning a :class:`TransformResult` that can project any output vertex of
the final task ``T'`` back to an output vertex of the original ``T`` —
which is exactly how a protocol for ``T'`` becomes a protocol for ``T``
(Theorem 3.1 + Lemma 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs import annotate, counter_add, span
from ..tasks.canonical import CanonicalForm, canonicalize_if_needed
from ..tasks.task import Task
from ..topology import diskstore
from ..topology.complexes import complexes_built
from ..topology.simplex import Vertex
from .deformation import ImageTable, SplitRecord, unsplit_vertex
from .lap import is_link_connected_task


class SplittingDidNotConverge(RuntimeError):
    """Raised when LAP elimination exceeds its **per-facet** step budget.

    The ``max_steps`` budget of :func:`eliminate_laps` bounds the number
    of splitting deformations spent on any *single* input facet — it is
    reset for each facet, so a task may perform far more than
    ``max_steps`` splits in total and still converge.  Theorem 4.3 proves
    termination, so hitting this indicates a bug or an adversarially
    large task; the budget exists to fail loudly rather than loop.
    """


class TransformNotLinkConnected(RuntimeError):
    """Raised when :func:`link_connected_form` returns a task with a LAP.

    Theorem 4.3 guarantees a link-connected result, so this is a defect in
    the pipeline; it is checked explicitly so ``python -O`` keeps it.
    """


@dataclass(frozen=True)
class SplitPipelineResult:
    """The outcome of iterated LAP elimination on a canonical task."""

    original: Task
    task: Task
    steps: Tuple[SplitRecord, ...]

    @property
    def n_splits(self) -> int:
        return len(self.steps)

    def project_vertex(self, v: Vertex) -> Vertex:
        """Map an output vertex of the split task back to the original.

        Split copies carry their history in their values, so projection is
        simply recursive unwrapping.
        """
        return unsplit_vertex(v)


def eliminate_laps(task: Task, max_steps: int = 10_000) -> SplitPipelineResult:
    """Apply splitting deformations until the task is link-connected.

    The splits rewrite one :class:`ImageTable`; the deformed task is built
    once at the end, and a task without LAPs is returned as it is.  The
    task must be canonical (callers should use
    :func:`link_connected_form` which handles canonicalization).  Facets
    are processed in canonical order; within a facet, the first LAP in
    canonical order is split each round, matching the constructive proof of
    Theorem 4.3.

    ``max_steps`` is a **per-facet** budget: it is reset for every input
    facet, so the total number of splits across the task may legitimately
    exceed it (Lemma 4.1 only guarantees a strictly decreasing LAP count
    *per facet*).  Exhausting the budget on any single facet raises
    :class:`SplittingDidNotConverge`.
    """
    table = ImageTable(task)
    steps = []
    for sigma in task.input_complex.facets:
        with span("split.facet", facet=str(sigma)) as facet_span:
            budget = max_steps
            splits_before = len(steps)
            built_before = complexes_built()
            while True:
                with span("split.lap_detect"):
                    lap = table.first_lap(sigma)
                if lap is None:
                    break
                if budget <= 0:
                    raise SplittingDidNotConverge(
                        f"LAP elimination for facet {sigma!r} exceeded its "
                        f"per-facet budget of {max_steps} steps (the budget "
                        f"resets for each facet; {len(steps)} splits were "
                        "performed before this facet's budget ran out)"
                    )
                budget -= 1
                steps.append(table.split(lap))
            facet_splits = len(steps) - splits_before
            facet_built = complexes_built() - built_before
            annotate(facet_span, splits=facet_splits, complexes_built=facet_built)
            counter_add("split.steps", facet_splits)
            counter_add("split.complexes_built", facet_built)
            if facet_splits:
                counter_add("split.facets_with_laps")
    if not steps:
        return SplitPipelineResult(original=task, task=task, steps=())
    with span("split.task_build"):
        current = table.freeze()
    return SplitPipelineResult(original=task, task=current, steps=tuple(steps))


@dataclass(frozen=True)
class TransformResult:
    """Canonicalization + splitting, with projection back to the original.

    Attributes
    ----------
    original:
        The task handed in.
    canonical:
        Its canonical form (Section 3).
    pipeline:
        The LAP-elimination record on the canonical task.
    task:
        The final link-connected task ``T' = (I, O', Δ')``.
    """

    original: Task
    canonical: CanonicalForm
    pipeline: SplitPipelineResult
    task: Task

    @property
    def n_splits(self) -> int:
        return self.pipeline.n_splits

    def project_vertex(self, v: Vertex) -> Vertex:
        """Map a ``T'`` output vertex to an output vertex of the original task.

        First un-split (Lemma 4.2 direction ``A_y → A``), then drop the
        input coordinate added by canonicalization (Theorem 3.1).
        """
        return self.canonical.project_vertex(unsplit_vertex(v))


def link_connected_form(task: Task, max_steps: int = 10_000) -> TransformResult:
    """The full Section 3 + Section 4 transform of a task.

    Returns a link-connected task with the same input complex and the same
    solvability, together with the projection needed to pull protocols
    back.  The output complex is restricted to its reachable part first
    (the paper's standing assumption ``O = ∪_σ Δ(σ)``).

    The transform is a pure function of the task, so the complete
    :class:`TransformResult` (including the step record — callers' split
    counters stay identical) is cached in the persistent store of
    :mod:`repro.topology.diskstore`, keyed by the task's content hash.
    """
    cache_key: Optional[str] = None
    if diskstore.store_enabled():
        cache_key = diskstore.task_key(task)
        cached = diskstore.load("transform", cache_key)
        if isinstance(cached, TransformResult):
            return cached
    with span("canonicalize"):
        reachable = task.restrict_to_reachable()
        canonical = canonicalize_if_needed(reachable)
    if task.input_complex.dim == 2:
        with span("split"):
            pipeline = eliminate_laps(canonical.task, max_steps=max_steps)
    else:
        # splitting is specific to three processes; lower dimensions need no
        # LAP elimination for the characterization (Proposition 5.4)
        pipeline = SplitPipelineResult(
            original=canonical.task, task=canonical.task, steps=()
        )
    result = TransformResult(
        original=task,
        canonical=canonical,
        pipeline=pipeline,
        task=pipeline.task,
    )
    if task.input_complex.dim == 2 and not is_link_connected_task(result.task):
        raise TransformNotLinkConnected(
            f"link_connected_form left a local articulation point in {task.name or 'task'}"
        )
    if cache_key is not None:
        diskstore.store("transform", cache_key, result)
    return result
