"""The combined solvability decision procedure (Theorem 5.1, operationalized).

Pipeline for a three-process task ``T``:

1. transform: canonicalize (Section 3) and split LAPs (Section 4) to get a
   link-connected ``T' = (I, O', Δ')`` with the same solvability;
2. run the decidable impossibility obstructions on ``T'`` (Corollary 5.5,
   Corollary 5.6, homological boundary obstruction) — any hit is a sound
   ``UNSOLVABLE`` with a witness;
3. iterative-deepening search for a *color-agnostic* simplicial map
   ``Ch^r(I) → O'`` carried by ``Δ'`` for ``r = 0, 1, …`` — a witness is a
   sound ``SOLVABLE`` (and directly powers the executable protocol via the
   Figure 7 algorithm);
4. otherwise report ``UNKNOWN`` honestly — the remaining gap is the
   contractibility problem, undecidable in general [GK98].

Two-process tasks are decided *exactly* by Proposition 5.4 (no splitting
needed); one-process tasks are trivially solvable.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs import annotate, counter_add, span
from ..splitting.pipeline import TransformResult, link_connected_form
from ..tasks.task import Task
from ..topology.maps import SimplicialMap
from ..topology.subdivision import (
    SubdivisionResult,
    SubdivisionTower,
    barycentric_subdivision,
    chromatic_subdivision,
)
from .map_search import SearchBudgetExceeded, SearchStats, find_map, verify_map
from .obstructions import (
    ObstructionWitness,
    corollary_5_5,
    corollary_5_6,
    empty_image_obstruction,
    homological_obstruction,
    two_process_solvable,
)


class WitnessRejected(RuntimeError):
    """Raised when the map search returns a map that :func:`verify_map` rejects.

    A SOLVABLE verdict is only reported with a checked witness; this
    failure is a defect in the search, never a property of the task.
    """


class Status(enum.Enum):
    """Outcome of the decision procedure."""

    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    UNKNOWN = "unknown"


@dataclass
class SolvabilityVerdict:
    """The decision outcome with its certificate.

    ``witness_map`` (for ``SOLVABLE``) is a color-agnostic simplicial map
    from ``Ch^r(I)`` to the transformed output complex, carried by the
    transformed Δ; ``obstruction`` (for ``UNSOLVABLE``) names the obstruction
    and where it fires.
    """

    status: Status
    task: Task
    transform: Optional[TransformResult] = None
    witness_map: Optional[SimplicialMap] = None
    witness_subdivision: Optional[SubdivisionResult] = None
    witness_rounds: Optional[int] = None
    witness_chromatic: bool = False
    obstruction: Optional[ObstructionWitness] = None
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def solvable(self) -> Optional[bool]:
        """``True`` / ``False`` / ``None`` (unknown)."""
        if self.status is Status.SOLVABLE:
            return True
        if self.status is Status.UNSOLVABLE:
            return False
        return None

    def __repr__(self) -> str:
        extra = ""
        if self.status is Status.SOLVABLE:
            extra = f", r={self.witness_rounds}"
        elif self.status is Status.UNSOLVABLE and self.obstruction:
            extra = f", {self.obstruction.kind}"
        return f"Verdict[{self.task.name or 'task'}: {self.status.value}{extra}]"


#: obstruction checkers run in order; each returns a witness or ``None``
OBSTRUCTION_CHECKS = (
    ("empty-image", empty_image_obstruction),
    ("corollary-5.5", corollary_5_5),
    ("homological", homological_obstruction),
    ("corollary-5.6", corollary_5_6),
)


def _subdivision_tower(task: Task, name: str) -> SubdivisionTower:
    """An incremental ``Sd^r(I)`` tower: deepening levels share prefix work."""
    if name == "chromatic":
        return SubdivisionTower(task.input_complex, chromatic_subdivision)
    if name == "barycentric":
        return SubdivisionTower(task.input_complex, barycentric_subdivision)
    raise ValueError(f"unknown subdivision engine {name!r}")


def decide_solvability(
    task: Task,
    max_rounds: int = 2,
    engine: str = "chromatic",
    run_obstructions: bool = True,
    chromatic_witness: bool = False,
    max_nodes: int = 2_000_000,
    validate: bool = False,
) -> SolvabilityVerdict:
    """Decide wait-free solvability of a task.

    Parameters
    ----------
    task:
        The task to decide (1, 2 or 3 processes).
    max_rounds:
        Iterative-deepening budget on the subdivision depth ``r``.
    engine:
        ``"chromatic"`` (default, ``Ch^r``) or ``"barycentric"``
        (``Bary^r``) — an ablation knob; the chromatic engine's witnesses
        double as protocols.
    run_obstructions:
        Set to ``False`` to benchmark the pure search path.
    chromatic_witness:
        Also require the witness map to preserve colors (stronger; a
        color-preserving witness is an ACT protocol with no Figure 7
        post-processing needed).  Failure to find one is *not* evidence of
        unsolvability, so this only affects SOLVABLE witnesses.
    max_nodes:
        Backtracking budget per search.
    validate:
        Pre-flight the task through the :mod:`repro.check` structural
        passes first; a malformed task raises
        :class:`~repro.check.preflight.PreflightError` (with every
        diagnostic and witness) instead of yielding a silent wrong
        verdict.
    """
    if validate:
        # imported lazily: repro.check depends on the tasks/topology layers
        from ..check.preflight import preflight_check

        preflight_check(task)
    with span(
        "decide", task=task.name or "task", n_processes=task.n_processes
    ) as decide_span:
        verdict = _decide_solvability(
            task,
            max_rounds,
            engine,
            run_obstructions,
            chromatic_witness,
            max_nodes,
        )
        annotate(decide_span, status=verdict.status.value)
    return verdict


def _decide_solvability(
    task: Task,
    max_rounds: int,
    engine: str,
    run_obstructions: bool,
    chromatic_witness: bool,
    max_nodes: int,
) -> SolvabilityVerdict:
    """The decision pipeline proper, inside the ``decide`` span.

    The free-form ``verdict.stats`` timings are kept for compatibility and
    back-filled from the same stage boundaries the spans cover; the span
    tree (``decide`` → ``transform`` → ``obstructions`` → ``search``) is
    the structured view — see ``docs/observability.md``.
    """
    t0 = time.perf_counter()
    stats: Dict[str, float] = {}
    n = task.n_processes

    if n == 1:
        return SolvabilityVerdict(
            status=Status.SOLVABLE,
            task=task,
            witness_rounds=0,
            stats={"seconds": time.perf_counter() - t0},
        )

    if n == 2:
        solvable = two_process_solvable(task)
        verdict = SolvabilityVerdict(
            status=Status.SOLVABLE if solvable else Status.UNSOLVABLE,
            task=task,
            stats={"seconds": time.perf_counter() - t0},
        )
        if not solvable:
            verdict.obstruction = ObstructionWitness(
                kind="proposition-5.4",
                detail="no component-consistent choice of solo outputs exists",
            )
            return verdict
        # find an explicit witness for synthesis
        _attach_witness(
            verdict, task, None, max_rounds, engine, chromatic_witness, max_nodes, stats
        )
        verdict.stats.update(stats)
        verdict.stats["seconds"] = time.perf_counter() - t0
        if verdict.witness_map is None:
            # solvable by Prop 5.4 even if the depth budget found no witness
            verdict.status = Status.SOLVABLE
        return verdict

    if n != 3:
        raise ValueError(
            f"the characterization is implemented for up to three processes, got n={n}"
        )

    t_transform = time.perf_counter()
    with span("transform") as transform_span:
        transform = link_connected_form(task)
        annotate(transform_span, n_splits=transform.n_splits)
    stats["transform_seconds"] = time.perf_counter() - t_transform
    stats["n_splits"] = transform.n_splits
    counter_add("decide.transform.splits", transform.n_splits)

    if run_obstructions:
        t_obs = time.perf_counter()
        with span("obstructions") as obstructions_span:
            for kind, check in OBSTRUCTION_CHECKS:
                with span("obstruction.check", kind=kind) as check_span:
                    witness = check(transform.task)
                    annotate(check_span, hit=witness is not None)
                counter_add("decide.obstructions.checked")
                if witness is not None:
                    counter_add(f"decide.obstructions.hit.{kind}")
                    annotate(obstructions_span, hit=kind)
                    stats["obstruction_seconds"] = time.perf_counter() - t_obs
                    stats["seconds"] = time.perf_counter() - t0
                    return SolvabilityVerdict(
                        status=Status.UNSOLVABLE,
                        task=task,
                        transform=transform,
                        obstruction=witness,
                        stats=stats,
                    )
        stats["obstruction_seconds"] = time.perf_counter() - t_obs

    verdict = SolvabilityVerdict(
        status=Status.UNKNOWN, task=task, transform=transform, stats=stats
    )
    _attach_witness(
        verdict,
        transform.task,
        transform,
        max_rounds,
        engine,
        chromatic_witness,
        max_nodes,
        stats,
    )
    verdict.stats["seconds"] = time.perf_counter() - t0
    return verdict


def _attach_witness(
    verdict: SolvabilityVerdict,
    target_task: Task,
    transform: Optional[TransformResult],
    max_rounds: int,
    engine: str,
    chromatic_witness: bool,
    max_nodes: int,
    stats: Dict[str, float],
) -> None:
    """Iterative-deepening map search; mutates ``verdict`` on success."""
    tower = _subdivision_tower(target_task, engine)
    search_stats = SearchStats()
    with span("search", engine=engine, max_rounds=max_rounds) as search_span:
        for r in range(max_rounds + 1):
            with span("search.round", r=r) as round_span:
                sub = tower.level(r)
                if engine == "barycentric" and chromatic_witness:
                    raise ValueError(
                        "barycentric subdivisions cannot carry chromatic maps"
                    )
                try:
                    f = find_map(
                        sub,
                        target_task.delta,
                        chromatic=chromatic_witness,
                        max_nodes=max_nodes,
                        stats=search_stats,
                    )
                except SearchBudgetExceeded:
                    stats[f"search_r{r}_budget_exceeded"] = 1.0
                    annotate(round_span, budget_exceeded=True)
                    break
                annotate(
                    round_span,
                    found=f is not None,
                    nodes=search_stats.nodes,
                    backtracks=search_stats.backtracks,
                )
            if f is not None:
                if not verify_map(
                    sub, target_task.delta, f, chromatic=chromatic_witness
                ):
                    raise WitnessRejected(
                        f"map search returned an r={r} witness for "
                        f"{target_task.name or 'task'} that verify_map rejects"
                    )
                verdict.status = Status.SOLVABLE
                verdict.witness_map = f
                verdict.witness_subdivision = sub
                verdict.witness_rounds = r
                verdict.witness_chromatic = chromatic_witness
                break
        annotate(search_span, witness_rounds=verdict.witness_rounds)
    stats["search_nodes"] = float(search_stats.nodes)
    stats["search_backtracks"] = float(search_stats.backtracks)
    counter_add("decide.search.nodes", search_stats.nodes)
    counter_add("decide.search.backtracks", search_stats.backtracks)
    counter_add("decide.search.propagations", search_stats.propagations)
