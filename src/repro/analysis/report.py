"""Structured analysis reports for tasks.

:func:`analyze_task` runs the full characterization machinery on a task
and gathers everything a reader of the paper would want to know — sizes,
canonicity, LAP inventory, split statistics, the verdict and its
certificate — into one :class:`TaskReport`, renderable as text.  This is
the programmatic form of the walkthroughs in ``examples/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..solvability.decision import SolvabilityVerdict, Status, decide_solvability
from ..splitting.lap import local_articulation_points
from ..splitting.pipeline import TransformResult, link_connected_form
from ..tasks.canonical import is_canonical
from ..tasks.task import Task
from ..topology.links import longest_link_size


@dataclass
class TaskReport:
    """Everything the characterization says about one task."""

    task: Task
    n_processes: int
    input_facets: int
    output_facets: int
    output_vertices: int
    canonical: bool
    lap_count: int
    lap_components: Tuple[int, ...]
    n_splits: int
    o_prime_components: int
    longest_link: int
    verdict: SolvabilityVerdict
    transform: Optional[TransformResult] = None

    @property
    def solvable(self) -> Optional[bool]:
        return self.verdict.solvable

    def lines(self) -> List[str]:
        """The report as human-readable lines."""
        out = [
            f"task: {self.task}",
            f"processes: {self.n_processes}; input facets: {self.input_facets}; "
            f"output facets: {self.output_facets} "
            f"({self.output_vertices} vertices)",
            f"canonical: {self.canonical}",
            f"local articulation points: {self.lap_count}"
            + (
                f" (link components: {sorted(set(self.lap_components))})"
                if self.lap_count
                else ""
            ),
            f"splitting: {self.n_splits} splits -> "
            f"{self.o_prime_components} component(s) in O'",
            f"longest output link: {self.longest_link}",
            f"verdict: {self.verdict.status.value}",
        ]
        if self.verdict.status is Status.UNSOLVABLE:
            out.append(f"certificate: {self.verdict.obstruction}")
        elif self.verdict.status is Status.SOLVABLE:
            out.append(
                f"certificate: simplicial map on Ch^{self.verdict.witness_rounds}(I)"
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def analyze_task(task: Task, max_rounds: int = 2) -> TaskReport:
    """Run the full pipeline on a task and package the findings."""
    laps = (
        local_articulation_points(task) if task.input_complex.dim == 2 else ()
    )
    transform = None
    n_splits = 0
    o_prime_components = len(task.output_complex.connected_components())
    if task.input_complex.dim == 2:
        transform = link_connected_form(task)
        n_splits = transform.n_splits
        o_prime_components = len(
            transform.task.output_complex.connected_components()
        )
    verdict = decide_solvability(task, max_rounds=max_rounds)
    return TaskReport(
        task=task,
        n_processes=task.n_processes,
        input_facets=len(task.input_complex.facets),
        output_facets=len(task.output_complex.facets),
        output_vertices=len(task.output_complex.vertices),
        canonical=is_canonical(task),
        lap_count=len(laps),
        lap_components=tuple(l.n_components for l in laps),
        n_splits=n_splits,
        o_prime_components=o_prime_components,
        longest_link=longest_link_size(task.output_complex),
        verdict=verdict,
        transform=transform,
    )
