"""Sequential composition of tasks.

If every legal output configuration of ``T1`` is a legal input
configuration of ``T2``, the *sequential composition* ``T1 ; T2`` is the
task "solve ``T1``, then solve ``T2`` on what you decided".  Its
specification is the carrier-map composition ``Δ2 ∘ Δ1``, and its
operational content is protocol composition: wait-free protocols compose
sequentially, so solvability of both factors implies solvability of the
composition (the converse is false — a composition can be easier than its
factors).

This is the building block behind staged protocols (e.g. "first narrow
the candidates with set agreement, then run a solvable refinement"), and
it gives the test suite an algebra to check the decision procedure
against.
"""

from __future__ import annotations

from typing import Optional

from .task import Task, TaskError


def composable(first: Task, second: Task) -> bool:
    """Whether ``first``'s reachable outputs are inputs of ``second``."""
    reachable = first.reachable_outputs()
    return all(f in second.input_complex for f in reachable.facets)


def sequential_composition(
    first: Task, second: Task, name: Optional[str] = None
) -> Task:
    """The task ``first ; second``.

    Requires the output vocabulary of ``first`` to embed in the input
    complex of ``second`` (checked).  The composed Δ is
    ``σ ↦ ⋃ { Δ2(τ) : τ ∈ Δ1(σ) }``; the composed output complex is the
    reachable part of ``second``'s outputs.
    """
    if not composable(first, second):
        raise TaskError(
            "tasks do not compose: some output of the first task is not an "
            "input simplex of the second"
        )
    delta = first.delta.compose(second.delta)
    composed = Task(
        first.input_complex,
        second.output_complex,
        delta,
        name=name or f"{first.name or 'T1'};{second.name or 'T2'}",
        check=True,
    )
    return composed.restrict_to_reachable()


def _run_stage(gen, prefix: str):
    """Drive a stage's generator with namespaced shared-object names.

    Yields the stage's ops with object names prefixed (the two stages must
    not share snapshot arrays), and returns the stage's decision.
    """
    result = None
    while True:
        op = gen.send(result)
        kind = op[0]
        if kind == "decide":
            return op[1]
        result = yield (kind, f"{prefix}{op[1]}", *op[2:])


def compose_protocol_factories(first_build, second_build):
    """Compose protocol factory builders sequentially.

    ``first_build(inputs)`` / ``second_build(inputs)`` are factory builders
    as used by :func:`repro.runtime.simulation.validate_protocol`.  The
    composite runs the first protocol, then uses each process's decision
    as its input vertex for the second protocol (factories keyed on input
    vertices make this per-process hand-off possible); the stages run in
    disjoint shared-memory namespaces.
    """
    from ..topology.simplex import Simplex

    def build(inputs):
        first_factories = first_build(inputs)

        def make(pid: int, first_factory):
            def factory(p: int):
                def body():
                    decision = yield from _run_stage(first_factory(p), "s1/")
                    second_factories = second_build(Simplex([decision]))
                    final = yield from _run_stage(second_factories[p](p), "s2/")
                    yield ("decide", final)

                return body()

            return factory

        return {pid: make(pid, f) for pid, f in first_factories.items()}

    return build
