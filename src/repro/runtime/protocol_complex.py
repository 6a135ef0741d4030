"""Empirical protocol complexes: reachable view simplices from execution.

The theoretical protocol complex ``Ch^r`` is built combinatorially in
:mod:`repro.topology.subdivision`; this module builds its *empirical*
counterpart by actually running the full-information protocol over
schedules and collecting the final-view simplices.  The two agree (tested
exhaustively for small cases), which is the executable form of the paper's
Section 2.4 claim that full-information immediate-snapshot protocols
induce chromatic subdivisions.
"""

from __future__ import annotations

from typing import Optional, Set

from ..topology.chromatic import ChromaticComplex
from ..topology.simplex import Simplex
from ..topology.subdivision import ordered_partitions
from .full_information import make_full_information_factories
from .scheduler import Execution, explore_schedules, run_random


def _run_block_schedule(factories, n: int, blocks) -> Simplex:
    execution = Execution(n, {pid: make(pid) for pid, make in factories.items()})
    for block in blocks:
        members = sorted(block)
        while any(pid in execution.runnable() for pid in members):
            for pid in members:
                if pid in execution.runnable():
                    execution.step(pid)
    while not execution.done():
        execution.step(execution.runnable()[0])
    return Simplex(execution.trace.decisions.values())


def reachable_views_complex(
    inputs: Simplex,
    rounds: int,
    random_schedules: int = 200,
    exhaustive_limit: Optional[int] = None,
    block_schedules: bool = True,
) -> ChromaticComplex:
    """The complex of final-view simplices reachable by real executions.

    Reachability is explored three ways: per-round block schedules (one per
    composition of ordered partitions, guaranteeing systematic coverage for
    ``rounds = 1``), seeded random schedules, and (optionally) exhaustive
    interleaving enumeration up to a budget.
    """
    factories, n = make_full_information_factories(inputs, rounds)
    facets: Set[Simplex] = set()

    if block_schedules:
        pids = sorted(v.color for v in inputs.vertices)
        for blocks in ordered_partitions(pids):
            facets.add(_run_block_schedule(factories, n, blocks))

    for seed in range(random_schedules):
        trace = run_random(n, factories, seed=seed)
        facets.add(Simplex(trace.decisions.values()))

    if exhaustive_limit:
        for trace in explore_schedules(
            n, factories, max_executions=exhaustive_limit
        ):
            facets.add(Simplex(trace.decisions.values()))

    return ChromaticComplex(facets, name=f"views(r={rounds})")


def realizes_subdivision(
    inputs: Simplex, rounds: int, **kwargs
) -> bool:
    """Whether the empirical complex is a subcomplex of ``Ch^r``.

    Always true if the substrate is correct (the converse inclusion —
    reaching *every* facet — needs enough schedules; block schedules
    guarantee it for one round).
    """
    from ..topology.subdivision import iterated_chromatic_subdivision

    base = ChromaticComplex([inputs])
    sub = iterated_chromatic_subdivision(base, rounds)
    empirical = reachable_views_complex(inputs, rounds, **kwargs)
    return empirical.is_subcomplex_of(sub.complex)
