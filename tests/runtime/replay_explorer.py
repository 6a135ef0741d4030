"""Trace-order reference for :func:`repro.runtime.scheduler.explore_schedules`.

The replay-from-scratch DFS enumerator that ``explore_schedules`` replaced.
It re-steps every prefix through a fresh :class:`Execution` for each node
it visits, so it is slow but obviously correct.  ``test_scheduler.py``
asserts the prefix-tree enumerator yields the same traces in the same
order, and ``benchmarks/bench_conformance.py`` measures against it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.runtime.scheduler import Execution, ExecutionTrace, ProcessFactory


def explore_schedules_replay(
    n: int,
    factories: Dict[int, ProcessFactory],
    max_executions: Optional[int] = None,
    max_steps: int = 10_000,
) -> Iterator[ExecutionTrace]:
    """Enumerate interleavings smallest pid first, replaying each prefix."""
    count = 0
    stack: List[List[int]] = [[]]
    while stack:
        prefix = stack.pop()
        execution = Execution(
            n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
        )
        ok = True
        for pid in prefix:
            if pid not in execution.runnable():
                ok = False
                break
            execution.step(pid)
        if not ok:
            continue
        if execution.done():
            yield execution.trace
            count += 1
            if max_executions is not None and count >= max_executions:
                return
            continue
        for pid in reversed(execution.runnable()):
            stack.append(prefix + [pid])
