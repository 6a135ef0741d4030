"""Adversarial schedulers.

Random schedules miss the executions that make wait-free computing hard;
these strategies target them deliberately:

* :func:`starver` — one process runs alone for a long prefix, then the
  rest are released (solo-then-burst);
* :func:`alternator` — two chosen processes alternate step-for-step while
  the third is frozen until they finish (the schedule shape behind the
  Figure 7 negotiation worst case);
* :func:`stutterer` — a process advances only every ``period``-th
  opportunity (maximal staleness of its writes).

Each strategy is a callable ``(runnable, step_index) -> pid`` consumed by
:func:`run_adversarial`; :func:`adversarial_sweep` runs a protocol under
the whole battery and returns the traces, for use next to
``validate_protocol``'s random/sequential schedules.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .scheduler import Execution, ExecutionTrace, ProcessFactory

Strategy = Callable[[Tuple[int, ...], int], int]


def starver(victims: Sequence[int], runner: int) -> Strategy:
    """Run ``runner`` to completion first; ``victims`` only after."""

    def pick(runnable: Tuple[int, ...], step: int) -> int:
        if runner in runnable:
            return runner
        for pid in runnable:
            if pid not in victims:
                return pid
        return runnable[0]

    return pick


def alternator(pair: Tuple[int, int]) -> Strategy:
    """Alternate the pair step-for-step; everyone else waits for them."""

    def pick(runnable: Tuple[int, ...], step: int) -> int:
        live = [pid for pid in pair if pid in runnable]
        if live:
            return live[step % len(live)]
        return runnable[0]

    return pick


def stutterer(slow: int, period: int = 4) -> Strategy:
    """The ``slow`` process moves once per ``period`` steps at most."""

    def pick(runnable: Tuple[int, ...], step: int) -> int:
        others = [pid for pid in runnable if pid != slow]
        if not others:
            return slow
        if slow in runnable and step % period == period - 1:
            return slow
        return others[step % len(others)]

    return pick


def run_adversarial(
    n: int,
    factories: Dict[int, ProcessFactory],
    strategy: Strategy,
    max_steps: int = 100_000,
) -> ExecutionTrace:
    """Run one execution under a strategy."""
    execution = Execution(
        n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
    )
    step = 0
    while not execution.done():
        pid = strategy(execution.runnable(), step)
        if pid not in execution.runnable():
            pid = execution.runnable()[0]
        execution.step(pid)
        step += 1
    return execution.trace


def standard_battery(pids: Sequence[int]) -> List[Tuple[str, Strategy]]:
    """The default adversary collection for a set of process ids."""
    pids = sorted(pids)
    battery: List[Tuple[str, Strategy]] = []
    for runner in pids:
        others = tuple(p for p in pids if p != runner)
        battery.append((f"starve-all-but-{runner}", starver(others, runner)))
    if len(pids) >= 2:
        for i in range(len(pids)):
            for j in range(i + 1, len(pids)):
                battery.append(
                    (f"alternate-{pids[i]}-{pids[j]}", alternator((pids[i], pids[j])))
                )
    for slow in pids:
        battery.append((f"stutter-{slow}", stutterer(slow)))
    return battery


def adversarial_sweep(
    n: int,
    build_factories: Callable[[], Dict[int, ProcessFactory]],
    pids: Sequence[int],
    max_steps: int = 100_000,
) -> Iterator[Tuple[str, ExecutionTrace]]:
    """Run the standard battery; yields ``(strategy name, trace)`` pairs."""
    for name, strategy in standard_battery(pids):
        yield name, run_adversarial(n, build_factories(), strategy, max_steps=max_steps)
