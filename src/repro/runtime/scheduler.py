"""A deterministic cooperative scheduler over process coroutines.

Processes are Python generators that *yield* operation requests
(:class:`Op`) and receive results via ``send``; each yielded operation is
executed atomically.  All interleavings of atomic operations are therefore
exactly the sequences of process ids the scheduler picks — which makes
executions replayable (a schedule is a list of pids), seedable (random
schedules) and enumerable (exhaustive DFS over choice points for small
step counts).

Supported operations:

``("write", name, value)``          — write own SWMR register in array *name*
``("read", name, index)``           — read register *index* of array *name*
``("collect", name)``               — **non**-atomic collect; sugar that the
                                      scheduler expands to one read per step
                                      is avoided: processes that want a true
                                      collect issue reads one by one; this op
                                      exists for tests of atomicity anomalies
                                      and is executed as reads in one sweep,
                                      documented as the *scan* variant
``("update", name, value)``         — update own slot of snapshot object
``("scan", name)``                  — atomic scan of snapshot object
``("decide", value)``               — record a decision and terminate
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence, Tuple

from .memory import SharedMemory

ProcessBody = Generator  # yields op tuples, returns decision via ("decide", v)
ProcessFactory = Callable[[int], ProcessBody]


class SchedulerError(RuntimeError):
    """Raised on protocol misbehaviour (bad op, step overrun, no decision)."""


@dataclass
class ExecutionTrace:
    """What happened in one run: per-process decisions and step counts.

    When the execution was created with ``record_ops=True``, ``ops`` holds
    the full ``(pid, op, result)`` log — the raw material for debugging a
    protocol or asserting on its communication pattern.
    """

    decisions: Dict[int, Any] = field(default_factory=dict)
    steps: Dict[int, int] = field(default_factory=dict)
    schedule: List[int] = field(default_factory=list)
    ops: List[Tuple[int, Tuple, Any]] = field(default_factory=list)

    def total_steps(self) -> int:
        return sum(self.steps.values())

    def ops_of(self, pid: int) -> List[Tuple[Tuple, Any]]:
        """The (op, result) log of one process, in execution order."""
        return [(op, res) for p, op, res in self.ops if p == pid]

    def writes_to(self, name: str) -> List[Tuple[int, Any]]:
        """All ``update``/``write`` operations touching a shared object."""
        return [
            (p, op[2])
            for p, op, _ in self.ops
            if op[0] in ("write", "update") and op[1] == name
        ]


class Execution:
    """One run of a set of processes over a fresh shared memory.

    Drive it with :meth:`step` (choose which process moves) until
    :meth:`done`; or use the convenience runners below.
    """

    def __init__(
        self,
        n: int,
        processes: Dict[int, ProcessBody],
        max_steps: int = 100_000,
        record_ops: bool = False,
    ):
        self.memory = SharedMemory(n)
        self.n = n
        self._procs: Dict[int, ProcessBody] = dict(processes)
        self._pending: Dict[int, Any] = {}  # next value to send into each generator
        self._started: Dict[int, bool] = {pid: False for pid in processes}
        # per-process op-result log; deterministic processes are entirely a
        # function of this sequence, which is what makes :meth:`fork` possible
        self._results: Dict[int, List[Any]] = {pid: [] for pid in processes}
        self.trace = ExecutionTrace(steps={pid: 0 for pid in processes})
        self.max_steps = max_steps
        self.record_ops = record_ops

    # -- core stepping -------------------------------------------------------

    def runnable(self) -> Tuple[int, ...]:
        """Process ids that have not yet decided."""
        return tuple(sorted(self._procs))

    def done(self) -> bool:
        return not self._procs

    def step(self, pid: int) -> None:
        """Run one atomic operation of process ``pid``."""
        if pid not in self._procs:
            raise SchedulerError(f"process {pid} is not runnable")
        gen = self._procs[pid]
        self.trace.steps[pid] += 1
        self.trace.schedule.append(pid)
        if self.trace.steps[pid] > self.max_steps:
            raise SchedulerError(f"process {pid} exceeded {self.max_steps} steps")
        try:
            if not self._started[pid]:
                self._started[pid] = True
                op = gen.send(None)
            else:
                op = gen.send(self._pending.pop(pid, None))
        except StopIteration as stop:
            raise SchedulerError(
                f"process {pid} returned {stop.value!r} without a ('decide', …) op"
            ) from stop
        result = self._execute(pid, op)
        self._pending[pid] = result
        self._results[pid].append(result)
        if self.record_ops:
            self.trace.ops.append((pid, op, result))
        if op[0] == "decide":
            self.trace.decisions[pid] = op[1]
            self._procs.pop(pid)
            gen.close()

    def fork(self, factories: Dict[int, ProcessFactory]) -> "Execution":
        """Branch this execution into an independent copy.

        ``factories`` must be the (deterministic) factories the execution's
        processes were built from.  Shared memory and the trace are copied
        structurally; each still-running generator is reconstructed by
        feeding a fresh generator the recorded op results — no memory
        operation is re-executed, no scheduling choice is replayed.  The
        fork and the original then evolve independently: this is what lets
        the prefix-tree enumerator explore sibling schedules without
        re-stepping the shared prefix through :meth:`step`.
        """
        clone = Execution.__new__(Execution)
        clone.memory = self.memory.clone()
        clone.n = self.n
        clone.max_steps = self.max_steps
        clone.record_ops = self.record_ops
        clone._pending = dict(self._pending)
        clone._started = dict(self._started)
        clone._results = {pid: list(log) for pid, log in self._results.items()}
        clone.trace = ExecutionTrace(
            decisions=dict(self.trace.decisions),
            steps=dict(self.trace.steps),
            schedule=list(self.trace.schedule),
            ops=list(self.trace.ops),
        )
        clone._procs = {}
        for pid in self._procs:
            gen = factories[pid](pid)
            results = self._results[pid]
            if results:
                try:
                    gen.send(None)
                    for value in results[:-1]:
                        gen.send(value)
                except StopIteration as stop:
                    raise SchedulerError(
                        f"process {pid} is not deterministic: it ended during "
                        f"fork replay (returned {stop.value!r})"
                    ) from stop
            clone._procs[pid] = gen
        return clone

    def _execute(self, pid: int, op: Tuple) -> Any:
        kind = op[0]
        if kind == "write":
            _, name, value = op
            self.memory.register_array(name).write(pid, value)
            return None
        if kind == "read":
            _, name, index = op
            return self.memory.register_array(name).read(index)
        if kind == "update":
            _, name, value = op
            self.memory.snapshot_object(name).update(pid, value)
            return None
        if kind == "scan":
            _, name = op
            return self.memory.snapshot_object(name).scan()
        if kind == "decide":
            return None
        raise SchedulerError(f"process {pid} issued unknown op {op!r}")


# ---------------------------------------------------------------------------
# Convenience runners
# ---------------------------------------------------------------------------


def run_with_schedule(
    n: int,
    factories: Dict[int, ProcessFactory],
    schedule: Sequence[int],
    max_steps: int = 100_000,
) -> ExecutionTrace:
    """Replay an explicit schedule; remaining steps run true round-robin.

    ``schedule`` entries naming finished (or absent) processes are skipped,
    so schedules are robust to length mismatches.  After the explicit
    prefix is exhausted, every still-running process takes one step per
    pass, in pid order, until all have decided — an interleaved tail, not
    solo blocks.
    """
    execution = Execution(
        n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
    )
    for pid in schedule:
        if execution.done():
            break
        if pid in execution.runnable():
            execution.step(pid)
    while not execution.done():
        for pid in execution.runnable():
            execution.step(pid)
    return execution.trace


def run_random(
    n: int,
    factories: Dict[int, ProcessFactory],
    seed: int,
    max_steps: int = 100_000,
) -> ExecutionTrace:
    """Run under a seeded uniformly random scheduler."""
    rng = random.Random(seed)
    execution = Execution(
        n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
    )
    while not execution.done():
        pid = rng.choice(execution.runnable())
        execution.step(pid)
    return execution.trace


def run_solo_blocks(
    n: int,
    factories: Dict[int, ProcessFactory],
    order: Sequence[int],
    max_steps: int = 100_000,
) -> ExecutionTrace:
    """Run each process to completion in the given order (sequential runs).

    Processes not named in ``order`` run afterwards in a true round-robin
    interleaving (one step each per pass), so a partial ``order`` exercises
    a solo prefix followed by a concurrent tail.
    """
    execution = Execution(
        n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
    )
    for pid in order:
        while pid in execution.runnable():
            execution.step(pid)
    while not execution.done():
        for pid in execution.runnable():
            execution.step(pid)
    return execution.trace


def explore_schedules(
    n: int,
    factories: Dict[int, ProcessFactory],
    max_executions: Optional[int] = None,
    max_steps: int = 10_000,
) -> Iterator[ExecutionTrace]:
    """Exhaustively enumerate interleavings via a prefix-tree DFS.

    Processes must be deterministic (true for everything in this library).
    The enumerator walks the tree of scheduler choices keeping *live*
    ``Execution`` states along the current path: descending into the last
    unexplored child of a node consumes the node's execution (one
    :meth:`Execution.step`), while earlier siblings get an incremental
    :meth:`Execution.fork` — shared memory is copied structurally and
    generators are rebuilt from their op-result logs, so the common prefix
    is never re-stepped through the scheduler.  This replaces a
    replay-from-scratch DFS that cost O(executions × steps) in re-stepping
    (kept under ``tests/runtime/replay_explorer.py`` as the trace-order
    reference).

    Traces are yielded in lexicographic (smallest pid first) order, as
    the replay enumerator yields them.  The number of interleavings
    explodes with step count, so callers cap with ``max_executions``.
    """
    count = 0
    root = Execution(
        n, {pid: make(pid) for pid, make in factories.items()}, max_steps=max_steps
    )
    if root.done():
        yield root.trace
        return
    stack: List[Tuple[Execution, List[int]]] = [(root, list(root.runnable()))]
    while stack:
        execution, pending = stack[-1]
        if not pending:
            stack.pop()
            continue
        pid = pending.pop(0)
        if pending:
            child = execution.fork(factories)
        else:
            child = execution  # last sibling: consume the node's live state
            stack.pop()
        child.step(pid)
        if child.done():
            yield child.trace
            count += 1
            if max_executions is not None and count >= max_executions:
                return
        else:
            stack.append((child, list(child.runnable())))
