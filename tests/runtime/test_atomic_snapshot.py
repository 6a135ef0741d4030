"""Linearizability tests for the register-based atomic snapshot.

The AADGMS construction must return, from every scan, a value vector that
actually occurred as the register-array state at some instant inside the
scan's interval.  The scheduler makes this checkable: writes are atomic
steps, so the sequence of register states is well-defined; we record it
and assert every scan result is one of the states that existed during the
scan.  For two processes the check runs over *all* interleavings.
"""


import pytest

from repro.runtime.atomic_snapshot import snapshot_scan, snapshot_update
from repro.runtime.scheduler import Execution, explore_schedules, run_random


def _values(memory, name, n):
    arr = memory.register_array(name)
    return tuple(e[1] if e is not None else None for e in arr.snapshot_all())


def update_then_scan_factory(n):
    def make(pid):
        def body():
            yield from snapshot_update("S", n, pid, f"w{pid}")
            view = yield from snapshot_scan("S", n, pid)
            yield ("decide", view)

        return body()

    return {pid: (lambda p: make(p)) for pid in range(n)}


class InstrumentedRun:
    """Replay a schedule, recording the register-state history and the
    step interval of each process's final scan."""

    def __init__(self, n, factories, schedule=None, seed=None):
        import random

        self.n = n
        procs = {pid: make(pid) for pid, make in factories.items()}
        self.execution = Execution(n, procs)
        self.history = [(None,) * n]
        rng = random.Random(seed) if seed is not None else None
        idx = 0
        while not self.execution.done():
            if schedule is not None and idx < len(schedule):
                pid = schedule[idx]
                if pid not in self.execution.runnable():
                    pid = self.execution.runnable()[0]
            elif schedule is not None:
                pid = self.execution.runnable()[0]
            else:
                pid = rng.choice(self.execution.runnable())
            self.execution.step(pid)
            self.history.append(_values(self.execution.memory, "S", n))
            idx += 1

    def check_decisions_in_history(self):
        states = set(self.history)
        for pid, view in self.execution.trace.decisions.items():
            assert tuple(view) in states, (
                f"scan of {pid} returned {view!r}, never a register state"
            )


class TestTwoProcessesExhaustive:
    def test_all_interleavings_linearizable(self):
        n = 2
        factories = update_then_scan_factory(n)
        count = 0
        for trace in explore_schedules(n, factories, max_executions=400):
            # replay the schedule with instrumentation
            run = InstrumentedRun(n, factories, schedule=trace.schedule)
            run.check_decisions_in_history()
            count += 1
        assert count > 50  # many interleavings actually explored

    def test_scan_sees_own_write(self):
        n = 2
        factories = update_then_scan_factory(n)
        for trace in explore_schedules(n, factories, max_executions=200):
            for pid, view in trace.decisions.items():
                assert view[pid] == f"w{pid}"


class TestThreeProcessesRandom:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_schedules_linearizable(self, seed):
        n = 3
        factories = update_then_scan_factory(n)
        run = InstrumentedRun(n, factories, seed=seed)
        run.check_decisions_in_history()

    def test_solo_run_sees_exactly_self(self):
        n = 3
        factories = update_then_scan_factory(n)
        del factories[1], factories[2]
        run = InstrumentedRun(n, factories, seed=0)
        (view,) = run.execution.trace.decisions.values()
        assert view == ("w0", None, None)


class TestRepeatedUpdates:
    def test_monotone_views_per_process(self):
        """Successive scans by one process never go backwards."""
        n = 2

        def writer(pid):
            def body():
                for k in range(3):
                    yield from snapshot_update("S", n, pid, k)
                yield ("decide", "done")

            return body()

        def scanner(pid):
            def body():
                views = []
                for _ in range(4):
                    v = yield from snapshot_scan("S", n, pid)
                    views.append(v)
                yield ("decide", tuple(views))

            return body()

        factories = {0: writer, 1: scanner}
        for seed in range(40):
            trace = run_random(n, factories, seed=seed)
            views = trace.decisions[1]
            seen = [v[0] for v in views]
            numeric = [x for x in seen if x is not None]
            assert numeric == sorted(numeric)
