"""Unit tests for the cooperative scheduler."""

import pytest

from repro.runtime.scheduler import (
    Execution,
    SchedulerError,
    explore_schedules,
    run_random,
    run_solo_blocks,
    run_with_schedule,
)

from .replay_explorer import explore_schedules_replay


def writer_reader_factory(pid: int):
    """Write own id, read the other register, decide what was seen."""

    def body():
        yield ("write", "R", f"hello-{pid}")
        other = yield ("read", "R", 1 - pid)
        yield ("decide", other)

    return body()


class TestExecution:
    def test_step_and_done(self):
        ex = Execution(2, {0: writer_reader_factory(0), 1: writer_reader_factory(1)})
        assert ex.runnable() == (0, 1)
        while not ex.done():
            ex.step(ex.runnable()[0])
        assert set(ex.trace.decisions) == {0, 1}

    def test_sequential_order_visibility(self):
        trace = run_solo_blocks(
            2, {0: writer_reader_factory, 1: writer_reader_factory}, order=[0, 1]
        )
        assert trace.decisions[0] is None        # ran before 1 wrote
        assert trace.decisions[1] == "hello-0"   # saw 0's write

    def test_step_on_finished_process_rejected(self):
        ex = Execution(1, {0: iter([("decide", 1)])})
        # a bare iterator is not a generator; use a real one
        def body():
            yield ("decide", 1)

        ex = Execution(1, {0: body()})
        ex.step(0)
        with pytest.raises(SchedulerError):
            ex.step(0)

    def test_unknown_op_rejected(self):
        def bad():
            yield ("frobnicate",)

        ex = Execution(1, {0: bad()})
        with pytest.raises(SchedulerError):
            ex.step(0)

    def test_return_without_decide_rejected(self):
        def returns():
            return 42
            yield  # pragma: no cover

        ex = Execution(1, {0: returns()})
        with pytest.raises(SchedulerError):
            ex.step(0)

    def test_step_budget(self):
        def forever():
            while True:
                yield ("scan", "S")

        ex = Execution(1, {0: forever()}, max_steps=10)
        with pytest.raises(SchedulerError):
            while True:
                ex.step(0)


class TestOpRecording:
    def test_ops_recorded(self):
        ex = Execution(
            2,
            {0: writer_reader_factory(0), 1: writer_reader_factory(1)},
            record_ops=True,
        )
        while not ex.done():
            ex.step(ex.runnable()[0])
        assert len(ex.trace.ops) == 6
        kinds = [op[0] for _, op, _ in ex.trace.ops]
        assert kinds.count("write") == 2
        assert kinds.count("decide") == 2

    def test_ops_of_and_writes_to(self):
        ex = Execution(
            2,
            {0: writer_reader_factory(0), 1: writer_reader_factory(1)},
            record_ops=True,
        )
        while not ex.done():
            ex.step(ex.runnable()[0])
        mine = ex.trace.ops_of(0)
        assert mine[0][0] == ("write", "R", "hello-0")
        writes = ex.trace.writes_to("R")
        assert len(writes) == 2

    def test_off_by_default(self):
        ex = Execution(2, {0: writer_reader_factory(0), 1: writer_reader_factory(1)})
        while not ex.done():
            ex.step(ex.runnable()[0])
        assert ex.trace.ops == []

    def test_figure7_decisions_write_bound(self, identity3):
        """Each Figure 7 process updates M_decisions a bounded number of
        times (Lemma 5.3's termination, observed at the op level)."""
        from repro.runtime.chromatic_agreement import (
            make_chromatic_agreement_factories,
        )
        from repro.topology.links import longest_link_size

        sigma = identity3.input_complex.facets[0]

        def agnostic(pid, x):
            yield ("update", "_AG", x)
            state = yield ("scan", "_AG")
            from repro.topology.simplex import Simplex

            tau = Simplex(v for v in state if v is not None)
            return identity3.delta(tau).vertices[0]

        factories = make_chromatic_agreement_factories(identity3, sigma, agnostic)
        import random

        rng = random.Random(7)
        ex = Execution(
            3, {pid: f(pid) for pid, f in factories.items()}, record_ops=True
        )
        while not ex.done():
            ex.step(rng.choice(ex.runnable()))
        writes = ex.trace.writes_to("M_decisions")
        bound = 3 * (2 + longest_link_size(identity3.output_complex))
        assert len(writes) <= bound


class TestRunners:
    def test_run_with_schedule_replays(self):
        sched = [0, 0, 0, 1, 1, 1]
        t1 = run_with_schedule(2, {0: writer_reader_factory, 1: writer_reader_factory}, sched)
        t2 = run_with_schedule(2, {0: writer_reader_factory, 1: writer_reader_factory}, sched)
        assert t1.decisions == t2.decisions

    def test_run_with_schedule_tolerates_extra_entries(self):
        sched = [0] * 50 + [1] * 50
        trace = run_with_schedule(2, {0: writer_reader_factory, 1: writer_reader_factory}, sched)
        assert set(trace.decisions) == {0, 1}

    def test_run_random_deterministic_per_seed(self):
        a = run_random(2, {0: writer_reader_factory, 1: writer_reader_factory}, seed=5)
        b = run_random(2, {0: writer_reader_factory, 1: writer_reader_factory}, seed=5)
        assert a.schedule == b.schedule
        assert a.decisions == b.decisions

    def test_trace_counts_steps(self):
        trace = run_random(2, {0: writer_reader_factory, 1: writer_reader_factory}, seed=1)
        assert trace.total_steps() == 6  # 3 ops per process


class TestRoundRobinTail:
    """Regression: the tail loops claimed round-robin but ran leftover
    processes as solo blocks in pid order (``for … break`` re-entered from
    the lowest pid every iteration)."""

    def test_run_with_schedule_tail_interleaves(self):
        trace = run_with_schedule(
            2, {0: writer_reader_factory, 1: writer_reader_factory}, schedule=[]
        )
        # one step per live process per pass, in pid order
        assert trace.schedule == [0, 1, 0, 1, 0, 1]
        # under the interleaved tail both writes land before either read
        assert trace.decisions[0] == "hello-1"
        assert trace.decisions[1] == "hello-0"

    def test_run_with_schedule_tail_after_partial_prefix(self):
        trace = run_with_schedule(
            2, {0: writer_reader_factory, 1: writer_reader_factory}, schedule=[1]
        )
        assert trace.schedule == [1, 0, 1, 0, 1, 0]

    def test_run_solo_blocks_partial_order_tail_interleaves(self):
        def factory3(pid):
            def body():
                yield ("write", "R", f"hello-{pid}")
                other = yield ("read", "R", (pid + 1) % 3)
                yield ("decide", other)

            return body()

        trace = run_solo_blocks(3, {pid: factory3 for pid in range(3)}, order=[2])
        # process 2 runs solo, then 0 and 1 alternate step for step
        assert trace.schedule == [2, 2, 2, 0, 1, 0, 1, 0, 1]

    def test_full_order_unchanged(self):
        trace = run_solo_blocks(
            2, {0: writer_reader_factory, 1: writer_reader_factory}, order=[0, 1]
        )
        assert trace.schedule == [0, 0, 0, 1, 1, 1]


class TestFork:
    def test_fork_is_independent(self):
        ex = Execution(2, {0: writer_reader_factory(0), 1: writer_reader_factory(1)})
        ex.step(0)  # 0 writes
        factories = {0: writer_reader_factory, 1: writer_reader_factory}
        fork = ex.fork(factories)
        # diverge: original runs 0 solo first, fork runs 1 solo first
        while 0 in ex.runnable():
            ex.step(0)
        while not ex.done():
            ex.step(ex.runnable()[0])
        while 1 in fork.runnable():
            fork.step(1)
        while not fork.done():
            fork.step(fork.runnable()[0])
        assert ex.trace.decisions == {0: None, 1: "hello-0"}
        assert fork.trace.decisions == {0: "hello-1", 1: "hello-0"}

    def test_fork_memory_is_isolated(self):
        ex = Execution(2, {0: writer_reader_factory(0), 1: writer_reader_factory(1)})
        ex.step(0)
        fork = ex.fork({0: writer_reader_factory, 1: writer_reader_factory})
        ex.memory.register_array("R").write(1, "corrupted")
        assert fork.memory.register_array("R").read(1) is None

    def test_fork_preserves_trace_prefix(self):
        ex = Execution(2, {0: writer_reader_factory(0), 1: writer_reader_factory(1)})
        ex.step(0)
        ex.step(1)
        fork = ex.fork({0: writer_reader_factory, 1: writer_reader_factory})
        assert fork.trace.schedule == [0, 1]
        assert fork.trace.steps == {0: 1, 1: 1}

    def test_fork_equivalent_to_replay(self):
        """A fork continued on a schedule matches a from-scratch run."""
        factories = {0: writer_reader_factory, 1: writer_reader_factory}
        ex = Execution(2, {pid: f(pid) for pid, f in factories.items()})
        for pid in [0, 1, 0]:
            ex.step(pid)
        fork = ex.fork(factories)
        for pid in [1, 1, 0]:
            fork.step(pid)
        reference = run_with_schedule(2, factories, [0, 1, 0, 1, 1, 0])
        assert fork.trace.decisions == reference.decisions
        assert fork.trace.schedule == reference.schedule


class TestExploreSchedules:
    def test_enumerates_all_interleavings(self):
        # two processes with 2 ops each (write + decide): C(4,2)/..., the
        # interleavings of 3-step processes: C(6,3) = 20
        traces = list(
            explore_schedules(2, {0: writer_reader_factory, 1: writer_reader_factory})
        )
        assert len(traces) == 20
        schedules = {tuple(t.schedule) for t in traces}
        assert len(schedules) == 20

    def test_covers_both_outcomes(self):
        traces = list(
            explore_schedules(2, {0: writer_reader_factory, 1: writer_reader_factory})
        )
        seen_by_0 = {t.decisions[0] for t in traces}
        assert seen_by_0 == {None, "hello-1"}

    def test_max_executions_cap(self):
        traces = list(
            explore_schedules(
                2,
                {0: writer_reader_factory, 1: writer_reader_factory},
                max_executions=5,
            )
        )
        assert len(traces) == 5

    def test_prefix_tree_matches_replay_enumerator(self):
        """The prefix-tree enumerator yields exactly the traces of the old
        replay-from-scratch DFS, in the same lexicographic order."""
        factories = {0: writer_reader_factory, 1: writer_reader_factory}
        fast = list(explore_schedules(2, factories))
        slow = list(explore_schedules_replay(2, factories))
        assert [t.schedule for t in fast] == [t.schedule for t in slow]
        assert [t.decisions for t in fast] == [t.decisions for t in slow]

    def test_prefix_tree_matches_replay_under_cap(self):
        factories = {0: writer_reader_factory, 1: writer_reader_factory}
        fast = list(explore_schedules(2, factories, max_executions=7))
        slow = list(explore_schedules_replay(2, factories, max_executions=7))
        assert [t.schedule for t in fast] == [t.schedule for t in slow]

    def test_three_process_enumeration_counts_match(self):
        def tiny(pid):
            def body():
                yield ("write", "R", pid)
                yield ("decide", pid)

            return body()

        factories = {pid: tiny for pid in range(3)}
        fast = list(explore_schedules(3, factories))
        slow = list(explore_schedules_replay(3, factories))
        # interleavings of three 2-step processes: 6!/(2!2!2!) = 90
        assert len(fast) == len(slow) == 90
        assert {tuple(t.schedule) for t in fast} == {
            tuple(t.schedule) for t in slow
        }
