"""Unit tests for the Borowsky–Gafni immediate snapshot.

The three defining properties of immediate snapshot views:

* self-inclusion: ``i ∈ view_i``;
* containment (comparability): views are totally ordered by ``⊆``;
* immediacy: ``j ∈ view_i`` implies ``view_j ⊆ view_i``.

They are checked exhaustively over all interleavings for 2 processes and
over all interleavings (capped) plus random schedules for 3.
"""

import itertools


from repro.runtime.immediate_snapshot import immediate_snapshot
from repro.runtime.scheduler import explore_schedules, run_random, run_solo_blocks
from repro.topology.subdivision import ordered_partitions


def is_factory(n):
    def make(pid):
        def body():
            view = yield from immediate_snapshot("IS", n, pid, f"v{pid}")
            yield ("decide", frozenset(view.keys()))

        return body()

    return {pid: (lambda p: make(p)) for pid in range(n)}


def check_is_properties(decisions):
    views = dict(decisions)
    for i, view in views.items():
        assert i in view, f"self-inclusion violated for {i}"
    for i, j in itertools.combinations(views, 2):
        vi, vj = views[i], views[j]
        assert vi <= vj or vj <= vi, "views not comparable"
    for i, view in views.items():
        for j in view:
            assert views[j] <= view, f"immediacy violated: {j} in view of {i}"


class TestTwoProcessesExhaustive:
    def test_all_interleavings(self):
        for trace in explore_schedules(2, is_factory(2)):
            check_is_properties(trace.decisions)

    def test_all_outcomes_reachable(self):
        outcomes = set()
        for trace in explore_schedules(2, is_factory(2)):
            outcomes.add((frozenset(trace.decisions[0]), frozenset(trace.decisions[1])))
        # three IS outcomes for two processes: 0 first, 1 first, together
        assert len(outcomes) == 3


class TestThreeProcesses:
    def test_random_schedules(self):
        for seed in range(200):
            trace = run_random(3, is_factory(3), seed=seed)
            check_is_properties(trace.decisions)

    def test_sequential_schedules(self):
        for order in itertools.permutations(range(3)):
            trace = run_solo_blocks(3, is_factory(3), order)
            check_is_properties(trace.decisions)
            first = order[0]
            assert trace.decisions[first] == frozenset({first})

    def test_capped_exhaustive(self):
        for trace in explore_schedules(3, is_factory(3), max_executions=400):
            check_is_properties(trace.decisions)

    def test_outcomes_are_ordered_partitions(self):
        """Every reachable outcome corresponds to an ordered partition."""
        valid = set()
        for blocks in ordered_partitions(range(3)):
            seen = set()
            outcome = {}
            for block in blocks:
                seen |= set(block)
                for i in block:
                    outcome[i] = frozenset(seen)
            valid.add(tuple(sorted(outcome.items())))
        reached = set()
        for seed in range(400):
            trace = run_random(3, is_factory(3), seed=seed)
            outcome = tuple(sorted(trace.decisions.items()))
            assert outcome in valid, f"non-IS outcome {outcome}"
            reached.add(outcome)
        # random scheduling reaches a large share of the 13 IS outcomes
        assert len(reached) >= 8

    def test_partial_participation(self):
        factories = is_factory(3)
        del factories[2]
        trace = run_random(3, factories, seed=1)
        views = trace.decisions
        assert set(views) == {0, 1}
        check_is_properties(views)
        assert all(2 not in v for v in views.values())
