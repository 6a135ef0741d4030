"""Unit tests for the Figure 7 algorithm.

The decisive tests inject *adversarial* color-agnostic algorithms — ones
that deliberately decide wrongly-colored vertices — and check the
algorithm still produces a properly colored simplex of ``Δ(τ)``.
"""

import itertools

import pytest

from repro.runtime.chromatic_agreement import (
    _canonical_path,
    _pick_completion,
    _vertex_numbering,
    make_chromatic_agreement_factories,
)
from repro.runtime.scheduler import explore_schedules, run_random, run_solo_blocks
from repro.runtime.simulation import check_trace
from repro.tasks.zoo import identity_task, set_agreement_task
from repro.topology.simplex import Simplex, Vertex


def copycat_agnostic(task):
    """A legal but maximally color-confusing A_C.

    Each process publishes its input, scans for decisions already made and
    *adopts the first one it sees* (hence often a wrongly-colored vertex);
    only if none exists does it decide its own-colored vertex from
    ``Δ(τ)``.  All decisions stay within one simplex of ``Δ(τ)`` for tasks
    whose per-color choices are facet-consistent (identity, k-set
    agreement), so the Figure 7 precondition holds while the colors are
    wrong for every copier."""

    def agnostic(pid, x_vertex):
        yield ("update", "_CC_in", x_vertex)
        state = yield ("scan", "_CC_in")
        tau = Simplex(x for x in state if x is not None)
        decisions = yield ("scan", "_CC_dec")
        seen = [d for d in decisions if d is not None]
        if seen:
            mine = seen[0]
        else:
            image = task.delta(tau)
            mine = [v for v in image.vertices if v.color == pid][0]
        yield ("update", "_CC_dec", mine)
        return mine

    return agnostic


def snapshot_first_agnostic(task, rounds=0):
    """A_C that decides the smallest vertex of Δ(τ) seen in a snapshot —
    colors are ignored entirely, but the choice respects Δ(τ)."""

    def agnostic(pid, x_vertex):
        yield ("update", "_AG", x_vertex)
        state = yield ("scan", "_AG")
        tau = Simplex(x for x in state if x is not None)
        image = task.delta(tau)
        return image.vertices[0]

    return agnostic


class TestHelpers:
    def test_vertex_numbering_bijective(self, identity3):
        numbering = _vertex_numbering(identity3.output_complex)
        assert sorted(numbering.values()) == list(range(len(numbering)))

    def test_pick_completion(self, identity3):
        tau = identity3.input_complex.facets[0]
        image = identity3.delta(tau)
        facet = image.facets[0]
        u, w = [v for v in facet.vertices if v.color != 0]
        v = _pick_completion(identity3, tau, (u, w), 0)
        assert v.color == 0
        assert Simplex([u, w, v]) in image

    def test_pick_completion_failure(self, identity3):
        tau = identity3.input_complex.facets[0]
        bad = (Vertex(1, "nope"), Vertex(2, "nope"))
        with pytest.raises(RuntimeError):
            _pick_completion(identity3, tau, bad, 0)

    def test_canonical_path_symmetric(self):
        from repro.topology.complexes import SimplicialComplex

        link = SimplicialComplex(
            [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]
        )
        numbering = {v: i for i, v in enumerate(sorted(link.vertices))}
        p1 = _canonical_path(link, "a", "c", numbering)
        p2 = _canonical_path(link, "c", "a", numbering)
        assert p1 == list(reversed(p2))
        # {a, b, c} = {0, 1, 2} beats {a, d, c} = {0, 2, 3}
        assert p1 == ["a", "b", "c"]
        assert p2 == ["c", "b", "a"]

    def test_canonical_path_same_endpoint(self):
        from repro.topology.complexes import SimplicialComplex

        link = SimplicialComplex([("a", "b"), ("b", "c")])
        numbering = {v: i for i, v in enumerate(link.vertices)}
        assert _canonical_path(link, "b", "b", numbering) == ["b"]

    def test_canonical_path_compares_sorted_vertex_numbers(self):
        from repro.topology.complexes import SimplicialComplex

        # two shortest a-e paths: a-x-y-e numbers {0, 1, 2, 4}, a-u-w-e
        # numbers {0, 1, 3, 5}; read in path order the second would win
        link = SimplicialComplex(
            [("a", "x"), ("x", "y"), ("y", "e"), ("a", "u"), ("u", "w"), ("w", "e")]
        )
        numbering = {"a": 0, "e": 1, "y": 2, "u": 3, "x": 4, "w": 5}
        assert _canonical_path(link, "a", "e", numbering) == ["a", "x", "y", "e"]
        assert _canonical_path(link, "e", "a", numbering) == ["e", "y", "x", "a"]

    def test_canonical_path_without_path_names_both_endpoints(self):
        from repro.topology.complexes import SimplicialComplex

        link = SimplicialComplex([("a", "b"), ("c", "d")])
        numbering = {v: i for i, v in enumerate(link.vertices)}
        with pytest.raises(ValueError, match="'a'.*'d'"):
            _canonical_path(link, "a", "d", numbering)


class TestAdversarialAgnostic:
    """The algorithm must fix wrong colors produced by A_C."""

    def _run_many(self, task, agnostic, seeds=40):
        sigma = task.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(task, sigma, agnostic)
        n = task.n_processes
        for seed in range(seeds):
            trace = run_random(n, factories, seed=seed)
            reason = check_trace(task, sigma, trace)
            assert reason is None, f"seed {seed}: {reason}"
        for order in itertools.permutations(range(n)):
            trace = run_solo_blocks(n, factories, order)
            reason = check_trace(task, sigma, trace)
            assert reason is None, f"order {order}: {reason}"

    def test_copycat_agnostic_identity(self, identity3):
        self._run_many(identity3, copycat_agnostic(identity3))

    def test_copycat_agnostic_3set(self):
        task = set_agreement_task(3, 3)
        self._run_many(task, copycat_agnostic(task))

    def test_snapshot_agnostic_identity(self, identity3):
        self._run_many(identity3, snapshot_first_agnostic(identity3))

    def test_snapshot_agnostic_3set(self):
        task = set_agreement_task(3, 3)
        self._run_many(task, snapshot_first_agnostic(task))

    def test_partial_participation(self, identity3):
        agnostic = snapshot_first_agnostic(identity3)
        for e in identity3.input_complex.simplices(dim=1)[:4]:
            factories = make_chromatic_agreement_factories(identity3, e, agnostic)
            for seed in range(20):
                trace = run_random(3, factories, seed=seed)
                assert check_trace(identity3, e, trace) is None

    def test_solo_participation(self, identity3):
        agnostic = snapshot_first_agnostic(identity3)
        x = identity3.input_complex.simplices(dim=0)[0]
        factories = make_chromatic_agreement_factories(identity3, x, agnostic)
        trace = run_random(3, factories, seed=0)
        assert check_trace(identity3, x, trace) is None

    def test_exhaustive_small(self, identity3):
        """Exhaustively enumerate interleavings (capped) for the adversarial
        agnostic on full participation."""
        sigma = identity3.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(
            identity3, sigma, snapshot_first_agnostic(identity3)
        )
        count = 0
        for trace in explore_schedules(3, factories, max_executions=300):
            assert check_trace(identity3, sigma, trace) is None
            count += 1
        assert count == 300


class TestFuzzedSchedules:
    """Hypothesis-driven schedule fuzzing for the Figure 7 algorithm."""

    def test_arbitrary_schedules_identity(self, identity3):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.runtime.scheduler import run_with_schedule

        sigma = identity3.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(
            identity3, sigma, snapshot_first_agnostic(identity3)
        )

        @given(st.lists(st.integers(0, 2), min_size=0, max_size=60))
        @settings(max_examples=60, deadline=None)
        def run(schedule):
            trace = run_with_schedule(3, factories, schedule)
            assert check_trace(identity3, sigma, trace) is None

        run()

    def test_arbitrary_schedules_partial(self, identity3):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.runtime.scheduler import run_with_schedule

        edge = identity3.input_complex.simplices(dim=1)[0]
        factories = make_chromatic_agreement_factories(
            identity3, edge, snapshot_first_agnostic(identity3)
        )

        @given(st.lists(st.integers(0, 2), min_size=0, max_size=40))
        @settings(max_examples=40, deadline=None)
        def run(schedule):
            trace = run_with_schedule(3, factories, schedule)
            assert check_trace(identity3, edge, trace) is None

        run()


class TestPickers:
    def test_spread_picker_on_split_fan(self):
        """Adversarial completion choices still converge (Lemma 5.3 holds
        for any picker); the negotiation walks the strip."""
        from repro.runtime.chromatic_agreement import spread_completion
        from repro.splitting import link_connected_form
        from repro.tasks.zoo import fan_task

        task = link_connected_form(fan_task(components=2, strip_length=4)).task
        sigma = task.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(
            task, sigma, snapshot_first_agnostic(task), picker=spread_completion
        )
        for seed in range(40):
            trace = run_random(3, factories, seed=seed)
            assert check_trace(task, sigma, trace) is None

    def test_link_connectivity_guard(self):
        """Figure 7 refuses tasks with LAPs (its Lemma 5.3 hypothesis)."""
        from repro.tasks.zoo import fan_task

        task = fan_task(components=2)  # hub link disconnected
        sigma = task.input_complex.facets[0]
        with pytest.raises(ValueError, match="link-connected"):
            make_chromatic_agreement_factories(
                task, sigma, snapshot_first_agnostic(task)
            )


class TestNegotiationLength:
    """The step-(14) negotiation walks the link path (Lemma 5.3's bound)."""

    @staticmethod
    def _negotiation_steps(m: int) -> int:
        from repro.runtime.adversary import run_adversarial
        from repro.runtime.chromatic_agreement import spread_completion
        from repro.splitting import link_connected_form
        from repro.tasks.zoo import fan_task

        task = link_connected_form(fan_task(components=2, strip_length=m)).task
        sigma = task.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(
            task, sigma, snapshot_first_agnostic(task),
            picker=spread_completion, check=False,
        )

        # p0 (the pivot-to-be) runs alone first; then p1 and p2 alternate
        # step-for-step — the schedule that maximizes the negotiation
        def strategy(runnable, step):
            if 0 in runnable:
                return 0
            live = [p for p in (1, 2) if p in runnable]
            return live[step % len(live)]

        trace = run_adversarial(3, factories, strategy)
        reason = check_trace(task, sigma, trace)
        assert reason is None, reason
        return max(trace.steps[1], trace.steps[2])

    def test_steps_grow_with_strip_length(self):
        short = self._negotiation_steps(2)
        long = self._negotiation_steps(10)
        assert long > short, (short, long)

    def test_monotone_over_sweep(self):
        values = [self._negotiation_steps(m) for m in (1, 4, 8)]
        assert values == sorted(values)


class TestTerminationBound:
    def test_steps_bounded_by_link_length(self, identity3):
        """Lemma 5.3: time is at most proportional to the longest link."""
        from repro.topology.links import longest_link_size

        sigma = identity3.input_complex.facets[0]
        factories = make_chromatic_agreement_factories(
            identity3, sigma, snapshot_first_agnostic(identity3)
        )
        bound = 20 + 4 * longest_link_size(identity3.output_complex)
        for seed in range(30):
            trace = run_random(3, factories, seed=seed)
            assert max(trace.steps.values()) <= bound
