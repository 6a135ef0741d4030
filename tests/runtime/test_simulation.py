"""Unit tests for the validation harness itself."""

import pytest

import repro.runtime.simulation as simulation
from repro.runtime.simulation import (
    ValidationReport,
    check_trace,
    derive_run_seed,
    run_once,
    validate_protocol,
)
from repro.runtime.scheduler import ExecutionTrace, run_random
from repro.topology.simplex import Vertex


def correct_builder(task):
    def build(inputs):
        factories = {}
        for x in inputs.vertices:
            def make(xv):
                def factory(pid):
                    def body():
                        yield ("write", "R", xv.value)
                        yield ("decide", xv)

                    return body()

                return factory

            factories[x.color] = make(x)
        return factories

    return build


def wrong_color_builder(task):
    def build(inputs):
        factories = {}
        for x in inputs.vertices:
            def make(xv):
                def factory(pid):
                    def body():
                        yield ("decide", Vertex((xv.color + 1) % 3, xv.value))

                    return body()

                return factory

            factories[x.color] = make(x)
        return factories

    return build


class TestCheckTrace:
    def test_ok(self, identity3):
        sigma = identity3.input_complex.facets[0]
        trace = ExecutionTrace(decisions={v.color: v for v in sigma.vertices})
        assert check_trace(identity3, sigma, trace) is None

    def test_missing_decision(self, identity3):
        sigma = identity3.input_complex.facets[0]
        trace = ExecutionTrace(decisions={})
        assert "never decided" in check_trace(identity3, sigma, trace)

    def test_wrong_color(self, identity3):
        sigma = identity3.input_complex.facets[0]
        decisions = {v.color: Vertex((v.color + 1) % 3, v.value) for v in sigma.vertices}
        assert "own-colored" in check_trace(
            identity3, sigma, ExecutionTrace(decisions=decisions)
        )

    def test_not_in_delta(self, identity3):
        sigma = identity3.input_complex.facets[0]
        flipped = {
            v.color: Vertex(v.color, 1 - v.value) for v in sigma.vertices
        }
        trace = ExecutionTrace(decisions=flipped)
        reason = check_trace(identity3, sigma, trace)
        assert reason is not None and "Δ" in reason


class TestValidateProtocol:
    def test_correct_protocol_passes(self, identity3):
        report = validate_protocol(
            identity3, correct_builder(identity3), random_runs=3
        )
        assert report.ok
        assert report.runs > 0
        assert report.mean_steps > 0

    def test_violations_collected(self, identity3):
        report = validate_protocol(
            identity3,
            wrong_color_builder(identity3),
            participation="facets",
            random_runs=1,
        )
        assert not report.ok
        v = report.violations[0]
        assert v.schedule
        assert "own-colored" in v.reason

    def test_participation_facets_only(self, identity3):
        report = validate_protocol(
            identity3, correct_builder(identity3),
            participation="facets", random_runs=1,
        )
        # 8 facets x (6 sequential + 1 random)
        assert report.runs == 8 * 7

    def test_unknown_participation(self, identity3):
        with pytest.raises(ValueError):
            validate_protocol(
                identity3, correct_builder(identity3), participation="nope"
            )

    def test_exhaustive_limit(self, identity3):
        report = validate_protocol(
            identity3,
            correct_builder(identity3),
            participation="facets",
            random_runs=0,
            exhaustive_limit=10,
        )
        assert report.ok

    def test_run_once(self, identity3):
        sigma = identity3.input_complex.facets[0]
        decisions, reason = run_once(
            identity3, correct_builder(identity3), sigma, seed=3
        )
        assert reason is None
        assert set(decisions) == {0, 1, 2}

    def test_report_repr(self):
        assert "0 runs" in repr(ValidationReport())


class TestSeedMixing:
    """Regression: ``seed * 7919 + k`` collapsed to ``k`` under the default
    ``seed=0``, so every input simplex replayed one identical schedule set."""

    def test_run_seed_varies_across_inputs(self, identity3):
        facets = identity3.input_complex.facets
        for k in range(5):
            seeds = {derive_run_seed(0, sigma, k) for sigma in facets}
            assert len(seeds) == len(facets)

    def test_run_seed_varies_across_run_index(self, identity3):
        sigma = identity3.input_complex.facets[0]
        assert len({derive_run_seed(0, sigma, k) for k in range(20)}) == 20

    def test_run_seed_deterministic(self, identity3):
        sigma = identity3.input_complex.facets[0]
        assert derive_run_seed(3, sigma, 7) == derive_run_seed(3, sigma, 7)

    def test_validate_protocol_draws_distinct_seeds_per_input(
        self, identity3, monkeypatch
    ):
        seen = {}

        def recording_run_random(n, factories, seed, max_steps=100_000):
            seen.setdefault(seed, 0)
            seen[seed] += 1
            return run_random(n, factories, seed, max_steps=max_steps)

        monkeypatch.setattr(simulation, "run_random", recording_run_random)
        validate_protocol(
            identity3,
            correct_builder(identity3),
            participation="facets",
            random_runs=4,
        )
        n_facets = len(identity3.input_complex.facets)
        # pre-fix, all facets shared the seeds {0,1,2,3}: only 4 distinct
        assert len(seen) == 4 * n_facets
        assert all(count == 1 for count in seen.values())

    def test_schedule_diversity_across_inputs(self, identity3):
        """Distinct per-input seeds must yield distinct random schedules."""
        facets = identity3.input_complex.facets

        def slow_factory(pid):
            def body():
                for _ in range(6):
                    yield ("scan", "S")
                yield ("decide", pid)

            return body()

        factories = {pid: slow_factory for pid in range(3)}
        schedules = {
            tuple(
                run_random(3, factories, seed=derive_run_seed(0, sigma, 0)).schedule
            )
            for sigma in facets
        }
        assert len(schedules) > 1


class TestImpossibilityIsObservable:
    """Naive protocols for unsolvable tasks must produce violations."""

    def test_decide_own_input_fails_consensus(self, consensus3):
        # "everyone decides their own input" breaks agreement on mixed inputs
        report = validate_protocol(
            consensus3, correct_builder(consensus3),
            participation="facets", random_runs=0,
        )
        assert not report.ok
        assert any("Δ" in v.reason for v in report.violations)

    def test_zero_round_map_cannot_solve_approximate_agreement(self):
        # the best zero-communication rule still violates some schedule
        from repro.tasks.zoo import approximate_agreement_task
        from repro.topology.simplex import Vertex

        task = approximate_agreement_task(2)

        def build(inputs):
            factories = {}
            for x in inputs.vertices:
                def make(xv):
                    def factory(pid):
                        def body():
                            # decide the scaled own input (a legal vertex)
                            yield ("decide", Vertex(xv.color, 2 * xv.value))

                        return body()

                    return factory

                factories[x.color] = make(x)
            return factories

        report = validate_protocol(
            task, build, participation="facets", random_runs=0
        )
        assert not report.ok  # spread 2 > 1 on mixed inputs
