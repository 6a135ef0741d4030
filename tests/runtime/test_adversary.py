"""Unit tests for adversarial schedulers."""


from repro.runtime.adversary import (
    adversarial_sweep,
    alternator,
    run_adversarial,
    standard_battery,
    starver,
    stutterer,
)
from repro.runtime.simulation import check_trace, validate_protocol
from repro.tasks.zoo import identity_task, set_agreement_task


def echo_factories(n):
    def make(pid):
        def factory(p):
            def body():
                yield ("write", "R", p)
                seen = []
                for j in range(n):
                    seen.append((yield ("read", "R", j)))
                yield ("decide", tuple(seen))

            return body()

        return factory

    return {pid: make(pid) for pid in range(n)}


class TestStrategies:
    def test_starver_runs_runner_first(self):
        trace = run_adversarial(3, echo_factories(3), starver((1, 2), 0))
        # process 0 finished before anyone else moved: it saw nobody
        assert trace.decisions[0] == (0, None, None)

    def test_alternator_interleaves_pair(self):
        trace = run_adversarial(3, echo_factories(3), alternator((0, 1)))
        prefix = trace.schedule[:4]
        assert set(prefix) == {0, 1}
        # process 2 only moves after the pair is done
        first_2 = trace.schedule.index(2)
        assert all(pid in (0, 1) for pid in trace.schedule[:first_2])

    def test_stutterer_slows_target(self):
        trace = run_adversarial(3, echo_factories(3), stutterer(0, period=5))
        first_0 = trace.schedule.index(0)
        assert first_0 >= 4

    def test_bad_pick_falls_back(self):
        # a strategy naming a finished process must not crash the runner
        trace = run_adversarial(2, echo_factories(2), lambda runnable, step: 0)
        assert set(trace.decisions) == {0, 1}


class TestBattery:
    def test_standard_battery_composition(self):
        names = [name for name, _ in standard_battery([0, 1, 2])]
        assert len(names) == 3 + 3 + 3  # starvers + alternators + stutterers
        assert len(set(names)) == len(names)

    def test_sweep_runs_all(self):
        results = list(
            adversarial_sweep(3, lambda: echo_factories(3), [0, 1, 2])
        )
        assert len(results) == 9
        for _name, trace in results:
            assert set(trace.decisions) == {0, 1, 2}


class TestBatteryDeterminism:
    def test_standard_battery_names_stable(self):
        first = [name for name, _ in standard_battery([0, 1, 2])]
        second = [name for name, _ in standard_battery([0, 1, 2])]
        assert first == second

    def test_standard_battery_order_independent_of_pid_order(self):
        assert [n for n, _ in standard_battery([2, 0, 1])] == [
            n for n, _ in standard_battery([0, 1, 2])
        ]

    def test_sweep_is_deterministic(self):
        def run_sweep():
            return {
                name: tuple(trace.schedule)
                for name, trace in adversarial_sweep(
                    3, lambda: echo_factories(3), [0, 1, 2]
                )
            }

        assert run_sweep() == run_sweep()


class TestStuttererPeriod:
    def test_slow_process_moves_only_on_period_boundaries(self):
        period = 4
        trace = run_adversarial(3, echo_factories(3), stutterer(0, period=period))
        # while other processes are live, the slow one moves only at global
        # steps s with s % period == period - 1
        last_other = max(i for i, pid in enumerate(trace.schedule) if pid != 0)
        for i, pid in enumerate(trace.schedule[: last_other + 1]):
            if pid == 0:
                assert i % period == period - 1

    def test_period_controls_first_move(self):
        for period in (2, 3, 5):
            trace = run_adversarial(3, echo_factories(3), stutterer(0, period=period))
            assert trace.schedule.index(0) == period - 1

    def test_slow_process_still_decides(self):
        trace = run_adversarial(3, echo_factories(3), stutterer(1, period=7))
        assert set(trace.decisions) == {0, 1, 2}


class TestOutsideDeltaViolationMessage:
    def test_correctly_colored_simplex_outside_delta(self, identity3):
        """Decisions that form a legal, correctly-colored output simplex
        which is *not* in Δ(τ) must trip the Δ-membership message."""
        sigma = identity3.input_complex.facets[0]
        other = next(
            tau for tau in identity3.input_complex.facets if tau != sigma
        )
        wrong = {v.color: v for v in other.vertices}  # own colors, wrong facet

        def build(pid):
            def body():
                yield ("write", "R", pid)
                yield ("decide", wrong[pid])

            return body()

        trace = run_adversarial(
            3, {pid: build for pid in range(3)}, alternator((0, 2))
        )
        reason = check_trace(identity3, sigma, trace)
        assert reason is not None
        assert "are not in Δ" in reason
        assert repr(sigma) in reason


class TestProtocolUnderAdversaries:
    def test_synthesized_protocol_survives_battery(self):
        from repro import synthesize_protocol

        task = identity_task(3)
        protocol = synthesize_protocol(task, prefer_direct=False)
        report = validate_protocol(
            task,
            protocol.factories,
            participation="facets",
            random_runs=0,
            adversarial=True,
        )
        assert report.ok, report.violations[:2]

    def test_3set_figure7_survives_battery(self):
        from repro import synthesize_protocol

        task = set_agreement_task(3, 3)
        protocol = synthesize_protocol(task, prefer_direct=False)
        sigma = task.input_complex.facets[0]
        for name, trace in adversarial_sweep(
            3, lambda: protocol.factories(sigma), [0, 1, 2]
        ):
            assert check_trace(task, sigma, trace) is None, name
