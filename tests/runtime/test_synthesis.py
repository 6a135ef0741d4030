"""Unit tests for end-to-end protocol synthesis."""

import pytest

import repro.runtime.synthesis as synthesis
from repro.runtime.simulation import validate_protocol
from repro.runtime.synthesis import (
    SynthesisError,
    _map_decision,
    synthesize_protocol,
)
from repro.solvability.map_search import SearchBudgetExceeded
from repro.solvability import decide_solvability
from repro.tasks.zoo import (
    constant_task,
    identity_task,
    loop_agreement_task,
    path_task,
    set_agreement_task,
    triangle_loop,
)


class TestDirectMode:
    def test_identity(self, identity3):
        p = synthesize_protocol(identity3)
        assert p.mode == "direct"
        assert p.rounds == 0
        report = validate_protocol(identity3, p.factories, random_runs=5)
        assert report.ok

    def test_path_task_needs_one_round(self):
        t = path_task(3)
        p = synthesize_protocol(t)
        assert p.mode == "direct"
        assert p.rounds == 1
        assert validate_protocol(t, p.factories, random_runs=10).ok

    def test_constant(self):
        t = constant_task(3)
        p = synthesize_protocol(t)
        assert validate_protocol(t, p.factories, random_runs=5).ok


class TestFigure7Mode:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_task(3),
            lambda: set_agreement_task(3, 3),
            lambda: loop_agreement_task(triangle_loop(True)),
        ],
    )
    def test_forced_figure7(self, make):
        task = make()
        p = synthesize_protocol(task, prefer_direct=False)
        assert p.mode == "figure-7"
        report = validate_protocol(task, p.factories, random_runs=8)
        assert report.ok, report.violations[:2]

    def test_verdict_reused(self, identity3):
        verdict = decide_solvability(identity3)
        p = synthesize_protocol(identity3, verdict=verdict, prefer_direct=False)
        assert p.verdict is verdict


class TestDirectSearchErrorHandling:
    """Regression: the direct-mode search swallowed *every* exception,
    silently converting genuine bugs into 'no chromatic witness'."""

    def test_genuine_bug_propagates(self, identity3, monkeypatch):
        def broken_find_map(*args, **kwargs):
            raise ValueError("genuine bug in the search")

        monkeypatch.setattr(synthesis, "find_map", broken_find_map)
        with pytest.raises(ValueError, match="genuine bug"):
            synthesize_protocol(identity3)

    def test_budget_exceeded_falls_back_with_reason(self, identity3, monkeypatch):
        def exhausted_find_map(*args, **kwargs):
            raise SearchBudgetExceeded("node budget blown")

        monkeypatch.setattr(synthesis, "find_map", exhausted_find_map)
        p = synthesize_protocol(identity3)
        assert p.mode == "figure-7"
        assert "budget" in p.fallback_reason
        assert p.verdict.stats.get("direct_search_r0_budget_exceeded") == 1.0

    def test_direct_protocol_has_no_fallback_reason(self, identity3):
        p = synthesize_protocol(identity3)
        assert p.mode == "direct"
        assert p.fallback_reason is None

    def test_forced_figure7_records_reason(self, identity3):
        p = synthesize_protocol(identity3, prefer_direct=False)
        assert p.fallback_reason == "direct mode disabled (prefer_direct=False)"


class TestMapDecisionStopIteration:
    """Regression: an inner generator ending without a ('decide', …) op
    surfaced as PEP-479 ``RuntimeError: generator raised StopIteration``."""

    @staticmethod
    def _drain(gen):
        op = gen.send(None)
        while True:
            op = gen.send(None)

    def test_undecided_inner_raises_synthesis_error(self):
        def undecided():
            yield ("write", "R", 1)
            return "gave-up"

        wrapped = _map_decision(undecided(), lambda v: v, pid=2)
        with pytest.raises(SynthesisError) as excinfo:
            self._drain(wrapped)
        message = str(excinfo.value)
        assert "process 2" in message
        assert "'gave-up'" in message
        assert "write" in message  # op-log context

    def test_not_an_opaque_runtime_error(self):
        def undecided():
            return
            yield  # pragma: no cover

        wrapped = _map_decision(undecided(), lambda v: v, pid=0)
        with pytest.raises(SynthesisError):
            next(wrapped)

    def test_decide_still_projected(self):
        def decides():
            yield ("write", "R", 1)
            yield ("decide", 21)

        wrapped = _map_decision(decides(), lambda v: 2 * v, pid=0)
        assert wrapped.send(None) == ("write", "R", 1)
        assert wrapped.send(None) == ("decide", 42)


class TestGuards:
    def test_unsolvable_rejected(self, consensus3):
        with pytest.raises(SynthesisError):
            synthesize_protocol(consensus3)

    def test_factories_reject_non_input(self, identity3):
        from repro.topology.simplex import chrom

        p = synthesize_protocol(identity3)
        with pytest.raises(SynthesisError):
            p.factories(chrom((0, "not-an-input")))

    def test_two_process_direct_only(self):
        # two-process solvable tasks must synthesize via the direct mode
        t = path_task(3)
        p = synthesize_protocol(t, prefer_direct=True)
        assert p.mode == "direct"
