"""Unit tests for the combined decision procedure."""

import pytest

from repro.solvability.decision import (
    Status,
    WitnessRejected,
    decide_solvability,
)
from repro.tasks.zoo import (
    consensus_task,
    constant_task,
    identity_task,
    inputless_set_agreement_task,
    loop_agreement_task,
    path_task,
    set_agreement_task,
    triangle_loop,
    two_process_fork_task,
)


class TestVerdictObject:
    def test_solvable_flag(self, identity3):
        v = decide_solvability(identity3, max_rounds=0)
        assert v.solvable is True
        assert "solvable" in repr(v)

    def test_unsolvable_flag(self, consensus3):
        v = decide_solvability(consensus3, max_rounds=0)
        assert v.solvable is False
        assert v.obstruction is not None

    def test_stats_recorded(self, consensus3):
        v = decide_solvability(consensus3)
        assert "seconds" in v.stats
        assert "transform_seconds" in v.stats


class TestThreeProcessVerdicts:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: identity_task(3), True),
            (lambda: constant_task(3), True),
            (lambda: set_agreement_task(3, 3), True),
            (lambda: loop_agreement_task(triangle_loop(True)), True),
            (lambda: consensus_task(3), False),
            (lambda: inputless_set_agreement_task(3, 2), False),
            (lambda: loop_agreement_task(triangle_loop(False)), False),
        ],
    )
    def test_zoo_verdicts(self, make, expected):
        v = decide_solvability(make(), max_rounds=1)
        assert v.solvable is expected

    def test_hourglass(self, hourglass):
        v = decide_solvability(hourglass)
        assert v.solvable is False
        assert v.obstruction.kind in ("corollary-5.5", "homological")
        assert v.stats["n_splits"] == 1

    def test_pinwheel(self, pinwheel):
        v = decide_solvability(pinwheel)
        assert v.solvable is False
        assert v.stats["n_splits"] == 9

    def test_majority(self, majority):
        v = decide_solvability(majority)
        assert v.solvable is False

    def test_witness_attached_for_solvables(self, identity3):
        v = decide_solvability(identity3)
        assert v.witness_map is not None
        assert v.witness_rounds == 0
        assert v.witness_subdivision is not None

    def test_obstructions_can_be_disabled(self, identity3):
        v = decide_solvability(identity3, run_obstructions=False)
        assert v.solvable is True

    def test_unsolvable_without_obstructions_is_unknown(self, consensus3):
        v = decide_solvability(consensus3, max_rounds=1, run_obstructions=False)
        assert v.status is Status.UNKNOWN


class TestTwoAndOneProcess:
    def test_one_process_trivially_solvable(self):
        t = identity_task(1)
        assert decide_solvability(t).solvable is True

    def test_two_process_exact(self):
        assert decide_solvability(path_task(3)).solvable is True
        assert decide_solvability(two_process_fork_task()).solvable is False
        assert decide_solvability(consensus_task(2)).solvable is False

    def test_two_process_solvable_beyond_budget(self):
        # Prop 5.4 declares it solvable even when the witness search budget
        # is too shallow to exhibit a map
        v = decide_solvability(path_task(7), max_rounds=1)
        assert v.solvable is True
        assert v.witness_map is None

    def test_too_many_processes_rejected(self):
        with pytest.raises(ValueError):
            decide_solvability(identity_task(4))


class TestEngines:
    def test_barycentric_engine(self):
        v = decide_solvability(path_task(3), engine="barycentric", max_rounds=2)
        assert v.solvable is True
        assert v.witness_rounds == 2  # Bary needs one more round than Ch

    def test_unknown_engine_rejected(self, identity3):
        with pytest.raises(ValueError):
            decide_solvability(identity3, engine="nope")

    def test_chromatic_witness_flag(self, identity3):
        v = decide_solvability(identity3, chromatic_witness=True)
        assert v.solvable is True
        assert v.witness_chromatic
        assert v.witness_map.is_chromatic()


class TestWitnessCheck:
    def test_rejected_witness_raises_named_error(self, identity3, monkeypatch):
        # an explicit raise, not an assert, so the check survives python -O
        import repro.solvability.decision as decision

        monkeypatch.setattr(decision, "verify_map", lambda *args, **kwargs: False)
        with pytest.raises(WitnessRejected, match="verify_map rejects"):
            decide_solvability(identity3, max_rounds=0)


class TestConsistency:
    """The two sides of the characterization never contradict each other."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tasks_consistent(self, seed):
        from repro.tasks.zoo import random_single_input_task

        task = random_single_input_task(seed)
        with_obs = decide_solvability(task, max_rounds=1)
        without = decide_solvability(task, max_rounds=1, run_obstructions=False)
        if with_obs.solvable is False:
            assert without.status is not Status.SOLVABLE
        if without.solvable is True:
            assert with_obs.status is not Status.UNSOLVABLE
