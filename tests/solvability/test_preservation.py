"""Lemma 4.2 / Theorem 3.1 invariance: transforms preserve solvability.

These are the library's analogue of the paper's Figure 6 argument: the
decision verdict must be identical before and after canonicalization and
before and after LAP splitting (whenever both sides are decided).
"""

import pytest

from repro.solvability import decide_solvability
from repro.splitting.pipeline import link_connected_form
from repro.tasks.canonical import canonicalize
from repro.tasks.zoo import (
    constant_task,
    hourglass_task,
    identity_task,
    majority_consensus_task,
    pinwheel_task,
    random_multi_facet_task,
    random_single_input_task,
    random_sparse_task,
)


def _verdicts_agree(task, transformed, max_rounds=1):
    v1 = decide_solvability(task, max_rounds=max_rounds)
    v2 = decide_solvability(transformed, max_rounds=max_rounds)
    if v1.solvable is not None and v2.solvable is not None:
        assert v1.solvable == v2.solvable, (
            f"{task!r}: {v1.status} but transformed {v2.status}"
        )
    return v1, v2


class TestCanonicalizationPreserves:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_task(3),
            lambda: constant_task(3),
            lambda: majority_consensus_task(),
        ],
    )
    def test_zoo(self, make):
        task = make()
        _verdicts_agree(task, canonicalize(task).task)

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        task = random_single_input_task(seed)
        _verdicts_agree(task, canonicalize(task).task)


class TestSplittingPreserves:
    @pytest.mark.parametrize(
        "make",
        [hourglass_task, pinwheel_task, majority_consensus_task],
    )
    def test_unsolvable_zoo(self, make):
        task = make()
        res = link_connected_form(task)
        v1 = decide_solvability(task, max_rounds=1)
        v2 = decide_solvability(res.task, max_rounds=1)
        assert v1.solvable is False
        assert v2.solvable is False

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tasks(self, seed):
        task = random_single_input_task(seed)
        res = link_connected_form(task)
        _verdicts_agree(task, res.task)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_tasks(self, seed):
        task = random_sparse_task(seed)
        res = link_connected_form(task)
        _verdicts_agree(task, res.task)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_multi_facet_tasks(self, seed):
        # multiple input facets: exercises canonicalization + cross-facet
        # copy duplication in the deformation (the σ' ≠ σ case of §4.1)
        task = random_multi_facet_task(seed)
        res = link_connected_form(task)
        assert res.n_splits >= 0
        _verdicts_agree(task, res.task)


class TestEmptyImageCorner:
    """Regression: monotonization may empty a solo image (seed 121) —
    a sound unsolvability certificate for the original task."""

    def test_seed_121_consistent(self):
        task = random_sparse_task(121)
        res = link_connected_form(task)
        assert not res.task.delta.is_strict()
        v_orig = decide_solvability(task, max_rounds=1)
        v_split = decide_solvability(res.task, max_rounds=1)
        assert v_orig.solvable is False
        assert v_split.solvable is False

    def test_empty_image_obstruction_fires(self):
        from repro.solvability import empty_image_obstruction

        task = random_sparse_task(121)
        res = link_connected_form(task)
        w = empty_image_obstruction(res.task)
        assert w is not None
        assert w.kind == "empty-image"


class TestTransformIdempotence:
    def test_split_task_needs_no_more_splits(self, pinwheel):
        once = link_connected_form(pinwheel)
        twice = link_connected_form(once.task)
        assert twice.n_splits == 0

    def test_canonical_of_canonical_is_identity(self, majority):
        from repro.tasks.canonical import canonicalize_if_needed

        once = canonicalize(majority).task
        assert canonicalize_if_needed(once).task is once
