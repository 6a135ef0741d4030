"""Unit tests for iterated LAP elimination and the full transform."""

import pickle

import pytest

from repro.obs import tracing
from repro.splitting.deformation import SplitRecord, split_lap, unsplit_vertex
from repro.splitting.lap import is_link_connected_task, local_articulation_points
from repro.splitting.pipeline import (
    SplitPipelineResult,
    SplittingDidNotConverge,
    TransformNotLinkConnected,
    TransformResult,
    eliminate_laps,
    link_connected_form,
)
from repro.tasks.canonical import canonicalize_if_needed, is_canonical
from repro.tasks.task import Task
from repro.tasks.zoo import random_single_input_task
from repro.topology import diskstore
from repro.topology.simplex import Vertex


class TestEliminateLaps:
    def test_hourglass_one_step(self, hourglass):
        result = eliminate_laps(hourglass)
        assert result.n_splits == 1
        assert is_link_connected_task(result.task)

    def test_pinwheel_nine_steps(self, pinwheel):
        result = eliminate_laps(pinwheel)
        assert result.n_splits == 9
        assert is_link_connected_task(result.task)

    def test_no_op_when_clean(self, identity3):
        result = eliminate_laps(identity3)
        assert result.n_splits == 0
        assert result.task is identity3

    def test_intermediate_tasks_canonical(self, pinwheel):
        # the pipeline keeps no per-step tasks, so split one LAP at a time
        current = pinwheel
        for _ in range(9):
            lap = local_articulation_points(current)[0]
            current = split_lap(current, lap).after
            assert is_canonical(current)
        assert is_link_connected_task(current)

    def test_budget_enforced(self, pinwheel):
        with pytest.raises(SplittingDidNotConverge):
            eliminate_laps(pinwheel, max_steps=2)

    def test_budget_is_per_facet_not_global(self, majority):
        # regression: the docstring/error message used to imply max_steps
        # bounded the whole pipeline, but the counter resets per facet.
        # Canonical majority needs 42 splits total, at most 12 in any one
        # facet — so a "global" budget of 12 would have to fail, while the
        # actual per-facet budget succeeds.
        canon = canonicalize_if_needed(majority).task
        result = eliminate_laps(canon, max_steps=12)
        assert result.n_splits == 42
        assert is_link_connected_task(result.task)

    def test_budget_message_names_facet_and_semantics(self, majority):
        canon = canonicalize_if_needed(majority).task
        with pytest.raises(SplittingDidNotConverge) as excinfo:
            eliminate_laps(canon, max_steps=11)
        message = str(excinfo.value)
        assert "per-facet" in message
        assert "resets for each facet" in message
        assert "<(0:1), (1:1), (2:0)>" in message  # the facet that blew it

    def test_project_vertex_unsplits(self, pinwheel):
        result = eliminate_laps(pinwheel)
        for v in result.task.output_complex.vertices:
            orig = result.project_vertex(v)
            assert orig in set(pinwheel.output_complex.vertices)


class TestLinkConnectedForm:
    def test_hourglass(self, hourglass):
        res = link_connected_form(hourglass)
        assert res.n_splits == 1
        assert len(res.task.output_complex.connected_components()) == 2
        assert res.task.input_complex == hourglass.input_complex

    def test_pinwheel_three_components(self, pinwheel):
        res = link_connected_form(pinwheel)
        assert len(res.task.output_complex.connected_components()) == 3

    def test_pinwheel_components_miss_one_solo_vertex(self, pinwheel):
        # Section 6.2: no component contains copies of all three
        # solo-decision vertices (i, i)
        res = link_connected_form(pinwheel)
        for comp in res.task.output_complex.connected_components():
            diag_colors = {
                res.project_vertex(v).color
                for v in comp
                if res.project_vertex(v).color == res.project_vertex(v).value
            }
            assert len(diag_colors) == 2

    def test_majority_canonicalizes_first(self, majority):
        res = link_connected_form(majority)
        assert res.canonical.task is not majority
        assert is_link_connected_task(res.task)
        assert res.n_splits > 0

    def test_projection_composes_to_original_outputs(self, majority):
        res = link_connected_form(majority)
        originals = set(majority.output_complex.vertices)
        for v in res.task.output_complex.vertices:
            assert res.project_vertex(v) in originals

    def test_two_process_skips_splitting(self):
        from repro.tasks.zoo import path_task

        res = link_connected_form(path_task(3))
        assert res.n_splits == 0

    def test_final_task_valid(self, pinwheel, hourglass, majority):
        for t in (pinwheel, hourglass, majority):
            link_connected_form(t).task.validate()

    def test_lap_left_behind_raises_named_error(self, hourglass, monkeypatch):
        # an explicit raise, not an assert, so the check survives python -O
        import repro.splitting.pipeline as pipeline

        monkeypatch.setattr(pipeline, "is_link_connected_task", lambda task: False)
        with pytest.raises(TransformNotLinkConnected, match="local articulation point"):
            link_connected_form(hourglass)


class TestOrderIndependence:
    """Theorem 4.3 does not fix the elimination order; structural outcomes
    (component counts, facet counts) must not depend on it."""

    def _eliminate_with_order(self, task, reverse: bool):
        current = canonicalize_if_needed(task).task
        splits = 0
        while True:
            laps = local_articulation_points(current)
            if not laps:
                return current, splits
            lap = laps[-1] if reverse else laps[0]
            current = split_lap(current, lap, check=False).after
            splits += 1

    @pytest.mark.parametrize("task_name", ["pinwheel", "hourglass"])
    def test_component_count_invariant(self, task_name, pinwheel, hourglass):
        task = {"pinwheel": pinwheel, "hourglass": hourglass}[task_name]
        fwd, n1 = self._eliminate_with_order(task, reverse=False)
        bwd, n2 = self._eliminate_with_order(task, reverse=True)
        assert n1 == n2
        assert len(fwd.output_complex.connected_components()) == len(
            bwd.output_complex.connected_components()
        )
        assert len(fwd.output_complex.facets) == len(bwd.output_complex.facets)

    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_random_tasks_invariant(self, seed):
        task = random_single_input_task(seed, n_facets=7)
        fwd, n1 = self._eliminate_with_order(task, reverse=False)
        bwd, n2 = self._eliminate_with_order(task, reverse=True)
        assert n1 == n2
        assert len(fwd.output_complex.connected_components()) == len(
            bwd.output_complex.connected_components()
        )


class TestTransformEntries:
    """The transform the diskstore keeps: small, and old entries still load."""

    def test_majority_transform_pickle_is_lean(self, majority):
        with diskstore.store_disabled():
            result = link_connected_form(majority)
        assert len(pickle.dumps(result)) < 128 * 1024
        for step in result.pipeline.steps:
            assert isinstance(step, SplitRecord)
            assert not any(isinstance(v, Task) for v in vars(step).values())

    def _store_per_step_layout(self, task):
        """Store the transform the way the per-step pipeline did: each step
        a ``SplitStep`` carrying its ``before`` and ``after`` tasks."""
        from . import reference

        canonical = canonicalize_if_needed(task.restrict_to_reachable())
        final, steps = reference.eliminate_laps(canonical.task)
        pipeline = SplitPipelineResult(original=canonical.task, task=final, steps=steps)
        entry = TransformResult(
            original=task, canonical=canonical, pipeline=pipeline, task=final
        )
        key = diskstore.task_key(task)
        path = diskstore.store("transform", key, entry)
        assert path is not None
        return path, entry

    def test_per_step_layout_entry_loads(self, tmp_path, pinwheel):
        with diskstore.store_at(str(tmp_path / "store")):
            _, entry = self._store_per_step_layout(pinwheel)
            with tracing() as rec:
                loaded = link_connected_form(pinwheel)
            assert rec.counters.get("diskstore.transform.hit", 0) == 1
        with diskstore.store_disabled():
            fresh = link_connected_form(pinwheel)
        assert loaded.n_splits == entry.n_splits == fresh.n_splits == 9
        assert loaded.task == fresh.task

    def test_torn_per_step_layout_entry_heals(self, tmp_path, pinwheel):
        with diskstore.store_at(str(tmp_path / "store")):
            path, _ = self._store_per_step_layout(pinwheel)
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
            with tracing() as rec:
                healed = link_connected_form(pinwheel)
            assert rec.counters.get("diskstore.transform.corrupt", 0) == 1
        with diskstore.store_disabled():
            fresh = link_connected_form(pinwheel)
        assert healed.n_splits == fresh.n_splits == 9
        assert healed.task == fresh.task
