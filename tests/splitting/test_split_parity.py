"""Parity of the image-table LAP elimination against the per-step rebuild.

``reference.py`` rewrites every image, monotonizes the whole carrier map
and builds a new task on every split.  The library updates only the images
that contain the split vertex and builds one task at the end; both must
split the same LAPs in the same order and end at an equal task.
"""

from __future__ import annotations

import pytest

from repro.splitting.deformation import split_lap
from repro.splitting.pipeline import eliminate_laps, link_connected_form
from repro.tasks.canonical import canonicalize_if_needed
from repro.tasks.zoo import standard_zoo
from repro.tasks.zoo.random_tasks import random_multi_facet_task
from repro.topology import diskstore

from . import reference

ZOO = standard_zoo()


def _canonical(task):
    return canonicalize_if_needed(task.restrict_to_reachable()).task


def _lap_key(lap):
    return (lap.vertex, lap.facet, lap.components)


def _assert_parity(task):
    canonical = _canonical(task)
    expected, expected_steps = reference.eliminate_laps(canonical)
    result = eliminate_laps(canonical)
    assert result.n_splits == len(expected_steps)
    assert [_lap_key(s.lap) for s in result.steps] == [
        _lap_key(s.lap) for s in expected_steps
    ]
    assert [s.copies for s in result.steps] == [s.copies for s in expected_steps]
    assert result.task == expected
    assert result.task.output_complex == expected.output_complex
    for tau in canonical.input_complex.simplices():
        assert result.task.delta(tau) == expected.delta(tau)
    return result


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_parity(name):
    task = ZOO[name]()
    if task.input_complex.dim != 2:
        with diskstore.store_disabled():
            assert link_connected_form(task).n_splits == 0
        return
    _assert_parity(task)


@pytest.mark.parametrize("seed", range(40))
def test_random_multi_facet_parity(seed):
    _assert_parity(random_multi_facet_task(seed))


def test_parity_covers_real_splitting():
    # the population is only a check if most of it actually splits
    splits = [eliminate_laps(_canonical(random_multi_facet_task(s))).n_splits for s in range(40)]
    assert sum(1 for n in splits if n) >= 30
    assert eliminate_laps(_canonical(ZOO["majority"]())).n_splits == 42


@pytest.mark.parametrize("name", ["hourglass", "pinwheel", "figure3"])
def test_single_split_matches_reference_step(name):
    # split_lap runs through the same table: build, one split, freeze
    _, steps = reference.eliminate_laps(_canonical(ZOO[name]()))
    assert steps
    for step in steps:
        mine = split_lap(step.before, step.lap, check=False)
        assert mine.copies == step.copies
        assert mine.after == step.after
        assert mine.after.output_complex == step.after.output_complex
