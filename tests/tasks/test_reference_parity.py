"""The corpus dedup path against its oracle in ``reference.py``, answer for answer.

The seeded generators build Δ from face-closed simplex sets and the
isomorphism text filters relabelings row by row; both must reproduce the
closure-based generators and the render-everything search exactly, or
committed corpus manifests and ``canon_hash`` values would drift.
"""

from __future__ import annotations

import random

import pytest

from repro.service.keys import content_hash
from repro.tasks.canonical import iso_canonical_text, task_text
from repro.tasks.task import Task
from repro.tasks.zoo import standard_zoo
from repro.tasks.zoo.builders import single_facet_input
from repro.tasks.zoo.random_tasks import (
    random_multi_facet_task,
    random_single_input_task,
    random_sparse_task,
)
from repro.topology import diskstore
from repro.topology.carrier import CarrierMap
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex, Vertex

from . import reference

#: generator name -> (library generator, oracle, seeds checked)
GENERATORS = {
    "single": (random_single_input_task, reference.random_single_input_task,
               [*range(200), 2_100_000, 2_100_001]),
    "sparse": (random_sparse_task, reference.random_sparse_task, range(40)),
    "multi": (random_multi_facet_task, reference.random_multi_facet_task, range(12)),
}


def assert_same_complex(got, want):
    assert type(got) is type(want)
    assert got.name == want.name
    assert got == want and hash(got) == hash(want)
    assert got.facets == want.facets
    assert got.vertices == want.vertices
    assert got.dim == want.dim


def assert_same_task(got: Task, want: Task):
    assert got == want
    assert got.name == want.name
    assert_same_complex(got.input_complex, want.input_complex)
    assert_same_complex(got.output_complex, want.output_complex)
    assert [s for s, _ in got.delta.items()] == [s for s, _ in want.delta.items()]
    for (_, image), (_, expected) in zip(got.delta.items(), want.delta.items()):
        assert_same_complex(image, expected)
    assert task_text(got) == task_text(want)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_match_the_closure_oracle(name):
    fast, oracle, seeds = GENERATORS[name]
    for seed in seeds:
        assert_same_task(fast(seed), oracle(seed))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_iso_text_matches_the_exhaustive_oracle_on_generated_tasks(name):
    fast, _, seeds = GENERATORS[name]
    for seed in list(seeds)[:40]:
        task = fast(seed)
        assert iso_canonical_text(task) == reference.iso_canonical_text_exhaustive(task)


def _renamed(task: Task, rng: random.Random) -> Task:
    """The same task with output values permuted per color at random."""
    by_color = {}
    for v in task.output_complex.vertices:
        by_color.setdefault(v.color, []).append(v.value)
    maps = {}
    for color, values in by_color.items():
        shuffled = values[:]
        rng.shuffle(shuffled)
        maps[color] = dict(zip(values, shuffled))

    def rename(k, cls=SimplicialComplex):
        return cls(Simplex(Vertex(v.color, maps[v.color][v.value]) for v in f) for f in k.facets)

    outputs = rename(task.output_complex, ChromaticComplex)
    images = {tau: rename(img) for tau, img in task.delta.items()}
    delta = CarrierMap(task.input_complex, outputs, images, check=False)
    return Task(task.input_complex, outputs, delta, name=task.name)


def test_iso_text_matches_the_oracle_on_renamed_tasks():
    rng = random.Random(7)
    for seed in range(30):
        task = _renamed(random_single_input_task(seed), rng)
        text = iso_canonical_text(task)
        assert text == reference.iso_canonical_text_exhaustive(task)
        assert text == iso_canonical_text(random_single_input_task(seed))


#: zoo tasks whose output symmetry leaves several relabelings tied on the
#: out: row, so later Δ rows decide (3-set-agreement and loop-filled tie on
#: every row and only cost time)
TIED_ZOO = ("consensus", "consensus-2p", "identity", "2-set-agreement", "pinwheel",
            "figure3", "loop-hollow", "approx-agreement", "fork", "fan", "twisted-fan")


@pytest.mark.parametrize("name", TIED_ZOO)
def test_ties_that_survive_the_out_row_resolve_as_the_oracle_does(name):
    task = standard_zoo()[name]()
    ties = reference.out_row_ties(task)
    assert 1 < ties
    want = reference.iso_canonical_text_exhaustive(task)
    assert iso_canonical_text(task) == want
    assert iso_canonical_text(_renamed(task, random.Random(ties))) == want


def test_some_ties_break_only_after_the_out_row():
    # Δ rows, not the out: row, pick the survivor among several candidates
    task = standard_zoo()["pinwheel"]()
    assert 1 < reference.out_row_ties(task) < len(reference.relabelings(task))


def _symmetric_task(n_values: int) -> Task:
    """One input facet; every output triangle over ``range(n_values)``."""
    inputs = single_facet_input(3)
    triangles = [
        Simplex([Vertex(0, a), Vertex(1, b), Vertex(2, c)])
        for a in range(n_values) for b in range(n_values) for c in range(n_values)
    ]
    outputs = ChromaticComplex(triangles)
    images = {
        tau: SimplicialComplex(s for s in outputs.simplices() if s.colors() == tau.colors())
        for tau in inputs.simplices()
    }
    return Task(inputs, outputs, CarrierMap(inputs, outputs, images, check=False))


def test_above_the_search_cap_both_fall_back_to_the_exact_text():
    task = _symmetric_task(5)
    assert reference.relabelings(task) is None  # (5!)^3 > ISO_SEARCH_CAP
    text = iso_canonical_text(task)
    assert text == reference.iso_canonical_text_exhaustive(task) == "exact:" + task_text(task)
    projective = standard_zoo()["loop-projective"]()
    assert iso_canonical_text(projective).startswith("exact:")
    assert iso_canonical_text(projective) == reference.iso_canonical_text_exhaustive(projective)


def test_one_exact_text_behind_store_keys_and_the_exact_fallback():
    for task in (random_single_input_task(3), standard_zoo()["majority"]()):
        text = task_text(task)
        assert text == diskstore.task_text(task)
        assert diskstore.task_key(task) == content_hash(text)
        # the layout the keys of existing stores were computed from
        rows = ["in:" + "\n".join(repr(f) for f in task.input_complex.facets),
                "out:" + "\n".join(repr(f) for f in task.output_complex.facets)]
        rows += [f"{s!r}=>" + ";".join(repr(f) for f in img.facets)
                 for s, img in sorted(task.delta.items(), key=lambda kv: kv[0].sort_key())]
        assert text == "\n".join(rows)
