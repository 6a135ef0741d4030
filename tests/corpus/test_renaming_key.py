"""The renaming key that answers a shard's repeat classes before the search.

``canon_hash(task, memo)`` first computes the task's renaming key: the
task rewritten under one deterministic per-colour relabeling of its output
values.  Equal keys must mean equal iso texts, or a memo hit would merge
two classes; an ``exact:`` text (above the search cap) is not
renaming-invariant and must never be memoized.  Every hash ``run_shard``
writes must be the one the memo-free ``canon_hash`` computes.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Set

import pytest

from repro import obs
from repro.analysis import corpus
from repro.analysis.corpus import GENERATORS, CorpusConfig, canon_hash, run_corpus, run_shard
from repro.tasks.canonical import code_task, iso_canonical_text, renaming_key, task_text
from repro.tasks.task import Task
from repro.tasks.zoo import standard_zoo
from repro.tasks.zoo.builders import single_facet_input
from repro.topology.carrier import CarrierMap
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex, Vertex

from ..tasks import reference

#: generator name -> seeds of its population
SEEDS = {"single": range(200), "sparse": range(60), "multi": range(20)}

#: what the stubbed class store answers: these tests are about hashes
OUTCOME = ("solvable", "witness-map", 0, 0)


def _key(task: Task):
    return renaming_key(task, code_task(task))


@functools.lru_cache(maxsize=None)
def _population(name: str) -> List[Task]:
    """A generator's seeds in order, every fifth followed by a random renaming."""
    make = GENERATORS[name]
    rng = random.Random(name)
    tasks = []
    for seed in SEEDS[name]:
        tasks.append(make(seed))
        if seed % 5 == 0:
            tasks.append(reference.renamed(tasks[-1], rng))
    return tasks


@functools.lru_cache(maxsize=None)
def _zoo_population() -> List[Task]:
    """The zoo tasks, each followed by two random renamings."""
    tasks = []
    for name, make in sorted(standard_zoo().items()):
        rng = random.Random(name)
        task = make()
        tasks += [task, reference.renamed(task, rng), reference.renamed(task, rng)]
    return tasks


def _faces_of(triangles, tau) -> SimplicialComplex:
    return SimplicialComplex(
        s for s in SimplicialComplex(triangles).simplices() if s.colors() == tau.colors()
    )


def _one_facet_task(outputs, images) -> Task:
    """One input facet; ``images`` maps each input simplex to its Δ facets."""
    inputs = single_facet_input(3)
    out = ChromaticComplex(outputs)
    return Task(inputs, out, CarrierMap(inputs, out, {t: images(t) for t in inputs.simplices()}))


def _triangle(*values) -> Simplex:
    return Simplex(Vertex(i, v) for i, v in enumerate(values))


def _colour_pair() -> List[Task]:
    """Two tasks whose keys agree on every label and differ only in colours.

    Both map the input facet onto one triangle and carry an unreachable
    edge and vertex: the edge on colours {0, 1} in one, {1, 2} in the
    other.  No renaming relates them.
    """
    t = _triangle(0, 0, 0)
    extras = (
        [Simplex([Vertex(0, 1), Vertex(1, 1)]), Simplex([Vertex(2, 1)])],
        [Simplex([Vertex(1, 1), Vertex(2, 1)]), Simplex([Vertex(0, 1)])],
    )
    return [_one_facet_task([t, *extra], lambda tau: _faces_of([t], tau)) for extra in extras]


def _delta_pair() -> List[Task]:
    """Two tasks with one output complex whose Δ differs on one input vertex."""
    t0, t1 = _triangle(0, 0, 0), _triangle(1, 1, 1)

    def narrowed(tau):
        if tau.dim == 0 and tau.colors() == frozenset({0}):
            return _faces_of([t0], tau)
        return _faces_of([t0, t1], tau)

    return [
        _one_facet_task([t0, t1], lambda tau: _faces_of([t0, t1], tau)),
        _one_facet_task([t0, t1], narrowed),
    ]


def _below_the_cap(tasks: List[Task]) -> List[Task]:
    return [t for t in tasks if iso_canonical_text(t).startswith("iso:")]


@pytest.mark.parametrize("name", sorted(SEEDS) + ["zoo", "colours", "delta"])
def test_equal_keys_imply_equal_hashes(name):
    tasks = {
        "zoo": _zoo_population,
        "colours": _colour_pair,
        "delta": _delta_pair,
    }.get(name, functools.partial(_population, name))()
    hashes: Dict[object, Set[str]] = {}
    texts: Dict[object, Set[str]] = {}
    for task in _below_the_cap(tasks):
        key = _key(task)
        hashes.setdefault(key, set()).add(canon_hash(task))
        texts.setdefault(key, set()).add(task_text(task))
    assert all(len(h) == 1 for h in hashes.values())
    if name in ("colours", "delta"):
        # not isomorphic, so they must not share a key
        assert len(hashes) == 2
    elif name != "multi":
        # some key is shared by tasks that are not exact duplicates, so a
        # memo hit saves a search here
        assert any(len(t) > 1 for t in texts.values())


def _listed(monkeypatch, tasks: List[Task]) -> CorpusConfig:
    """A one-shard config whose seed ``i`` is ``tasks[i]``; the store is stubbed."""
    monkeypatch.setitem(GENERATORS, "listed", tasks.__getitem__)
    monkeypatch.setattr(corpus, "decide_class", lambda task, canon, max_rounds: OUTCOME)
    return CorpusConfig(0, len(tasks), generator="listed")


@pytest.mark.parametrize("name", sorted(SEEDS) + ["zoo"])
def test_run_shard_writes_the_memo_free_hash(tmp_path, monkeypatch, name):
    tasks = _zoo_population() if name == "zoo" else _population(name)
    records = run_shard(_listed(monkeypatch, tasks), 0, str(tmp_path))
    assert [r["canon_hash"] for r in records] == [canon_hash(t) for t in tasks]


def test_above_the_cap_each_renaming_keeps_its_own_exact_hash(tmp_path, monkeypatch):
    projective = standard_zoo()["loop-projective"]()
    # an order-preserving renaming: it shares the key, not the exact text
    shifted = reference.renamed_by(projective, lambda v: v.value + 10)
    assert _key(shifted) == _key(projective)
    tasks = [projective, shifted, projective, shifted]
    want = [canon_hash(t) for t in tasks]
    assert all(iso_canonical_text(t).startswith("exact:") for t in tasks)
    assert want[0] != want[1]
    records = run_shard(_listed(monkeypatch, tasks), 0, str(tmp_path))
    assert [r["canon_hash"] for r in records] == want
    assert [r["dedup"] for r in records] == [False, False, True, True]


def test_counters_split_the_seeds_and_count_the_searches(tmp_path, monkeypatch):
    searches = []
    real = corpus.iso_canonical_text

    def counted(*args, **kwargs):
        searches.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus, "iso_canonical_text", counted)
    obs.reset_recorder()
    with obs.tracing():
        result = run_corpus(CorpusConfig(0, 120, shards=2), str(tmp_path / "corpus"))
    counters = dict(obs.get_recorder().aggregate_counters())
    hit = counters["corpus.renaming_key.hit"]
    miss = counters["corpus.renaming_key.miss"]
    assert hit + miss == 120
    assert len(searches) == miss
    # a miss per class a shard meets at least; most repeats hit
    assert result.manifest["dedup"]["decided"] <= miss < hit
