"""The corpus's class-keyed outcome store, and the premise it rests on.

``run_shard`` looks up and stores a representative's outcome (status,
certificate kind, witness rounds, split count) under its isomorphism-class
hash, so a run decides each class once per store.  That is sound only if
the decision procedure cannot tell two isomorphic tasks apart, which the
first tests check directly; the rest pin the store's behaviour: cold,
warm and store-off runs write the same records, a run decides exactly
its distinct classes, and an entry of any other shape is a miss.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis import census as census_mod
from repro.analysis.census import decide_class, verdict_outcome
from repro.analysis.corpus import CorpusConfig, canon_hash, dedup_stats, run_corpus
from repro.solvability.decision import decide_solvability
from repro.tasks.canonical import iso_canonical_text
from repro.tasks.zoo import standard_zoo
from repro.tasks.zoo.random_tasks import (
    random_multi_facet_task,
    random_single_input_task,
    random_sparse_task,
)
from repro.topology import diskstore

from ..tasks import reference

#: generator name -> (generator, seeds whose tasks are renamed and re-decided)
SEEDED = {
    "single": (random_single_input_task, range(40)),
    "sparse": (random_sparse_task, range(30)),
    "multi": (random_multi_facet_task, range(6)),
}

#: generator name -> (population, shards) of the store-parity corpus runs
RUNS = {"single": (60, 3), "sparse": (40, 2), "multi": (8, 2)}


def _store_off_outcome(task):
    with diskstore.store_disabled():
        return verdict_outcome(decide_solvability(task, max_rounds=1))


def _assert_renaming_invisible(task, rng, renamings):
    want = _store_off_outcome(task)
    # past ISO_SEARCH_CAP the class hash is the exact text's, and a
    # renamed twin hashes apart (loop-projective)
    exact = iso_canonical_text(task).startswith("exact:")
    for _ in range(renamings):
        twin = reference.renamed(task, rng)
        assert exact or canon_hash(twin) == canon_hash(task)
        assert _store_off_outcome(twin) == want, task.name


# -- The premise: an outcome is a function of the isomorphism class ---------


@pytest.mark.parametrize("name", sorted(standard_zoo()))
def test_renamed_zoo_tasks_decide_alike(name):
    _assert_renaming_invisible(standard_zoo()[name](), random.Random(name), 2)


@pytest.mark.parametrize("generator", sorted(SEEDED))
def test_renamed_generated_tasks_decide_alike(generator):
    make, seeds = SEEDED[generator]
    rng = random.Random(generator)
    for seed in seeds:
        _assert_renaming_invisible(make(seed), rng, 1)


# -- Cold, warm and store-off runs write the same records ---------------------


def _rows(result):
    return [{k: v for k, v in r.items() if k != "runtime"} for r in result.records]


@pytest.mark.parametrize("generator", sorted(RUNS))
def test_cold_and_warm_class_store_equal_store_off(tmp_path, generator):
    population, shards = RUNS[generator]
    config = CorpusConfig(0, population, shards=shards, generator=generator)
    with diskstore.store_disabled():
        off = run_corpus(config, str(tmp_path / "off"))
    with diskstore.store_at(str(tmp_path / "store")):
        cold = run_corpus(config, str(tmp_path / "cold"))
        warm = run_corpus(config, str(tmp_path / "warm"))
    assert _rows(cold) == _rows(off)
    assert _rows(warm) == _rows(off)
    assert cold.manifest["verdicts"] == warm.manifest["verdicts"] == off.manifest["verdicts"]


def test_a_run_decides_each_class_once(tmp_path, monkeypatch):
    decided = []

    def counted(task, max_rounds):
        decided.append(canon_hash(task))
        return decide_solvability(task, max_rounds=max_rounds)

    monkeypatch.setattr(census_mod, "decide_solvability", counted)
    config = CorpusConfig(0, 120, shards=4)
    cold = run_corpus(config, str(tmp_path / "cold"))
    stats = dedup_stats(cold.records)
    # shard-local dedup alone would decide every class once per shard
    assert stats["decided"] > stats["distinct_hashes"]
    assert len(decided) == len(set(decided)) == stats["distinct_hashes"]

    decided.clear()
    warm = run_corpus(config, str(tmp_path / "warm"))
    assert decided == []
    assert _rows(warm) == _rows(cold)


@pytest.mark.parametrize("generator", sorted(RUNS))
def test_a_run_stores_only_class_entries(tmp_path, generator):
    # no corpus lookup reads a transform entry: isomorphs load the class
    # entry and exact duplicates never leave their shard
    population, shards = RUNS[generator]
    config = CorpusConfig(0, population, shards=shards, generator=generator)
    store = tmp_path / "store"
    with diskstore.store_at(str(store)):
        result = run_corpus(config, str(tmp_path / "corpus"))
    assert sorted(p.name for p in store.iterdir()) == ["verdict"]
    entries = [p for p in (store / "verdict").rglob("*.pkl")]
    assert len(entries) == dedup_stats(result.records)["distinct_hashes"]


def test_store_hits_and_misses_are_counted(tmp_path):
    config = CorpusConfig(0, 60, shards=3)
    obs.reset_recorder()
    with obs.tracing():
        result = run_corpus(config, str(tmp_path / "corpus"))
    counters = dict(obs.get_recorder().aggregate_counters())
    stats = dedup_stats(result.records)
    assert counters["census.class_store.miss"] == stats["distinct_hashes"]
    assert (
        counters["census.class_store.miss"] + counters.get("census.class_store.hit", 0)
        == stats["decided"]
    )


# -- What an entry may hold ----------------------------------------------------


def test_a_verdict_under_the_class_key_reads_as_a_miss_and_is_replaced():
    task = random_single_input_task(3)
    canon = canon_hash(task)
    key = census_mod._class_key(canon, 1)
    # the format of the exact-key store: a whole verdict, here another task's
    foreign = decide_solvability(standard_zoo()["consensus"](), max_rounds=1)
    diskstore.store("verdict", key, foreign)

    obs.reset_recorder()
    with obs.tracing():
        outcome = decide_class(task, canon, 1)
    counters = dict(obs.get_recorder().aggregate_counters())
    assert outcome == _store_off_outcome(task) != verdict_outcome(foreign)
    assert counters["census.class_store.miss"] == 1
    assert "census.class_store.hit" not in counters
    assert diskstore.load("verdict", key) == outcome


@pytest.mark.parametrize(
    "entry",
    [
        ["solvable", "witness-map", 0, 0],
        ("solvable", "witness-map", 0),
        ("maybe", "witness-map", 0, 0),
        ("solvable", "witness-map", "0", 0),
        ("solvable", "witness-map", 0, None),
    ],
    ids=["list", "short", "bad-status", "bad-rounds", "bad-splits"],
)
def test_a_malformed_outcome_reads_as_a_miss(entry):
    task = random_single_input_task(4)
    canon = canon_hash(task)
    diskstore.store("verdict", census_mod._class_key(canon, 1), entry)
    assert decide_class(task, canon, 1) == _store_off_outcome(task)


def test_a_stored_outcome_answers_for_its_class():
    task = random_single_input_task(5)
    twin = reference.renamed(task, random.Random(0))
    canon = canon_hash(task)
    first = decide_class(task, canon, 1)
    obs.reset_recorder()
    with obs.tracing():
        assert decide_class(twin, canon_hash(twin), 1) == first
    assert dict(obs.get_recorder().aggregate_counters())["census.class_store.hit"] == 1
    # the budget is part of the key
    assert diskstore.load("verdict", census_mod._class_key(canon, 2)) is None
