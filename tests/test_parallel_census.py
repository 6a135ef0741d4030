"""A census is a corpus run, and must be scheduling-invariant.

Every aggregate a census reports is a deterministic function of the seed
set alone: the shard partition, the worker count and completion order
must all be invisible, and the corpus must agree with the reference loop
:func:`run_census`, which decides every seed with no dedup and no store.
Populations here are small (each decided class is a full decision-
procedure run) but exercise the serial path, more workers than shards,
one seed per shard, and a real pool.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.analysis import Census, CorpusConfig, CorpusError, run_census, run_corpus
from repro.analysis.corpus import GENERATORS
from repro.tasks.zoo.random_tasks import random_sparse_task
from repro.topology import diskstore

SEEDS = range(10)


@pytest.fixture(scope="module")
def serial() -> Census:
    return run_census(SEEDS)


def _census(root, seeds=SEEDS, shards=1, workers=None, generator="single"):
    config = CorpusConfig(seeds.start, seeds.stop, shards=shards, generator=generator)
    return run_corpus(config, str(root), workers=workers)


def test_same_seeds_same_aggregates(serial, tmp_path):
    par = _census(tmp_path / "a", shards=3, workers=2).census
    assert par.as_tuple() == serial.as_tuple()
    # and a second pooled run with another partition agrees with the first
    again = _census(tmp_path / "b", shards=2, workers=3).census
    assert again.as_tuple() == par.as_tuple()


def test_one_worker_degenerates_to_serial(serial, tmp_path):
    assert _census(tmp_path / "c", shards=2, workers=1).census.as_tuple() == serial.as_tuple()


def test_workers_larger_than_population(serial, tmp_path):
    par = _census(tmp_path / "c", shards=len(SEEDS), workers=len(SEEDS) + 50).census
    assert par.as_tuple() == serial.as_tuple()


def test_sparse_family_parity(tmp_path):
    serial = run_census(range(6), generator=random_sparse_task)
    par = _census(tmp_path / "c", seeds=range(6), shards=2, workers=2, generator="sparse")
    assert par.census.as_tuple() == serial.as_tuple()
    assert par.census.population == 6


@pytest.mark.parametrize("workers", [0, -1])
def test_nonpositive_workers_rejected(workers, tmp_path):
    with pytest.raises(CorpusError, match="workers must be at least 1"):
        _census(tmp_path / "c", workers=workers)


def test_validation_precedes_generation(tmp_path, monkeypatch):
    # bad knobs fail fast, before any task is generated, pool spawned or
    # corpus directory made
    def exploding_generator(seed):  # pragma: no cover - must never run
        raise AssertionError("generator should not be invoked")

    monkeypatch.setitem(GENERATORS, "single", exploding_generator)
    with pytest.raises(CorpusError):
        _census(tmp_path / "c", workers=0)
    assert not os.path.exists(tmp_path / "c")


def test_generator_parameter_is_respected(tmp_path):
    par = _census(tmp_path / "c", seeds=range(4), shards=4, workers=2, generator="sparse")
    assert par.census.as_tuple() == run_census(range(4), generator=random_sparse_task).as_tuple()
    assert par.census.as_tuple() != run_census(range(4)).as_tuple()


# -- Verdict-store observability ----------------------------------------------


class TestVerdictCacheCounters:
    """A class loaded from the store skips the decide spans entirely; the
    ``census.class_store.*`` counters name the shortcut.  On a warm store
    every lookup hits, so the counts are scheduling-invariant there."""

    @staticmethod
    def _counters(tmp_path, name, workers):
        with diskstore.store_at(str(tmp_path / "store")):
            obs.reset_recorder()
            with obs.tracing():
                result = _census(tmp_path / name, shards=2, workers=workers)
            counters = dict(obs.get_recorder().aggregate_counters())
        lookups = sum(not r["dedup"] for r in result.records)
        return lookups, {k: v for k, v in counters.items() if k.startswith("census.class_store")}

    def test_workers_1_equals_workers_n_on_warm_store(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "store")):
            _census(tmp_path / "warmup")  # fill the store un-traced
        lookups, serial = self._counters(tmp_path, "serial", workers=1)
        _, pooled = self._counters(tmp_path, "pooled", workers=2)
        assert serial == pooled
        assert serial["census.class_store.hit"] == lookups
        assert "census.class_store.miss" not in serial

    def test_cold_store_counts_misses(self, tmp_path):
        with diskstore.store_at(str(tmp_path / "cold")):
            obs.reset_recorder()
            with obs.tracing():
                result = _census(tmp_path / "c", seeds=range(3))
            counters = dict(obs.get_recorder().aggregate_counters())
        assert counters["census.class_store.miss"] == sum(not r["dedup"] for r in result.records)
        assert "census.class_store.hit" not in counters

    def test_disabled_store_emits_neither(self, tmp_path):
        with diskstore.store_disabled():
            obs.reset_recorder()
            with obs.tracing():
                _census(tmp_path / "c", seeds=range(2))
            counters = dict(obs.get_recorder().aggregate_counters())
        assert not [k for k in counters if k.startswith("census.class_store")]
