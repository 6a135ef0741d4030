"""The streaming corpus must equal the in-memory census, however it runs.

Every property here reduces to one invariant: the corpus's merged
``Census.as_tuple()`` is a function of (config) alone — shard layout
changes which file a seed's record lands in, worker counts change who
writes it, interruptions change when, and dedup changes whether the
decision procedure actually ran.  None of them may change any aggregate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import run_census
from repro.analysis.corpus import (
    CorpusConfig,
    CorpusError,
    canon_hash,
    census_from_records,
    load_shard,
    run_corpus,
    run_shard,
    shard_path,
)
from repro.tasks.zoo.random_tasks import random_single_input_task
from repro.topology import diskstore

POP = 30
CONFIG = CorpusConfig(seed_start=0, seed_stop=POP, shards=3)


@pytest.fixture(scope="module")
def serial_census(tmp_path_factory):
    # module-scoped, so it runs before the function-scoped autouse store
    # isolation: pin its own throwaway verdict store explicitly
    with diskstore.store_at(str(tmp_path_factory.mktemp("serial") / "towers")):
        return run_census(range(POP))


# -- Config validation ---------------------------------------------------------


class TestCorpusConfig:
    def test_empty_seed_range_rejected(self):
        with pytest.raises(CorpusError, match=r"empty seed range \[5, 5\)"):
            CorpusConfig(seed_start=5, seed_stop=5).validate()

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(CorpusError, match="shards must be at least 1"):
            CorpusConfig(seed_start=0, seed_stop=10, shards=0).validate()

    def test_more_shards_than_seeds_rejected(self):
        with pytest.raises(CorpusError, match="empty shards"):
            CorpusConfig(seed_start=0, seed_stop=3, shards=4).validate()

    def test_unknown_generator_rejected(self):
        with pytest.raises(CorpusError, match="unknown generator 'bogus'"):
            CorpusConfig(seed_start=0, seed_stop=10, generator="bogus").validate()

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(CorpusError, match="max_rounds must be non-negative"):
            CorpusConfig(seed_start=0, seed_stop=10, max_rounds=-1).validate()

    def test_shard_ranges_partition_the_seed_range(self):
        config = CorpusConfig(seed_start=7, seed_stop=29, shards=4)
        ranges = config.shard_ranges()
        assert len(ranges) == 4
        assert ranges[0][0] == 7 and ranges[-1][1] == 29
        # contiguous, non-overlapping, near-equal
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == 22
        assert max(sizes) - min(sizes) <= 1

    def test_dict_round_trip(self):
        assert CorpusConfig.from_dict(CONFIG.as_dict()) == CONFIG

    def test_malformed_dict_rejected(self):
        with pytest.raises(CorpusError, match="malformed corpus config"):
            CorpusConfig.from_dict({"seed_start": 0})


# -- Shard files: checkpointing and torn-tail recovery -------------------------


class TestShardCheckpoints:
    def test_missing_file_is_a_fresh_shard(self, tmp_path):
        state = load_shard(str(tmp_path / "absent.jsonl"), 10, 20)
        assert state.records == [] and state.next_seed == 10 and not state.torn

    def test_limit_pauses_and_resumes_mid_shard(self, tmp_path):
        root = str(tmp_path / "corpus")
        config = CorpusConfig(seed_start=0, seed_stop=12, shards=1)
        first = run_shard(config, 0, root, limit=5)
        assert [r["seed"] for r in first] == list(range(5))
        state = load_shard(shard_path(root, 0), 0, 12)
        assert state.next_seed == 5 and not state.torn
        resumed = run_shard(config, 0, root)
        assert [r["seed"] for r in resumed] == list(range(12))
        # the paused-then-resumed shard equals an uninterrupted one
        straight = run_shard(config, 0, str(tmp_path / "straight"))
        strip = lambda rs: [{k: v for k, v in r.items() if k != "runtime"} for r in rs]
        assert strip(resumed) == strip(straight)

    def test_torn_garbage_tail_is_truncated_on_resume(self, tmp_path):
        root = str(tmp_path / "corpus")
        config = CorpusConfig(seed_start=0, seed_stop=8, shards=1)
        run_shard(config, 0, root, limit=4)
        path = shard_path(root, 0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seed": 4, "canon_hash": "tr')  # writer died mid-line
        state = load_shard(path, 0, 8)
        assert state.torn and state.next_seed == 4
        records = run_shard(config, 0, root)
        assert [r["seed"] for r in records] == list(range(8))
        # the file itself holds exactly the committed records again
        assert not load_shard(path, 0, 8).torn

    def test_unterminated_valid_json_tail_is_uncommitted(self, tmp_path):
        # a record missing its trailing newline parses fine but was never
        # committed — resume must re-decide that seed, not trust the tail
        root = str(tmp_path / "corpus")
        config = CorpusConfig(seed_start=0, seed_stop=6, shards=1)
        records = run_shard(config, 0, root, limit=3)
        path = shard_path(root, 0)
        tail = dict(records[-1], seed=3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tail, sort_keys=True))  # no "\n"
        state = load_shard(path, 0, 6)
        assert state.torn and state.next_seed == 3
        assert [r["seed"] for r in run_shard(config, 0, root)] == list(range(6))

    def test_out_of_sequence_record_is_torn(self, tmp_path):
        root = str(tmp_path / "corpus")
        config = CorpusConfig(seed_start=0, seed_stop=6, shards=1)
        records = run_shard(config, 0, root, limit=2)
        path = shard_path(root, 0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(records[0], seed=5)) + "\n")
        state = load_shard(path, 0, 6)
        assert state.torn and state.next_seed == 2


# -- Whole-run orchestration ---------------------------------------------------


class TestRunCorpus:
    def test_corpus_census_equals_in_memory_census(self, tmp_path, serial_census):
        result = run_corpus(CONFIG, str(tmp_path / "corpus"))
        assert result.census.as_tuple() == serial_census.as_tuple()
        assert [r["seed"] for r in result.records] == list(range(POP))

    def test_pooled_equals_serial(self, tmp_path, serial_census):
        result = run_corpus(CONFIG, str(tmp_path / "corpus"), workers=3)
        assert result.census.as_tuple() == serial_census.as_tuple()

    def test_shard_layout_is_invisible_to_aggregates(self, tmp_path, serial_census):
        one = run_corpus(
            CorpusConfig(seed_start=0, seed_stop=POP, shards=1),
            str(tmp_path / "one"),
        )
        five = run_corpus(
            CorpusConfig(seed_start=0, seed_stop=POP, shards=5),
            str(tmp_path / "five"),
        )
        assert one.census.as_tuple() == five.census.as_tuple() == serial_census.as_tuple()

    def test_existing_run_requires_resume_flag(self, tmp_path):
        root = str(tmp_path / "corpus")
        run_corpus(CONFIG, root)
        with pytest.raises(CorpusError, match="pass resume=True"):
            run_corpus(CONFIG, root)

    def test_config_mismatch_refused_even_with_resume(self, tmp_path):
        root = str(tmp_path / "corpus")
        run_corpus(CONFIG, root)
        other = CorpusConfig(seed_start=0, seed_stop=POP, shards=2)
        with pytest.raises(CorpusError, match="refusing to continue"):
            run_corpus(other, root, resume=True)

    def test_dedup_reuses_representative_verdicts(self, tmp_path):
        result = run_corpus(
            CorpusConfig(seed_start=0, seed_stop=POP, shards=1),
            str(tmp_path / "corpus"),
        )
        dedup = result.manifest["dedup"]
        assert dedup["population"] == POP
        assert dedup["decided"] + dedup["dedup_hits"] == POP
        # single-shard dedup decides exactly one task per isomorphism class
        assert dedup["decided"] == dedup["distinct_hashes"]
        assert dedup["rate"] == pytest.approx(dedup["dedup_hits"] / POP)
        # and the reused verdicts really are class-invariant: recomputing
        # every record from scratch (no dedup) gives the same aggregates
        fresh = run_census(range(POP))
        assert census_from_records(result.records).as_tuple() == fresh.as_tuple()

    def test_nonpositive_workers_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="workers must be at least 1"):
            run_corpus(CONFIG, str(tmp_path / "corpus"), workers=0)

    def test_dedup_counters_are_emitted(self, tmp_path):
        from repro import obs

        obs.reset_recorder()
        with obs.tracing():
            result = run_corpus(
                CorpusConfig(seed_start=0, seed_stop=POP, shards=1),
                str(tmp_path / "corpus"),
            )
        counters = dict(obs.get_recorder().aggregate_counters())
        dedup = result.manifest["dedup"]
        assert counters["corpus.dedup.hit"] == dedup["dedup_hits"]
        assert counters["corpus.dedup.miss"] == dedup["decided"]
        assert counters["corpus.tasks"] == POP


# -- Interrupt anywhere, resume, lose nothing ----------------------------------


class _KillSwitch(RuntimeError):
    pass


class TestKillAndResume:
    def test_interrupted_resume_is_bit_identical(
        self, tmp_path, monkeypatch, serial_census
    ):
        import repro.analysis.corpus as corpus_mod

        root = str(tmp_path / "corpus")
        real_decide = corpus_mod.decide_class
        calls = {"n": 0}

        def dying_decide(task, class_hash, max_rounds):
            calls["n"] += 1
            if calls["n"] > 7:
                raise _KillSwitch("simulated crash mid-shard")
            return real_decide(task, class_hash, max_rounds)

        monkeypatch.setattr(corpus_mod, "decide_class", dying_decide)
        with pytest.raises(_KillSwitch):
            run_corpus(CONFIG, root)
        # some shards hold committed prefixes; the run config is pinned
        assert os.path.exists(os.path.join(root, "run.json"))
        committed = sum(
            len(load_shard(shard_path(root, s), lo, hi).records)
            for s, (lo, hi) in enumerate(CONFIG.shard_ranges())
        )
        assert 0 < committed < POP

        monkeypatch.setattr(corpus_mod, "decide_class", real_decide)
        result = run_corpus(CONFIG, root, resume=True)
        assert result.census.as_tuple() == serial_census.as_tuple()
        assert [r["seed"] for r in result.records] == list(range(POP))

    def test_canon_hash_is_stable_across_calls(self):
        task = random_single_input_task(3)
        again = random_single_input_task(3)
        assert canon_hash(task) == canon_hash(again)
