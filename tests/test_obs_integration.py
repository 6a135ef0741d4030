"""End-to-end tracing tests over the instrumented decision pipeline.

Two guarantees are pinned here:

* a traced ``decide_solvability`` produces a schema-valid ``repro-trace/1``
  payload whose span tree covers the pipeline stages (transform,
  obstruction checks, witness search);
* a pooled corpus run reports the **same** aggregate counters and gauge
  names as the serial run on the same workload — the cross-process merge that motivated the whole layer (worker counters
  used to vanish with the worker process).
"""

import pytest

from repro import obs
from repro.analysis import CorpusConfig, run_census, run_corpus
from repro.solvability import Status, decide_solvability
from repro.tasks.zoo import (
    hourglass_task,
    identity_task,
    majority_consensus_task,
    pinwheel_task,
)
from repro.topology import diskstore


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.set_tracing(False)
    obs.reset_recorder()
    yield
    obs.set_tracing(False)
    obs.reset_recorder()


def _traced_decide(task, max_rounds=2):
    with obs.tracing():
        verdict = decide_solvability(task, max_rounds=max_rounds)
    return verdict, obs.get_recorder()


class TestTracedDecide:
    @pytest.mark.parametrize(
        "make", [majority_consensus_task, hourglass_task, pinwheel_task]
    )
    def test_zoo_decisions_export_valid_traces(self, make):
        task = make()
        verdict, recorder = _traced_decide(task)
        names = recorder.span_names()
        assert names[0] == "decide"
        assert "transform" in names
        # the decide span carries the verdict and the pipeline stages nest
        decide = recorder.find_span("decide")
        assert decide.attrs["status"] == verdict.status.value
        assert [c.name for c in decide.children][0] == "transform"
        payload = obs.build_trace(meta={"command": f"decide {task.name}"})
        assert obs.validate_trace(payload) == []

    def test_unsolvable_trace_covers_obstruction_stage(self):
        verdict, recorder = _traced_decide(majority_consensus_task())
        assert verdict.status is Status.UNSOLVABLE
        names = recorder.span_names()
        assert "obstructions" in names
        assert "obstruction.check" in names
        hits = [
            record.attrs
            for record in recorder.walk()
            if record.name == "obstruction.check" and record.attrs.get("hit")
        ]
        assert hits and hits[0]["kind"] == verdict.obstruction.kind
        counters = recorder.counters
        assert counters["decide.obstructions.checked"] >= 1
        assert counters[f"decide.obstructions.hit.{verdict.obstruction.kind}"] == 1

    def test_solvable_trace_covers_search_stage(self):
        verdict, recorder = _traced_decide(identity_task(3))
        assert verdict.status is Status.SOLVABLE
        names = recorder.span_names()
        assert "search" in names
        assert "search.round" in names
        search = recorder.find_span("search")
        assert search.attrs["witness_rounds"] == verdict.witness_rounds
        assert recorder.counters["decide.search.nodes"] > 0

    def test_split_spans_carry_per_facet_counts(self):
        verdict, recorder = _traced_decide(majority_consensus_task())
        facet_spans = [r for r in recorder.walk() if r.name == "split.facet"]
        assert facet_spans
        per_facet = [int(r.attrs["splits"]) for r in facet_spans]
        assert sum(per_facet) == int(verdict.stats["n_splits"]) == 42
        assert max(per_facet) == 12  # the budget is per-facet, and this
        # is the largest single-facet demand (see tests/splitting)

    def test_split_sub_spans_cover_the_split(self):
        # LAP detection, image rewriting, monotonization and task building
        # account for a cold split, so a trace attributes its cost
        with diskstore.store_disabled():
            verdict, recorder = _traced_decide(majority_consensus_task())
        assert verdict.stats["n_splits"] == 42
        split = recorder.find_span("split")
        parts = ("split.lap_detect", "split.rewrite", "split.monotonize", "split.task_build")
        covered = sum(r.wall_seconds for r in split.walk() if r.name in parts)
        assert covered >= 0.95 * split.wall_seconds
        assert {r.name for r in split.walk()} >= set(parts)
        facets = [r for r in split.walk() if r.name == "split.facet"]
        built = recorder.counters["split.complexes_built"]
        assert built == sum(r.attrs["complexes_built"] for r in facets) > 0

    def test_cold_majority_split_builds_few_complexes(self):
        # a timing-free guard on the incremental split: only the images
        # containing the split vertex are rebuilt (a full rebuild per step
        # built 5,334 complexes here)
        with diskstore.store_disabled():
            verdict, recorder = _traced_decide(majority_consensus_task())
        assert verdict.stats["n_splits"] == 42
        assert recorder.counters["split.complexes_built"] <= 1_000
        assert len([r for r in recorder.walk() if r.name == "split.task_build"]) == 1

    def test_stats_backfill_matches_untraced_run(self):
        traced, _ = _traced_decide(hourglass_task())
        untraced = decide_solvability(hourglass_task(), max_rounds=2)
        assert traced.status is untraced.status
        assert set(traced.stats) == set(untraced.stats)


#: two shards, so ``workers=2`` really runs a pool
CORPUS = CorpusConfig(0, 6, shards=2)


def _census_aggregates(workers, root):
    """Run the same traced corpus; returns (census, counters, gauges).

    The store is off: with a shared store, which pool worker decides a
    class first (and so which lookups miss) depends on scheduling.
    """
    obs.reset_recorder()
    with diskstore.store_disabled(), obs.tracing():
        census = run_corpus(CORPUS, str(root), workers=workers).census
    recorder = obs.get_recorder()
    return (
        census.as_tuple(),
        recorder.aggregate_counters(),
        recorder.aggregate_gauges(),
    )


class TestParallelAggregation:
    def test_workers_counters_match_serial(self, tmp_path):
        # regression: before the worker-snapshot merge, the parallel run's
        # recorder was empty — every counter accumulated in the pool
        # workers was lost with the worker process.
        serial_census, serial_counters, _ = _census_aggregates(1, tmp_path / "serial")
        parallel_census_t, parallel_counters, _ = _census_aggregates(
            2, tmp_path / "parallel"
        )
        assert parallel_census_t == serial_census
        assert parallel_counters == serial_counters
        assert parallel_counters["corpus.tasks"] == 6.0

    def test_workers_gauge_aggregates_match_serial(self, tmp_path):
        # every shard sets its rate gauge; the pool's merge must keep the
        # workers' gauges as the serial run keeps its own (the rate itself
        # is a wall-clock figure, so only the names can be compared)
        *_, serial_gauges = _census_aggregates(1, tmp_path / "serial")
        *_, parallel_gauges = _census_aggregates(2, tmp_path / "parallel")
        assert "corpus.tasks_per_second" in serial_gauges
        assert set(parallel_gauges) == set(serial_gauges)

    def test_parallel_trace_carries_worker_snapshots(self, tmp_path):
        obs.reset_recorder()
        with obs.tracing():
            run_corpus(CORPUS, str(tmp_path / "corpus"), workers=2)
        payload = obs.build_trace(meta={"command": "census"})
        assert obs.validate_trace(payload) == []
        assert len(payload["workers"]) == 2  # one snapshot per shard
        for snap in payload["workers"]:
            assert [s["name"] for s in snap["spans"]] == ["corpus.shard"]

    def test_untraced_parallel_census_sends_no_snapshots(self, tmp_path):
        obs.reset_recorder()
        merged = run_corpus(CORPUS, str(tmp_path / "corpus"), workers=2).census
        serial = run_census(range(6))
        assert merged.as_tuple() == serial.as_tuple()
        assert obs.get_recorder().worker_snapshots == []
