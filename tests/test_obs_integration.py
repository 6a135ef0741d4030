"""End-to-end tracing tests over the instrumented decision pipeline.

Two guarantees are pinned here:

* a traced ``decide_solvability`` produces a schema-valid ``repro-trace/1``
  payload whose span tree covers the pipeline stages (transform,
  obstruction checks, witness search);
* the parallel census reports the **same** aggregate counters and cache
  hit/miss totals as the serial run on the same workload — the
  cross-process merge that motivated the whole layer (worker counters
  used to vanish with the worker process).
"""

import pytest

from repro import obs
from repro.analysis import parallel_census, run_census
from repro.solvability import Status, decide_solvability
from repro.tasks.zoo import (
    hourglass_task,
    identity_task,
    majority_consensus_task,
    pinwheel_task,
)
from repro.topology import cache_clear, diskstore


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.set_tracing(False)
    obs.reset_recorder()
    cache_clear()
    yield
    obs.set_tracing(False)
    obs.reset_recorder()
    cache_clear()


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


def _census_aggregates(workers, store_dir):
    """Run the same traced workload; returns (census, counters, cache, gauges).

    Each invocation gets its own persistent-store directory so every run
    is equally cold — otherwise the first run would warm the disk store
    and the second would report hit counters instead of miss/write ones.
    """
    obs.reset_recorder()
    cache_clear()
    with diskstore.store_at(str(store_dir)), obs.tracing():
        census = parallel_census(range(6), workers=workers, chunksize=2)
    recorder = obs.get_recorder()
    return (
        census.as_tuple(),
        recorder.aggregate_counters(),
        recorder.aggregate_cache(),
        recorder.aggregate_gauges(),
    )


class TestParallelAggregation:
    def test_workers_counters_match_serial(self, tmp_path):
        # regression: before the worker-snapshot merge, the parallel run's
        # recorder was empty — every counter and cache hit accumulated in
        # the pool workers was lost with the worker process.
        serial_census, serial_counters, serial_cache, _ = _census_aggregates(
            1, tmp_path / "serial"
        )
        parallel_census_t, parallel_counters, parallel_cache, _ = _census_aggregates(
            2, tmp_path / "parallel"
        )
        assert parallel_census_t == serial_census
        assert parallel_counters == serial_counters
        assert parallel_counters["census.tasks"] == 6.0
        # cache hit/miss totals agree query-by-query across process counts
        assert set(parallel_cache) == set(serial_cache)
        for query in serial_cache:
            assert parallel_cache[query]["hits"] == serial_cache[query]["hits"]
            assert (
                parallel_cache[query]["misses"] == serial_cache[query]["misses"]
            )

    def test_workers_gauge_aggregates_match_serial(self, tmp_path):
        # the census's max-splits gauge is seed-determined, so under the
        # default "max" merge policy the aggregate must not depend on how
        # the pool partitions the seeds — workers=1 and workers=N agree
        *_, serial_gauges = _census_aggregates(1, tmp_path / "serial")
        *_, parallel_gauges = _census_aggregates(2, tmp_path / "parallel")
        assert "census.max_splits" in serial_gauges
        assert parallel_gauges == serial_gauges

    def test_parallel_trace_carries_worker_snapshots(self):
        obs.reset_recorder()
        cache_clear()
        with obs.tracing():
            parallel_census(range(6), workers=2, chunksize=2)
        payload = obs.build_trace(meta={"command": "census"})
        assert obs.validate_trace(payload) == []
        assert len(payload["workers"]) == 3  # one snapshot per chunk
        for snap in payload["workers"]:
            assert [s["name"] for s in snap["spans"]] == ["census"]

    def test_untraced_parallel_census_sends_no_snapshots(self):
        obs.reset_recorder()
        merged = parallel_census(range(4), workers=2, chunksize=2)
        serial = run_census(range(4))
        assert merged.as_tuple() == serial.as_tuple()
        assert obs.get_recorder().worker_snapshots == []
