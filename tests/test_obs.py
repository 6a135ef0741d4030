"""Unit tests for the repro.obs tracing/metrics layer.

Covers the recorder (spans, counters, gauges, worker snapshots), the
``repro-trace/1`` export schema, and the text summary — without touching
the instrumented decision pipeline (``tests/test_obs_integration.py``
does that end-to-end).
"""

import json

import pytest

from repro import obs
from repro.obs import (
    SCHEMA,
    build_trace,
    capture_worker,
    counter_add,
    format_trace_summary,
    gauge_set,
    get_recorder,
    merge_worker_snapshot,
    reset_recorder,
    set_tracing,
    span,
    tracing,
    tracing_enabled,
    validate_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test gets a fresh recorder and starts with tracing off."""
    set_tracing(False)
    reset_recorder()
    yield
    set_tracing(False)
    reset_recorder()


class TestDisabledByDefault:
    def test_tracing_starts_disabled(self):
        assert not tracing_enabled()

    def test_span_is_shared_noop_singleton(self):
        a, b = span("x"), span("y", attr=1)
        assert a is b  # one shared object: no allocation on the hot path
        with a as record:
            assert record is None
        assert get_recorder().roots == []

    def test_counters_and_gauges_are_noops(self):
        counter_add("n", 5.0)
        gauge_set("g", 1.0)
        rec = get_recorder()
        assert rec.counters == {} and rec.gauges == {}

    def test_annotate_tolerates_disabled_none(self):
        obs.annotate(None, anything="goes")  # must not raise


class TestRecording:
    def test_span_tree_nesting_and_attrs(self):
        with tracing():
            with span("outer", task="t") as outer:
                with span("inner", idx=0):
                    pass
                with span("inner", idx=1):
                    pass
                obs.annotate(outer, status="done")
        rec = get_recorder()
        assert [r.name for r in rec.roots] == ["outer"]
        outer_rec = rec.roots[0]
        assert outer_rec.attrs == {"task": "t", "status": "done"}
        assert [c.name for c in outer_rec.children] == ["inner", "inner"]
        assert [c.attrs["idx"] for c in outer_rec.children] == [0, 1]
        assert rec.span_names() == ["outer", "inner", "inner"]
        assert rec.find_span("inner").attrs["idx"] == 0
        assert rec.find_span("absent") is None

    def test_name_is_a_legal_attribute_key(self):
        # regression: span()'s positional parameter shadowed an attrs key
        # called "name" (TypeError: multiple values for argument 'name')
        with tracing():
            with span("conform.task", name="identity") as record:
                obs.annotate(record, name="identity-renamed")
        root = get_recorder().roots[0]
        assert root.name == "conform.task"
        assert root.attrs["name"] == "identity-renamed"

    def test_span_timings_populated(self):
        with tracing():
            with span("timed"):
                sum(range(1000))
        record = get_recorder().roots[0]
        assert record.wall_seconds >= 0.0
        assert record.cpu_seconds >= 0.0
        assert record.start_unix > 0.0

    def test_exception_annotates_error_and_pops_stack(self):
        with tracing():
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("bad input")
            # the stack unwound: a new span is a root, not a child of boom
            with span("after"):
                pass
        rec = get_recorder()
        assert rec.roots[0].attrs["error"] == "ValueError: bad input"
        assert [r.name for r in rec.roots] == ["boom", "after"]

    def test_counters_accumulate_and_gauges_overwrite(self):
        with tracing():
            counter_add("steps")
            counter_add("steps", 2.0)
            gauge_set("pop", 5.0)
            gauge_set("pop", 7.0)
        rec = get_recorder()
        assert rec.counters == {"steps": 3.0}
        assert rec.gauges == {"pop": 7.0}

    def test_tracing_context_restores_previous_state(self):
        assert not tracing_enabled()
        with tracing():
            assert tracing_enabled()
            with tracing(False):
                assert not tracing_enabled()
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_reset_recorder_returns_old_state(self):
        with tracing():
            counter_add("kept")
        old = reset_recorder()
        assert old.counters == {"kept": 1.0}
        assert get_recorder().counters == {}


class TestGaugePolicies:
    def test_merge_gauge_maps_default_is_max(self):
        merged = obs.merge_gauge_maps([{"g": 2.0}, {"g": 5.0}, {"g": 3.0}])
        assert merged == {"g": 5.0}

    def test_each_policy_merges_as_named(self):
        maps = [{"g": 2.0}, {"g": 5.0}, {"g": 3.0}]
        for policy, expected in (
            ("max", 5.0),
            ("min", 2.0),
            ("sum", 10.0),
            ("last", 3.0),
        ):
            assert obs.merge_gauge_maps(maps, {"g": policy}) == {"g": expected}

    def test_unknown_policy_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown gauge policy"):
            obs.merge_gauge_maps([{"g": 1.0}], {"g": "median"})
        with pytest.raises(ValueError, match="unknown gauge policy"):
            get_recorder().set_gauge_policy("g", "median")

    def test_worker_gauges_merge_under_policy(self):
        set_tracing(True)
        gauge_set("population", 10.0)
        get_recorder().set_gauge_policy("population", "sum")
        for value in (7.0, 5.0):
            with capture_worker() as capture:
                gauge_set("population", value)
            merge_worker_snapshot(capture.snapshot)
        assert get_recorder().aggregate_gauges() == {"population": 22.0}

    def test_default_max_is_completion_order_free(self):
        set_tracing(True)
        snapshots = []
        for value in (3.0, 9.0, 1.0):
            with capture_worker() as capture:
                gauge_set("depth", value)
            snapshots.append(capture.snapshot)
        for snap in reversed(snapshots):  # merge in "wrong" order
            merge_worker_snapshot(snap)
        assert get_recorder().aggregate_gauges() == {"depth": 9.0}

    def test_worker_policy_rides_in_snapshot_but_parent_wins(self):
        set_tracing(True)
        with capture_worker() as capture:
            get_recorder().set_gauge_policy("g", "sum")
            gauge_set("g", 4.0)
        gauge_set("g", 1.0)
        merge_worker_snapshot(capture.snapshot)
        # no parent-side setting: the worker's "sum" choice is adopted
        assert get_recorder().aggregate_gauges() == {"g": 5.0}

        reset_recorder()
        set_tracing(True)
        get_recorder().set_gauge_policy("g", "min")
        gauge_set("g", 1.0)
        with capture_worker() as capture:
            get_recorder().set_gauge_policy("g", "sum")
            gauge_set("g", 4.0)
        merge_worker_snapshot(capture.snapshot)
        # explicit parent-side policy beats the snapshot's
        assert get_recorder().aggregate_gauges() == {"g": 1.0}

    def test_aggregate_gauges_lands_in_trace_aggregate(self):
        set_tracing(True)
        gauge_set("depth", 2.0)
        with capture_worker() as capture:
            gauge_set("depth", 6.0)
        merge_worker_snapshot(capture.snapshot)
        payload = build_trace()
        assert payload["aggregate"]["gauges"] == {"depth": 6.0}
        assert validate_trace(payload) == []

    def test_validator_rejects_drifted_gauge_aggregate(self):
        set_tracing(True)
        gauge_set("depth", 2.0)
        payload = json.loads(json.dumps(build_trace()))
        payload["aggregate"]["gauges"]["depth"] = 99.0
        assert any(
            "aggregate.gauges" in p for p in validate_trace(payload)
        )


class TestStartOffset:
    def test_offsets_are_monotonic_within_the_tree(self):
        set_tracing(True)
        with span("outer"):
            with span("first"):
                pass
            with span("second"):
                pass
        outer = get_recorder().roots[0]
        first, second = outer.children
        assert outer.start_offset >= 0.0
        assert first.start_offset >= outer.start_offset
        assert second.start_offset >= first.start_offset

    def test_offset_is_exported_and_required(self):
        set_tracing(True)
        with span("s"):
            pass
        payload = json.loads(json.dumps(build_trace()))
        assert "start_offset" in payload["spans"][0]
        del payload["spans"][0]["start_offset"]
        assert validate_trace(payload) != []


class TestWorkerAggregation:
    def test_capture_worker_snapshots_and_restores(self):
        with tracing():
            counter_add("parent.only")
        with capture_worker() as capture:
            with span("work"):
                counter_add("worker.steps", 4.0)
        # the worker block recorded into its own recorder, not the parent's
        assert "worker.steps" not in get_recorder().counters
        snap = capture.snapshot
        assert snap["counters"] == {"worker.steps": 4.0}
        assert [s["name"] for s in snap["spans"]] == ["work"]
        assert isinstance(snap["worker"], int)
        assert not tracing_enabled()  # previous flag restored

    def test_merge_worker_snapshot_feeds_aggregates(self):
        with tracing():
            counter_add("steps", 1.0)
        for _ in range(2):
            with capture_worker() as capture:
                counter_add("steps", 2.0)
                counter_add("worker.extra")
            merge_worker_snapshot(capture.snapshot)
        rec = get_recorder()
        assert len(rec.worker_snapshots) == 2
        assert rec.aggregate_counters() == {"steps": 5.0, "worker.extra": 2.0}
        # the parent's own counters are untouched by the merge
        assert rec.counters == {"steps": 1.0}


def _recorded_trace():
    """A small real trace: parent span/counters plus one worker snapshot."""
    reset_recorder()
    with tracing():
        with span("decide", task="unit"):
            with span("transform"):
                counter_add("splits", 3.0)
        gauge_set("population", 1.0)
    with capture_worker() as capture:
        with span("work"):
            counter_add("splits", 2.0)
    merge_worker_snapshot(capture.snapshot)
    return build_trace(meta={"command": "unit-test"})


class TestExport:
    def test_build_trace_shape_and_validity(self):
        payload = _recorded_trace()
        assert payload["schema"] == SCHEMA
        assert validate_trace(payload) == []
        assert payload["meta"] == {"command": "unit-test"}
        assert [s["name"] for s in payload["spans"]] == ["decide"]
        assert payload["spans"][0]["children"][0]["name"] == "transform"
        assert payload["aggregate"]["counters"]["splits"] == 5.0

    def test_machine_info_fields(self):
        from repro.obs.export import machine_info

        info = machine_info()
        assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
        assert isinstance(info["python"], str)
        assert build_trace()["machine"].keys() == info.keys()

    def test_write_trace_roundtrips(self, tmp_path):
        _recorded_trace()
        path = tmp_path / "trace.json"
        payload = write_trace(str(path), meta={"command": "unit-test"})
        on_disk = json.loads(path.read_text())
        assert validate_trace(on_disk) == []
        assert on_disk["counters"] == payload["counters"]

    def test_validate_trace_rejects_malformed_payloads(self):
        assert validate_trace(None) != []
        assert validate_trace({}) != []
        good = json.loads(json.dumps(_recorded_trace()))
        assert validate_trace(good) == []

        for mutate in (
            lambda p: p.update(schema="wrong/0"),
            lambda p: p.update(spans="not-a-list"),
            lambda p: p["spans"][0].update(name=""),
            lambda p: p["spans"][0].update(wall_seconds=-1.0),
            lambda p: p["spans"][0]["children"][0].update(cpu_seconds="fast"),
            lambda p: p.update(counters={"x": "NaN-ish"}),
            lambda p: p["workers"][0].update(worker="pid"),
            lambda p: p["workers"][0].update(
                cache={"q": {"hits": -1, "misses": 0, "hit_rate": 0.0}}
            ),
            lambda p: p["aggregate"]["counters"].update(splits=99.0),
            lambda p: p.update(cache="not-an-object"),
        ):
            payload = json.loads(json.dumps(good))
            mutate(payload)
            assert validate_trace(payload) != [], mutate

    def test_validate_trace_accepts_an_older_cache_section(self):
        # traces written while the per-instance query memo existed carry a
        # cache map at the top level, per worker and in the aggregate
        payload = json.loads(json.dumps(_recorded_trace()))
        assert "cache" not in payload and "cache" not in payload["aggregate"]
        stats = {"SimplicialComplex.simplices": {"hits": 3, "misses": 1, "hit_rate": 0.75}}
        for owner in (payload, payload["aggregate"], *payload["workers"]):
            owner["cache"] = json.loads(json.dumps(stats))
        assert validate_trace(payload) == []
        payload["aggregate"]["cache"]["SimplicialComplex.simplices"]["hit_rate"] = 0.5
        assert validate_trace(payload) == [
            "aggregate.cache['SimplicialComplex.simplices'].hit_rate must equal hits/total"
        ]


class TestSummary:
    def test_summary_mentions_spans_counters_and_workers(self):
        payload = _recorded_trace()
        text = format_trace_summary(payload)
        assert SCHEMA in text
        assert "decide" in text and "transform" in text
        assert "splits" in text
        assert "population" in text
        assert "worker" in text.lower()

    def test_summary_max_depth_truncates(self):
        payload = _recorded_trace()
        shallow = format_trace_summary(payload, max_depth=0)
        assert "decide" in shallow
        assert "transform" not in shallow

    def test_top_replaces_tree_with_busiest_names(self):
        payload = _recorded_trace()
        text = format_trace_summary(payload, top=2)
        assert "top spans by name" in text
        assert "calls" in text
        # worker spans count toward the table
        assert "work" in text
        assert "more span names" in text  # decide/transform/work = 3 names

    def test_top_sort_orders(self):
        payload = _recorded_trace()
        for sort in ("wall", "cpu", "count"):
            text = format_trace_summary(payload, top=10, sort=sort)
            assert f"sorted by {sort}" in text
        with pytest.raises(ValueError, match="sort"):
            format_trace_summary(payload, top=3, sort="depth")

    def test_min_ms_hides_fast_subtrees(self):
        payload = _recorded_trace()
        # every recorded span is far under 10s: the whole tree hides
        text = format_trace_summary(payload, min_ms=10_000.0)
        assert "hidden" in text
        assert "transform" not in text

    def test_min_ms_filters_top_table_rows(self):
        payload = _recorded_trace()
        text = format_trace_summary(payload, top=10, min_ms=10_000.0)
        # every span is far under 10s, so no table row survives
        assert "decide" not in text
        assert "transform" not in text
