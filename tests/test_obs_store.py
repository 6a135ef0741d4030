"""Unit tests for the telemetry run store and the regression sentinel.

Covers ``repro.obs.store`` (``repro-run/1`` records, the append-only
JSONL store, run references, bench ingest) and ``repro.obs.trend`` (the
noise-tolerant threshold model behind ``python -m repro obs diff``).
The acceptance-critical behaviours pinned here: a self-vs-self diff has
zero regressions, and doubling one span's wall time trips the sentinel.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    Thresholds,
    append_run,
    bench_run_record,
    build_run_record,
    diff_records,
    find_run,
    format_diff,
    format_trend,
    latest_run,
    load_record_file,
    load_store,
    regressions,
    resolve_store_path,
    validate_run_record,
)
from repro.obs.store import DEFAULT_PATH, ENV_VAR


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.set_tracing(False)
    obs.reset_recorder()
    yield
    obs.set_tracing(False)
    obs.reset_recorder()


def _trace_payload(wall: float = 0.5, hits: int = 8, misses: int = 2):
    """A hand-built, schema-light trace payload for record condensation."""
    return {
        "schema": obs.SCHEMA,
        "created_unix": 1700000000.0,
        "spans": [
            {
                "name": "decide",
                "wall_seconds": wall,
                "cpu_seconds": wall * 0.9,
                "children": [],
            }
        ],
        "aggregate": {
            "counters": {"decide.splits": 42.0},
            "gauges": {"census.max_splits": 3.0},
            "cache": {
                "is_simplex": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / (hits + misses),
                }
            },
        },
    }


def _record(wall: float = 0.5, **kwargs):
    defaults = dict(command="decide", task="majority", argv=["decide", "majority"])
    defaults.update(kwargs)
    return build_run_record(_trace_payload(wall=wall), **defaults)


class TestRunRecord:
    def test_build_condenses_trace_aggregates(self):
        record = _record()
        assert record["schema"] == "repro-run/1"
        assert validate_run_record(record) == []
        assert record["command"] == "decide"
        assert record["task"] == "majority"
        assert record["spans"]["decide"]["wall_seconds"] == 0.5
        assert record["spans"]["decide"]["count"] == 1
        assert record["counters"] == {"decide.splits": 42.0}
        assert record["gauges"] == {"census.max_splits": 3.0}
        assert record["cache"]["is_simplex"]["hit_rate"] == 0.8
        assert record["host"]["hostname"]

    def test_run_id_is_a_content_hash(self):
        a, b = _record(), _record()
        assert a["run_id"] == b["run_id"]
        assert _record(wall=0.6)["run_id"] != a["run_id"]

    def test_real_recorded_trace_condenses(self):
        with obs.tracing():
            with obs.span("decide"):
                obs.counter_add("splits", 2.0)
        record = build_run_record(obs.build_trace(), command="decide")
        assert validate_run_record(record) == []
        assert record["counters"]["splits"] == 2.0

    def test_validate_rejects_malformed_records(self):
        good = json.loads(json.dumps(_record()))
        assert validate_run_record(None) != []
        for mutate in (
            lambda r: r.update(schema="repro-run/0"),
            lambda r: r.update(run_id=""),
            lambda r: r.update(command=""),
            lambda r: r.update(argv="decide majority"),
            lambda r: r.update(task=7),
            lambda r: r.update(host="laptop"),
            lambda r: r["spans"]["decide"].update(wall_seconds=-1.0),
            lambda r: r["spans"]["decide"].update(count=0),
            lambda r: r["counters"].update(bad=True),
            lambda r: r["cache"]["is_simplex"].update(hit_rate=0.5),
            lambda r: r["cache"]["is_simplex"].update(hits=-1),
            lambda r: r.update(meta=None),
        ):
            record = json.loads(json.dumps(good))
            mutate(record)
            assert validate_run_record(record) != [], mutate


class TestStore:
    def test_resolve_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_store_path() == DEFAULT_PATH
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "env.jsonl"))
        assert resolve_store_path() == str(tmp_path / "env.jsonl")
        assert resolve_store_path("flag.jsonl") == "flag.jsonl"

    def test_append_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "nested" / "telemetry.jsonl")
        append_run(_record(wall=0.5), path)
        append_run(_record(wall=0.7), path)
        records, problems = load_store(path)
        assert problems == []
        assert [r["spans"]["decide"]["wall_seconds"] for r in records] == [0.5, 0.7]

    def test_append_rejects_invalid_record(self, tmp_path):
        record = _record()
        record["command"] = ""
        with pytest.raises(ValueError, match="invalid run record"):
            append_run(record, str(tmp_path / "t.jsonl"))

    def test_missing_store_is_empty(self, tmp_path):
        assert load_store(str(tmp_path / "absent.jsonl")) == ([], [])

    def test_bad_lines_become_problems_not_crashes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_run(_record(), str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{half-written\n")
            fh.write(json.dumps({"schema": "repro-run/1"}) + "\n")
        records, problems = load_store(str(path))
        assert len(records) == 1
        assert len(problems) == 2
        assert any("not JSON" in p for p in problems)
        assert any("invalid record" in p for p in problems)

    def test_find_run_by_prefix_and_index(self, tmp_path):
        records = [_record(wall=w) for w in (0.1, 0.2, 0.3)]
        first = records[0]
        assert find_run(records, first["run_id"][:6]) is first
        # negative indices can never collide with a hex id prefix
        assert find_run(records, "-3") is first
        assert find_run(records, "-1") is records[-1]
        with pytest.raises(ValueError, match="no run with id prefix"):
            find_run(records, "zzzz")
        with pytest.raises(ValueError, match="out of range"):
            find_run(records, "-99")

    def test_find_run_ambiguous_prefix_is_an_error(self):
        records = [_record(), _record()]  # identical content hash
        with pytest.raises(ValueError, match="ambiguous"):
            find_run(records, records[0]["run_id"][:4])

    def test_latest_run_filters_by_command(self):
        decide = _record(wall=0.2)
        census = _record(wall=0.9, command="census", task=None)
        census["created_unix"] += 100
        assert latest_run([decide, census]) is census
        assert latest_run([decide, census], command="decide") is decide
        assert latest_run([], command="decide") is None


class TestBenchIngest:
    REPORT = {
        "schema": "repro-perf/1",
        "suite": "perf_core",
        "created_unix": 1700000000.0,
        "machine": {"python": "3.11.7", "cpu_count": 4},
        "results": [
            {
                "name": "decide_zoo",
                "best_seconds": 1.25,
                "repeats": 3,
                "counters": {"tasks": 12},
            }
        ],
        "derived": {"cache_speedup": 3.5},
    }

    def test_bench_report_becomes_a_valid_record(self):
        record = bench_run_record(self.REPORT, source="bench-perf-core.json")
        assert validate_run_record(record) == []
        assert record["command"] == "bench perf_core"
        assert record["spans"]["decide_zoo"]["wall_seconds"] == 1.25
        assert record["spans"]["decide_zoo"]["count"] == 3
        assert record["counters"]["decide_zoo.tasks"] == 12.0
        assert record["gauges"]["cache_speedup"] == 3.5
        assert record["meta"]["source"] == "bench-perf-core.json"

    def test_load_record_file_auto_converts_perf_reports(self, tmp_path):
        path = tmp_path / "bench-perf-core.json"
        path.write_text(json.dumps(self.REPORT))
        record = load_record_file(str(path))
        assert record["schema"] == "repro-run/1"
        assert record["command"] == "bench perf_core"

    def test_load_record_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "unrelated/1"}))
        with pytest.raises(ValueError, match="invalid run record"):
            load_record_file(str(path))


class TestDiff:
    def test_self_vs_self_has_zero_regressions(self):
        record = _record()
        deltas = diff_records(record, record)
        assert regressions(deltas) == []
        assert all(d.status == "ok" for d in deltas)

    def test_doubled_span_wall_is_a_regression(self):
        before, after = _record(wall=0.5), _record(wall=1.0)
        bad = regressions(diff_records(before, after))
        assert [d.name for d in bad] == ["decide"]
        assert "+100%" in bad[0].reason

    def test_min_runtime_floor_swallows_micro_span_noise(self):
        # 2ms -> 40ms is a 20x blowup but still under the 50ms floor
        deltas = diff_records(_record(wall=0.002), _record(wall=0.040))
        assert regressions(deltas) == []

    def test_zero_baseline_to_real_work_gates(self):
        deltas = diff_records(_record(wall=0.0), _record(wall=0.5))
        assert [d.name for d in regressions(deltas)] == ["decide"]

    def test_within_tolerance_growth_is_ok(self):
        deltas = diff_records(_record(wall=0.50), _record(wall=0.60))
        assert regressions(deltas) == []

    def test_big_shrink_is_an_improvement_not_a_gate(self):
        deltas = diff_records(_record(wall=1.0), _record(wall=0.5))
        spans = [d for d in deltas if d.kind == "span"]
        assert [d.status for d in spans] == ["improvement"]

    def test_counter_growth_beyond_tolerance_gates(self):
        before, after = _record(), _record()
        after["counters"]["decide.splits"] = 60.0  # 42 -> 60 = +43%
        bad = regressions(diff_records(before, after))
        assert [d.name for d in bad] == ["decide.splits"]

    def test_cache_hit_rate_drop_is_absolute(self):
        before = build_run_record(
            _trace_payload(hits=8, misses=2), command="decide"
        )
        after = build_run_record(
            _trace_payload(hits=5, misses=5), command="decide"
        )
        bad = regressions(diff_records(before, after))
        assert [d.name for d in bad] == ["is_simplex.hit_rate"]
        # and a drop within tolerance passes
        ok = diff_records(
            before,
            build_run_record(_trace_payload(hits=78, misses=22), command="decide"),
        )
        assert regressions(ok) == []

    def test_new_and_gone_metrics_never_gate(self):
        before, after = _record(), _record()
        del before["counters"]["decide.splits"]
        after["spans"]["synthesize"] = {
            "wall_seconds": 9.0,
            "cpu_seconds": 9.0,
            "count": 1,
        }
        deltas = diff_records(before, after)
        assert regressions(deltas) == []
        statuses = {d.name: d.status for d in deltas}
        assert statuses["synthesize"] == "new"
        assert statuses["decide.splits"] == "new"

    def test_gauges_are_informational_only(self):
        before, after = _record(), _record()
        after["gauges"]["census.max_splits"] = 900.0
        assert regressions(diff_records(before, after)) == []

    def test_custom_thresholds_tighten_the_gate(self):
        t = Thresholds(min_seconds=0.0, rel_tolerance=0.05)
        deltas = diff_records(_record(wall=0.50), _record(wall=0.60), t)
        assert len(regressions(deltas)) == 1

    def test_format_diff_renders_verdict(self):
        before, after = _record(wall=0.5), _record(wall=2.0)
        deltas = diff_records(before, after)
        text = format_diff(before, after, deltas)
        assert "REGRESSION" in text
        assert "verdict: 1 regression(s)" in text
        clean = format_diff(before, before, diff_records(before, before))
        assert "— clean" in clean


class TestForwardCompat:
    """Unrecognized metric kinds must be skipped, never raised on or gated.

    A store written by a newer repro (soak histograms, structured
    counters) has to stay diffable/trendable from this version —
    exactly the failure the satellite fix closes: ``obs diff`` used to
    crash on any entry without the expected numeric shape.
    """

    def _foreign(self, record):
        """Graft future-shaped entries onto a valid record."""
        record["spans"]["soak_latency"] = {"buckets": [[0.001, 5]], "count": 5}
        record["counters"]["soak.requests.by_op"] = {"decide": 3, "verify": 1}
        record["gauges"]["soak.passed_flag"] = True  # bools are not numbers
        record["cache"]["future_cache"] = {"hits": 3}  # no hit_rate
        record["histograms"] = [{"name": "soak_latency", "buckets": []}]
        return record

    def test_diff_skips_unrecognized_entries_on_both_sides(self):
        before, after = self._foreign(_record()), self._foreign(_record())
        deltas = diff_records(before, after)
        assert regressions(deltas) == []
        names = {d.name for d in deltas}
        assert "soak_latency" not in names
        assert "soak.requests.by_op" not in names
        assert "soak.passed_flag" not in names
        assert "future_cache.hit_rate" not in names
        # the recognized metrics still diff
        assert "decide" in names and "decide.splits" in names

    def test_one_sided_foreign_entry_is_not_new_or_gone(self):
        # present-but-unreadable must not flap as new/gone across a
        # downgrade-then-upgrade pair of runs
        before, after = _record(), self._foreign(_record())
        deltas = diff_records(before, after)
        assert regressions(deltas) == []
        assert "soak_latency" not in {d.name for d in deltas}

    def test_non_dict_sections_read_as_empty(self):
        before, after = _record(), _record()
        after["spans"] = "opaque blob"
        after["cache"] = None
        deltas = diff_records(before, after)
        # everything in before's spans/cache now reads as "gone" — which
        # never gates — and nothing raises
        assert regressions(deltas) == []

    def test_trend_renders_around_foreign_entries(self):
        records = [_record(wall=0.2), self._foreign(_record(wall=0.4))]
        records[1]["created_unix"] += 60
        text = format_trend(records)
        assert "span decide.wall_seconds:" in text
        assert "soak.passed_flag" not in text
        assert "future_cache" not in text


class TestTrend:
    def test_renders_history_with_bars(self):
        records = [_record(wall=w) for w in (0.2, 0.4)]
        records[1]["created_unix"] += 60
        text = format_trend(records)
        assert "2 run(s):" in text
        assert "span decide.wall_seconds:" in text
        assert "#" in text

    def test_metric_substring_filter(self):
        records = [_record()]
        text = format_trend(records, metric="hit_rate")
        assert "is_simplex.hit_rate" in text
        assert "decide.wall_seconds" not in text
        assert "no metric matches" in format_trend(records, metric="nonesuch")

    def test_command_filter_and_empty_store_message(self):
        decide = _record()
        census = _record(command="census", task=None)
        text = format_trend([decide, census], command="census")
        assert "1 run(s):" in text
        assert "empty" in format_trend([], command="census")
