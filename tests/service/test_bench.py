"""The service bench: report schema, gates, replay files."""

from __future__ import annotations

import json

import pytest

from repro.perf import validate_report
from repro.service.bench import (
    check_gates,
    format_summary,
    load_replay_file,
    run_service_bench,
)
from repro.service.server import ServerConfig


@pytest.fixture(scope="module")
def bench_result(tmp_path_factory):
    """One small but real bench run shared by the assertions below.

    Module-scoped, so the env isolation has to be manual: the autouse
    function-scoped tower-store fixture has not run yet when this one
    is instantiated.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "REPRO_TOWER_CACHE", str(tmp_path_factory.mktemp("towers"))
        )
        return run_service_bench(
            requests=30,
            concurrency=2,
            pool_size=2,
            seed=0,
            passes=2,
            server_config=ServerConfig(persist=False, shards=1),
        )


class TestBenchRun:
    def test_report_is_valid_repro_perf(self, bench_result):
        assert validate_report(bench_result["report"]) == []

    def test_two_passes_measured(self, bench_result):
        names = [m["name"] for m in bench_result["report"]["results"]]
        assert "pass_0_cold" in names
        assert "pass_1_steady" in names
        assert "uncached_decide" in names
        assert "cached_hit" in names

    def test_steady_state_is_all_hits(self, bench_result):
        derived = bench_result["report"]["derived"]
        assert derived["steady_hit_rate"] == 1.0
        assert derived["workload_duplication"] >= 10.0
        assert derived["speedup:cached_hit/uncached_decide"] > 1.0

    def test_summary_mentions_the_headline_numbers(self, bench_result):
        text = format_summary(bench_result)
        assert "hit rate" in text
        assert "duplication" in text

    def test_gates(self, bench_result):
        assert check_gates(bench_result, min_hit_rate=0.9) == []
        assert check_gates(bench_result, min_hit_rate=1.1) != []
        assert check_gates(bench_result, max_p99_ms=0.0) != []

    def test_harness_report_writes(self, bench_result, tmp_path):
        out = tmp_path / "bench-service.json"
        bench_result["harness"].write(str(out))
        assert validate_report(json.loads(out.read_text())) == []


class TestReplayFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        stream = [{"op": "decide", "task": "fork"}] * 3
        path.write_text(
            "\n".join(json.dumps(r) for r in stream) + "\n", encoding="utf-8"
        )
        assert load_replay_file(str(path)) == stream

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"op": "decide"}\n\n\n', encoding="utf-8")
        assert len(load_replay_file(str(path))) == 1

    def test_malformed_lines_raise_with_location(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"op": "decide"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_replay_file(str(path))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no requests"):
            load_replay_file(str(path))
