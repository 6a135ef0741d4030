"""The growth-gated soak harness, its report schema, and CLI exit codes.

One short in-process soak per scenario (seconds, not the 20s default)
exercises the full pipeline: load workers, periodic ``/metrics``
scrapes, slope fitting over the server's resource ring and budget
gating.  The acceptance pair — exit 0 under budget, exit 1 over — runs
through the real CLI.
"""

import json

import pytest

from repro.service.server import ServerConfig
from repro.service.soak import (
    SoakBudgets,
    format_soak_summary,
    run_soak,
    validate_soak_report,
)

#: fast in-process server for soak tests: no disk, no worker pool hop
FAST = dict(
    server_config=ServerConfig(
        pool="inline", shards=1, sample_interval=0.2
    ),
    duration=2.5,
    concurrency=2,
    requests=40,
    pool_size=3,
    scrape_interval=0.5,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One shared soak run; scenarios re-gate its slopes offline."""
    scrapes = tmp_path_factory.mktemp("soak") / "scrapes.jsonl"
    return run_soak(scrapes_path=str(scrapes), **FAST), scrapes


class TestRunSoak:
    def test_report_is_valid_and_passed_without_budgets(self, report):
        doc, _ = report
        assert validate_soak_report(doc) == []
        assert doc["passed"] is True and doc["over_budget"] == []
        assert doc["requests"] > 0 and doc["errors"] == 0
        assert doc["hit_rate"] > 0.5  # 3 distinct specs, duplicate-heavy
        assert doc["latency"]["count"] == doc["requests"]

    def test_scrapes_happened_and_were_persisted(self, report):
        doc, scrapes = report
        assert doc["scrapes"] >= 1 and doc["scrape_failures"] == 0
        lines = scrapes.read_text().strip().splitlines()
        assert len(lines) == doc["scrapes"]
        assert json.loads(lines[0])["schema"] == "repro-metrics/1"

    def test_slopes_cover_the_gated_series(self, report):
        doc, _ = report
        for series in ("rss_bytes", "keymap_entries", "cache_memory_entries"):
            assert series in doc["slopes"]
        assert doc["resources"]["samples"]  # the ring made it out

    def test_negative_budget_always_trips(self, report):
        # keymap entries never shrink, so the slope is >= 0 and a
        # negative ceiling must gate — the exit-1 canary trick
        doc, _ = report
        budgets = SoakBudgets(keymap_entries_per_s=-1.0)
        problems = budgets.violations(doc["slopes"])
        assert len(problems) == 1
        assert "keymap_entries_per_s" in problems[0]

    def test_generous_budgets_pass(self, report):
        doc, _ = report
        budgets = SoakBudgets(
            rss_bytes_per_s=1 << 30,
            keymap_entries_per_s=1e6,
            cache_entries_per_s=1e6,
        )
        assert budgets.violations(doc["slopes"]) == []

    def test_missing_series_is_a_violation_not_a_pass(self):
        budgets = SoakBudgets(rss_bytes_per_s=100.0)
        problems = budgets.violations({})
        assert problems and "no 'rss_bytes' series" in problems[0]

    def test_summary_renders_the_verdict(self, report):
        doc, _ = report
        text = format_soak_summary(doc)
        assert "growth within budget" in text
        assert "rss_bytes" in text

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_soak(duration=0.0)
        with pytest.raises(ValueError):
            run_soak(duration=1.0, scrape_interval=0.0)


class TestValidateSoakReport:
    def test_rejects_non_object_and_wrong_schema(self):
        assert validate_soak_report([]) != []
        assert any(
            "schema" in p for p in validate_soak_report({"schema": "x"})
        )

    def test_rejects_passed_over_budget_disagreement(self, report):
        doc, _ = report
        bad = dict(doc, passed=False)
        assert any("agree" in p for p in validate_soak_report(bad))


class TestCliExitCodes:
    _BASE = [
        "serve-soak",
        "--duration", "2",
        "--concurrency", "2",
        "--requests", "40",
        "--pool-size", "3",
        "--scrape-interval", "0.5",
        "--sample-interval", "0.2",
        "--pool", "inline",
        "--shards", "1",
    ]

    def test_under_budget_exits_zero_and_writes_the_report(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        out = tmp_path / "soak.json"
        code = main(
            self._BASE
            + [
                "--max-rss-growth", str(1 << 30),
                "--max-keymap-growth", "1e6",
                "--max-cache-growth", "1e6",
                "--out", str(out),
            ]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "growth within budget" in stdout
        assert validate_soak_report(json.loads(out.read_text())) == []

    def test_over_budget_exits_one_with_a_gate_line(self, capsys):
        from repro.__main__ import main

        code = main(self._BASE + ["--max-keymap-growth", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "OVER BUDGET" in captured.out
        assert "GATE: keymap_entries_per_s" in captured.err
