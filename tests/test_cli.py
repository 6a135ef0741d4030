"""Unit tests for the command-line interface.

Exit codes follow one convention across every subcommand (documented in
the ``python -m repro`` epilog): 0 success / definitive answer, 1 failure
(violations, synthesis failure, check findings, invalid input), 2
inconclusive (UNKNOWN) or usage error.  The failure paths are pinned per
subcommand below; ``tests/check/test_cli_check.py`` covers ``check``'s.
"""

import json
import os

import pytest

from repro.__main__ import ZOO, _print_census, build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "corpus", "golden")


class TestList:
    def test_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hourglass" in out
        assert "pinwheel" in out

    def test_zoo_constructors_all_valid(self):
        for name, make in ZOO.items():
            task = make()
            task.validate()


class TestAnalyze:
    def test_hourglass(self, capsys):
        assert main(["analyze", "hourglass"]) == 0
        out = capsys.readouterr().out
        assert "unsolvable" in out
        assert "corollary" in out

    def test_identity(self, capsys):
        assert main(["analyze", "identity"]) == 0
        assert "solvable" in capsys.readouterr().out

    def test_unknown_task(self):
        with pytest.raises(SystemExit):
            main(["analyze", "martian-task"])

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        main(["analyze", "hourglass", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "unsolvable"
        assert payload["splits"] == 1

    def test_dot_export(self, tmp_path):
        prefix = str(tmp_path / "hg")
        main(["analyze", "hourglass", "--dot", prefix])
        assert (tmp_path / "hg-output.dot").exists()
        assert (tmp_path / "hg-split.dot").exists()

    def test_save_split_roundtrip(self, tmp_path, capsys):
        from repro.io import load_task

        out = tmp_path / "split.json"
        main(["analyze", "pinwheel", "--save-split", str(out)])
        split = load_task(str(out))
        assert len(split.output_complex.connected_components()) == 3

    def test_analyze_json_file(self, tmp_path, capsys):
        from repro.io import save_task
        from repro.tasks.zoo import hourglass_task

        path = tmp_path / "task.json"
        save_task(hourglass_task(), str(path))
        assert main(["analyze", str(path)]) == 0

    def test_unknown_verdict_exits_2(self, capsys):
        assert main(["analyze", "approx-agreement", "--max-rounds", "0"]) == 2

    def test_trace_export_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "trace.json"
        assert main(["analyze", "hourglass", "--trace", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        assert payload["meta"]["command"] == "analyze hourglass"
        names = {s["name"] for s in payload["spans"]}
        assert "decide" in names


class TestDecide:
    def test_unsolvable_task(self, capsys):
        assert main(["decide", "hourglass"]) == 0
        out = capsys.readouterr().out
        assert "unsolvable" in out
        assert "corollary" in out

    def test_solvable_task(self, capsys):
        assert main(["decide", "identity"]) == 0
        out = capsys.readouterr().out
        assert "solvable" in out
        assert "witness map" in out

    def test_unknown_verdict_exits_2(self, capsys):
        assert main(["decide", "approx-agreement", "--max-rounds", "0"]) == 2
        assert "budgets exhausted" in capsys.readouterr().out

    def test_json_export_is_the_service_verdict_schema(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        assert main(["decide", "consensus", "--json", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-verdict/1"
        assert payload["status"] == "unsolvable"
        assert payload["certificate"]["kind"] == "obstruction"

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit, match="unknown task"):
            main(["decide", "martian-task"])

    def test_trace_export_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "trace.json"
        assert main(["decide", "majority", "--trace", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        assert payload["meta"]["command"] == "decide majority"
        assert payload["spans"][0]["name"] == "decide"

    def test_trace_leaves_no_run_record_in_the_cwd(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["decide", "identity", "--trace", "trace.json"]) == 0
        assert (tmp_path / "trace.json").is_file()
        assert not (tmp_path / ".repro").exists()

    def test_profile_memory_without_trace_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decide", "identity", "--profile-memory"])
        assert excinfo.value.code == 2
        assert "--trace FILE" in capsys.readouterr().err


class TestTrace:
    def _write_trace(self, tmp_path, name="trace.json"):
        out = tmp_path / name
        main(["decide", "hourglass", "--trace", str(out)])
        return out

    def test_summary_renders_valid_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "decide" in out and "transform" in out

    def test_validate_accepts_valid_traces(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["trace", "validate", str(path), str(path)]) == 0

    def test_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = "wrong/0"
        path.write_text(json.dumps(payload))
        assert main(["trace", "validate", str(path)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_one_bad_file_fails_the_batch(self, tmp_path, capsys):
        good = self._write_trace(tmp_path, "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trace", "validate", str(good), str(bad)]) == 1

    def test_summary_rejects_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_summary_top_sort_and_min_ms_filters(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "trace",
                    "summary",
                    str(path),
                    "--top",
                    "3",
                    "--sort",
                    "count",
                    "--min-ms",
                    "0.001",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "top spans by name (sorted by count)" in out
        assert "calls" in out

    def test_flame_emits_folded_stacks(self, tmp_path, capsys):
        import re

        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "flame", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        folded = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")
        for line in lines:
            assert folded.match(line), line
        assert any(line.startswith("decide;") for line in lines)

    def test_flame_writes_out_file(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        out = tmp_path / "folded.txt"
        assert (
            main(
                ["trace", "flame", str(path), "--metric", "cpu", "--out", str(out)]
            )
            == 0
        )
        assert out.read_text().strip()

    def test_export_chrome_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        out = tmp_path / "chrome.json"
        assert main(["trace", "export", str(path), "--chrome", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_export_requires_a_format_flag(self, tmp_path):
        path = self._write_trace(tmp_path)
        with pytest.raises(SystemExit, match="--chrome"):
            main(["trace", "export", str(path)])


class TestSynthesize:
    def test_identity(self, capsys):
        assert main(["synthesize", "identity", "--runs", "2", "--facets-only"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out
        assert "all executions legal" in out

    def test_figure7_mode(self, capsys):
        assert main(
            ["synthesize", "identity", "--figure7", "--runs", "2", "--facets-only"]
        ) == 0
        assert "figure-7" in capsys.readouterr().out

    def test_unsolvable_fails(self, capsys):
        assert main(["synthesize", "consensus", "--runs", "1"]) == 1
        assert "synthesis failed" in capsys.readouterr().err

    def test_programming_errors_propagate(self, capsys, monkeypatch):
        # regression: cmd_synthesize used to wrap the whole attempt in a
        # bare `except Exception`, so a TypeError from a bug printed
        # "synthesis failed" and exited 1 — indistinguishable from an
        # unsolvable task.  Only the documented failure modes
        # (SynthesisError, SearchBudgetExceeded, PreflightError) may be
        # reported that way; bugs must crash with their traceback.
        from repro.service import execution as service_execution

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failure mode")

        monkeypatch.setattr(
            service_execution, "synthesize_protocol", broken
        )
        with pytest.raises(TypeError, match="a bug, not a failure mode"):
            main(["synthesize", "identity", "--runs", "1"])

    def test_expected_failure_exits_one_with_message(self, capsys, monkeypatch):
        from repro.runtime import SynthesisError
        from repro.service import execution as service_execution

        def refuses(*args, **kwargs):
            raise SynthesisError("no witness map within budget")

        monkeypatch.setattr(
            service_execution, "synthesize_protocol", refuses
        )
        assert main(["synthesize", "identity", "--runs", "1"]) == 1
        err = capsys.readouterr().err
        assert "synthesis failed: no witness map within budget" in err

    def test_trace_export_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "synthesize",
                    "identity",
                    "--runs",
                    "2",
                    "--facets-only",
                    "--trace",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        assert payload["meta"]["command"] == "synthesize identity"


class TestCensus:
    def test_runs(self, capsys):
        assert main(["census", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "population: 4" in out

    def test_sparse(self, capsys):
        assert main(["census", "--seeds", "3", "--sparse"]) == 0

    def test_zero_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be at least 1"):
            main(["census", "--seeds", "2", "--workers", "0"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be at least 1"):
            main(["census", "--seeds", "2", "--workers", "-4"])

    def test_negative_seeds_rejected(self):
        with pytest.raises(SystemExit, match="--seeds must be non-negative"):
            main(["census", "--seeds", "-5"])

    def test_trace_export_aggregates_workers(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "census-trace.json"
        code = main(
            [
                "census",
                "--seeds",
                "4",
                "--workers",
                "2",
                "--trace",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        assert len(payload["workers"]) == 2  # one snapshot per shard
        assert payload["aggregate"]["counters"]["corpus.tasks"] == 4.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "golden, args",
        [
            ("manifest-single-500.json", ["--seeds", "500"]),
            ("manifest-sparse-300.json", ["--seeds", "300", "--sparse"]),
        ],
    )
    def test_counts_equal_the_goldens_and_leave_no_files(
        self, golden, args, workers, tmp_path, monkeypatch, capsys
    ):
        # census runs a corpus in a throwaway directory: its counts are the
        # committed manifest's, and nothing is left where it ran (not even
        # under the default corpus root, .repro/corpus)
        from repro.analysis.corpus import census_from_manifest, load_manifest

        expected = census_from_manifest(
            load_manifest(os.path.join(GOLDEN_DIR, golden))
        )
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["census", *args, "--workers", workers]) == 0
        out = capsys.readouterr().out
        _print_census(expected)
        assert out == capsys.readouterr().out
        assert list(cwd.iterdir()) == []

    def test_zero_seeds_prints_the_empty_census(self, capsys):
        assert main(["census", "--seeds", "0"]) == 0
        assert "population: 0" in capsys.readouterr().out

    def test_shards_and_resume_still_require_corpus(self):
        with pytest.raises(SystemExit, match="--shards only makes sense"):
            main(["census", "--seeds", "4", "--shards", "2"])
        with pytest.raises(SystemExit, match="--resume only makes sense"):
            main(["census", "--seeds", "4", "--resume"])


CONFORM_FAST = ["--random-runs", "1", "--exhaustive", "4", "--no-adversarial"]


class TestConform:
    def test_solvable_task_passes(self, capsys):
        assert main(["conform", "--tasks", "identity"] + CONFORM_FAST) == 0
        out = capsys.readouterr().out
        assert "solvable" in out
        assert "0 violations" in out

    def test_nothing_to_conform_rejected(self):
        with pytest.raises(SystemExit, match="nothing to conform"):
            main(["conform"])

    def test_zero_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be at least 1"):
            main(["conform", "--tasks", "identity", "--workers", "0"])

    def test_raising_task_is_reported_not_fatal(self, capsys, monkeypatch):
        # regression: an exception inside one task's conformance used to
        # propagate out of pool.map and abort the whole campaign; it must
        # instead surface as a status="error" row and exit code 1.
        import repro.runtime.conformance as conformance

        def _boom(task, config=None, name=None):
            raise RuntimeError("injected task failure")

        monkeypatch.setattr(conformance, "conform_task", _boom)
        code = main(
            ["conform", "--tasks", "identity,constant", "--workers", "1"]
            + CONFORM_FAST
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("error: RuntimeError: injected task failure") == 2
        assert "2 tasks" in out  # both rows survived the failures

    def test_raising_pool_worker_is_reported_not_fatal(self, capsys, monkeypatch):
        # same, through a real multiprocessing pool (fork inherits the patch)
        import repro.runtime.conformance as conformance

        def _boom(task, config=None, name=None):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(conformance, "conform_task", _boom)
        code = main(
            [
                "conform",
                "--tasks",
                "identity,constant",
                "--workers",
                "2",
            ]
            + CONFORM_FAST
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("error: RuntimeError: injected worker failure") == 2

    def test_trace_export_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "conform-trace.json"
        code = main(
            ["conform", "--tasks", "identity", "--trace", str(out)]
            + CONFORM_FAST
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        names = [s["name"] for s in payload["spans"]]
        assert "conform.task" in names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_epilog_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
