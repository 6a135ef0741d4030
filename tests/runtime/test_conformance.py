"""Tests for the conformance campaign engine."""

import json

import pytest

from repro.__main__ import main
from repro.runtime.conformance import (
    SCHEMA,
    ConformanceConfig,
    ConformanceReport,
    census_slice,
    conform_protocol,
    conform_task,
    replay_violation,
    resolve_campaign_task,
    run_campaign,
    shrink_schedule,
)
from repro.runtime.scheduler import run_with_schedule
from repro.runtime.simulation import check_trace, participation_simplices
from repro.tasks.zoo import majority_consensus_task, path_task

#: small budgets so the engine is exercised end to end in milliseconds
FAST = ConformanceConfig(random_runs=3, exhaustive_limit=15, shrink_budget=60)


def own_vertex_builder(task):
    """The correct identity protocol: decide your own input vertex."""

    def build(inputs):
        factories = {}
        for x in inputs.vertices:
            def make(xv):
                def factory(pid):
                    def body():
                        yield ("write", "R", xv.value)
                        yield ("decide", xv)

                    return body()

                return factory

            factories[x.color] = make(x)
        return factories

    return build


def concurrency_sensitive_builder(task):
    """Broken on purpose: decide an own-colored vertex of the *wrong* value
    whenever another process's write is visible.  Solo-first executions are
    legal, concurrent ones violate Δ — so violations depend on genuine
    schedule structure and shrinking has work to do."""
    from repro.topology.simplex import Vertex

    def build(inputs):
        factories = {}
        n = max(inputs.colors()) + 1
        for x in inputs.vertices:
            def make(xv):
                def factory(pid):
                    def body():
                        yield ("write", "R", xv.value)
                        seen_other = False
                        for j in range(n):
                            value = yield ("read", "R", j)
                            if j != pid and value is not None:
                                seen_other = True
                        if seen_other:
                            yield ("decide", Vertex(xv.color, 1 - xv.value))
                        else:
                            yield ("decide", xv)

                    return body()

                return factory

            factories[x.color] = make(x)
        return factories

    return build


class TestConformProtocol:
    def test_correct_protocol_is_clean(self, identity3):
        result = conform_protocol(
            identity3, own_vertex_builder(identity3), FAST, name="identity"
        )
        assert result.ok
        assert result.total_runs > 0
        # every schedule family ran
        for phase in ("solo", "random", "adversarial", "exhaustive"):
            assert result.runs[phase] > 0, phase
        assert result.total_steps > 0
        assert sum(result.step_histogram.values()) == result.total_runs

    def test_broken_protocol_yields_shrunk_replayable_violation(self, identity3):
        build = concurrency_sensitive_builder(identity3)
        result = conform_protocol(identity3, build, FAST, name="broken")
        assert not result.ok
        assert result.violations
        for v in result.violations[:5]:
            assert v.reason
            assert len(v.schedule) <= v.original_length
            # the shrunk schedule still reproduces a violation
            assert replay_violation(identity3, build, v, FAST) is not None

    def test_shrinking_actually_shrinks(self, identity3):
        build = concurrency_sensitive_builder(identity3)
        result = conform_protocol(identity3, build, FAST, name="broken")
        shrunk = [v for v in result.violations if v.shrink_attempts > 0]
        assert shrunk
        assert any(len(v.schedule) < v.original_length for v in shrunk)

    def test_shrink_disabled_keeps_full_schedule(self, identity3):
        config = ConformanceConfig(
            random_runs=1, exhaustive_limit=0, adversarial=False, shrink=False
        )
        result = conform_protocol(
            identity3, concurrency_sensitive_builder(identity3), config
        )
        assert result.violations
        assert all(
            len(v.schedule) == v.original_length and v.shrink_attempts == 0
            for v in result.violations
        )


class TestShrinkSchedule:
    def test_minimizes_to_the_failing_core(self):
        # "violates" whenever at least two 1-steps appear
        violates = lambda s: list(s).count(1) >= 2
        shrunk, attempts = shrink_schedule(violates, [0, 1, 0, 0, 1, 1, 0, 2])
        assert list(shrunk) == [1, 1]
        assert attempts > 0

    def test_respects_budget(self):
        calls = []
        full = list(range(64))

        def violates(s):
            # only the untouched schedule violates: no removal ever succeeds,
            # so shrinking would try every chunk size without the budget cap
            calls.append(1)
            return list(s) == full

        shrunk, attempts = shrink_schedule(violates, full, budget=5)
        assert len(calls) == 5
        assert attempts == 5
        assert list(shrunk) == full

    def test_empty_schedule_if_roundrobin_tail_violates(self):
        shrunk, _ = shrink_schedule(lambda s: True, [0, 1, 2, 0, 1, 2])
        assert shrunk == ()


class TestConformTask:
    def test_direct_mode_task(self):
        result = conform_task(path_task(3), FAST, name="path")
        assert result.ok
        assert result.status == "solvable"
        assert result.mode == "direct"
        assert result.fallback_reason is None

    def test_figure7_mode_task(self, identity3):
        config = ConformanceConfig(
            participation="facets",
            random_runs=2,
            exhaustive_limit=10,
            prefer_direct=False,
        )
        result = conform_task(identity3, config, name="identity")
        assert result.ok
        assert result.mode == "figure-7"
        assert "direct mode disabled" in result.fallback_reason

    def test_unsolvable_task_is_skipped(self):
        result = conform_task(majority_consensus_task(), FAST, name="majority")
        assert result.status == "unsolvable"
        assert result.total_runs == 0
        assert result.ok


class TestCampaign:
    def test_report_shape_and_json(self, tmp_path):
        report = run_campaign(["path", "majority"], FAST, workers=1)
        assert isinstance(report, ConformanceReport)
        assert [t.name for t in report.tasks] == ["path", "majority"]
        assert report.ok
        payload = report.write(str(tmp_path / "conf.json"))
        assert payload["schema"] == SCHEMA
        with open(tmp_path / "conf.json", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["total_runs"] == report.total_runs
        assert loaded["tasks"][0]["runs"]["solo"] > 0

    def test_parallel_matches_serial(self):
        names = ["path", "figure3", "majority"]
        serial = run_campaign(names, FAST, workers=1)
        parallel = run_campaign(names, FAST, workers=2)

        def strip_seconds(payload):
            if isinstance(payload, dict):
                return {
                    k: strip_seconds(v)
                    for k, v in payload.items()
                    if k != "seconds"
                }
            if isinstance(payload, list):
                return [strip_seconds(v) for v in payload]
            return payload

        assert strip_seconds(serial.as_dict()) == strip_seconds(parallel.as_dict())

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(["path"], FAST, workers=0)

    def test_unknown_task_becomes_error_record(self):
        report = run_campaign(["no-such-task"], FAST, workers=1)
        assert not report.ok
        assert report.tasks[0].status == "error"
        assert "unknown campaign task" in report.tasks[0].error

    def test_census_slice_names_resolve(self):
        names = census_slice([0, 3])
        assert names == ["census-0", "census-3"]
        task = resolve_campaign_task("census-0")
        assert task.n_processes == 3
        with pytest.raises(ValueError):
            resolve_campaign_task("census-xyz")


class TestViolationRecordReplay:
    def test_record_replays_from_report_data_alone(self, identity3):
        """A shrunk record carries everything needed to replay: the input
        index (participation order) and the explicit schedule prefix."""
        build = concurrency_sensitive_builder(identity3)
        result = conform_protocol(identity3, build, FAST, name="broken")
        v = result.violations[0]
        inputs = participation_simplices(identity3, FAST.participation)[
            v.input_index
        ]
        n = max(inputs.colors()) + 1
        trace = run_with_schedule(n, build(inputs), v.schedule)
        assert check_trace(identity3, inputs, trace) is not None


class TestConformCLI:
    def test_cli_clean_run(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            [
                "conform",
                "--tasks",
                "path,figure3",
                "--random-runs",
                "2",
                "--exhaustive",
                "10",
                "--workers",
                "1",
                "--json",
                out,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "0 violations" in printed
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["ok"] is True

    def test_cli_requires_a_selection(self):
        with pytest.raises(SystemExit):
            main(["conform"])

    def test_cli_census_slice(self, capsys):
        code = main(
            [
                "conform",
                "--census",
                "2",
                "--random-runs",
                "1",
                "--exhaustive",
                "5",
                "--participation",
                "facets",
                "--workers",
                "1",
            ]
        )
        assert code == 0
        assert "census-1" in capsys.readouterr().out
