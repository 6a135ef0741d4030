"""The CI benchmark gate: synthetic perfbench result lines, parent vs change.

``benchmarks/perfbench_gate.py`` compares medians of the end-to-end metrics
against the ``BENCHMARK.json`` bounds; these tests feed it result lines
shaped like the last line ``perfbench/run.py --trace 0`` prints.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_gate", os.path.join(ROOT, "benchmarks", "perfbench_gate.py")
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
BASE = {
    "setup_s": 0.5,
    "throughput_per_s": 100.0,
    "latency_p50_ms": 2.0,
    "latency_tail_ms": 10.0,
    "peak_rss_mb": 60.0,
}


def result(correct=True, attempted=1000, failed=0, **scale):
    """One result line; ``scale`` multiplies named metrics of ``BASE``."""
    metrics = {
        name: {"value": value * scale.get(name, 1.0), "unit": "x"}
        for name, value in BASE.items()
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def runs(*lines):
    """The same runs for every workload."""
    return {w: list(lines) for w in WORKLOADS}


def verdict(change, parent=None):
    return gate.compare(DECLARED, parent or runs(result(), result(), result()), change)


def bound(name):
    return next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == name)


def test_identical_runs_pass():
    ok, lines = verdict(runs(result(), result(), result()))
    assert ok
    assert len(lines) == len(WORKLOADS) * len(BASE)
    assert all(line.startswith("ok") for line in lines)


def test_lower_is_better_regression_past_the_bound_fails():
    slower = 1.0 + bound("latency_p50_ms") + 0.05
    ok, lines = verdict(runs(*[result(latency_p50_ms=slower)] * 3))
    assert not ok
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == len(WORKLOADS)
    assert all("latency_p50_ms" in line for line in failing)


def test_higher_is_better_regression_past_the_bound_fails():
    fewer = 1.0 - bound("throughput_per_s") - 0.05
    ok, lines = verdict(runs(*[result(throughput_per_s=fewer)] * 3))
    assert not ok
    assert all("throughput_per_s" in line for line in lines if line.startswith("FAIL"))


def test_improvement_passes():
    better = {"setup_s": 0.5, "throughput_per_s": 2.0, "latency_p50_ms": 0.5,
              "latency_tail_ms": 0.5, "peak_rss_mb": 0.5}
    ok, _ = verdict(runs(*[result(**better)] * 3))
    assert ok


def test_change_within_the_bound_passes():
    within = {m["name"]: 1.0 + (m["bound"] / 2 if m["better"] == "lower" else -m["bound"] / 2)
              for m in DECLARED["end_to_end"]}
    ok, _ = verdict(runs(*[result(**within)] * 3))
    assert ok


def test_the_median_decides_not_one_outlier():
    outlier = result(latency_tail_ms=3.0, throughput_per_s=0.3)
    ok, _ = verdict(runs(result(), outlier, result()))
    assert ok


@pytest.mark.parametrize("side", ["parent", "change"])
def test_an_incorrect_run_fails(side):
    mixed = runs(result(), result(correct=False), result())
    clean = runs(result(), result(), result())
    ok, lines = verdict(mixed, clean) if side == "change" else verdict(clean, mixed)
    assert not ok
    assert any("not correct" in line and side in line for line in lines)


def test_a_larger_failed_share_fails():
    # correct is forced true to show the share check stands on its own
    ok, lines = verdict(runs(result(failed=5), result(), result()))
    assert not ok
    assert any("failed share" in line for line in lines)


def test_missing_runs_fail():
    ok, lines = verdict({WORKLOADS[0]: [result()]})
    assert not ok
    assert any("0 of 0 change runs" in line for line in lines)


def test_main_reads_directories_and_unreadable_lines(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        for w in WORKLOADS:
            lines = [json.dumps(result())] * 3
            (tmp_path / side / f"{w}.jsonl").write_text("\n".join(lines) + "\n")
    dirs = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert gate.main(dirs) == 0
    assert "perfbench gate: PASS (cpu_count" in capsys.readouterr().out

    with open(tmp_path / "change" / f"{WORKLOADS[-1]}.jsonl", "a", encoding="utf-8") as fh:
        fh.write("crashed\n")  # what the CI loop writes for a run with no output
    assert gate.main(dirs) == 1
    assert "perfbench gate: FAIL" in capsys.readouterr().out


def diag(percentile=99.0, samples=1998, raw=650.0):
    """One diagnostics line, shaped like the one before the result line."""
    return {"tail_percentile": percentile, "tail_samples": samples, "tail_beyond": 19,
            "raw": {"throughput_per_s": raw}, "workload": "x"}


def test_diagnostics_annotate_the_tail_line_without_changing_verdicts():
    diags = {"parent": runs(diag(), diag(90.0, 900, 40.0), diag()),
             "change": runs(diag(samples=2100, raw=700.0))}
    slower = 1.0 + bound("latency_tail_ms") + 0.05
    for change, expect in ((runs(result()), True), (runs(result(latency_tail_ms=slower)), False)):
        bare = gate.compare(DECLARED, runs(result()), change)
        ok, lines = gate.compare(DECLARED, runs(result()), change, diags)
        assert ok is bare[0] is expect
        assert len(lines) == len(bare[1])
        tails = [line for line in lines if "latency_tail_ms" in line]
        assert len(tails) == len(WORKLOADS)
        for line in tails:
            assert "[parent: p90 x1, p99 x2; 1998 samples; raw 650/s]" in line
            assert "[change: p99 x1; 2100 samples; raw 700/s]" in line
        others = [line for line in lines if "latency_tail_ms" not in line]
        assert others == [line for line in bare[1] if "latency_tail_ms" not in line]


def test_main_reads_diagnostics_files(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        for w in WORKLOADS:
            (tmp_path / side / f"{w}.jsonl").write_text(json.dumps(result()) + "\n")
    (tmp_path / "change" / f"{WORKLOADS[0]}.diag.jsonl").write_text(
        json.dumps(diag()) + "\ncrashed\n"
    )
    assert gate.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    out = capsys.readouterr().out
    assert f"{WORKLOADS[0]} latency_tail_ms" in out
    assert "[parent: no diagnostics] [change: p99 x1; 1998 samples; raw 650/s]" in out
