"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the root of the repository::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import stats  # noqa: E402
import tracing  # noqa: E402


# -- tail percentile --------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (20_000, 99.0, 200),
        (1_000, 99.0, 10),
        (999, 90.0, 99),
        (100, 90.0, 10),
        (99, 50.0, 49),
        (20, 50.0, 10),
        (19, 100.0, 0),
    ],
)
def test_tail_is_highest_rung_with_ten_beyond(n, pct, beyond):
    got_pct, value, got_beyond = stats.tail([float(i) for i in range(n)])
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == float(n - 1 - beyond)


def test_tail_lands_in_miss_class_when_misses_exceed_the_rung():
    # 5% slow misses: every rung above p95 with ten samples beyond is a miss
    values = [0.5 + i * 1e-4 for i in range(1_900)] + [10.0 + i for i in range(100)]
    labels = ["hit"] * 1_900 + ["miss"] * 100
    assert stats.tail(values)[0] == 99.0
    assert stats.tail_class(values, labels) == "miss"


def test_tail_lands_in_hit_class_when_misses_are_too_few():
    values = [0.5 + i * 1e-4 for i in range(990)] + [10.0 + i for i in range(10)]
    labels = ["hit"] * 990 + ["miss"] * 10
    assert stats.tail(values)[0] == 99.0
    assert stats.tail_class(values, labels) == "hit"


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children_at_every_level():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("b", 2.0, 3.0, parent=1),
        tracing.Span("c", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == {"op": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("a", 2.0, 6.0, parent=0),
        tracing.Span("a", 4.0, 8.0, parent=0),
        tracing.Span("b", 9.0, 12.0, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["op"] == pytest.approx(3.0)
    assert selfs["a"] == pytest.approx(8.0)


def test_total_time_counts_recursive_calls_once():
    spans = [
        tracing.Span("level", 0.0, 5.0),
        tracing.Span("level", 1.0, 3.0, parent=0),
        tracing.Span("level", 6.0, 7.0),
    ]
    assert tracing.total_times(spans) == {"level": 6.0}


def test_tracer_records_parents_and_groups_by_root():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    for pass_name in ("cold", "warm"):
        root = tracer.open(tracing.ROOT, **{"pass": pass_name})
        assert outer(1) == 4
        tracer.close(root)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("op", None), ("outer", 0), ("inner", 1), ("op", None), ("outer", 3), ("inner", 4),
    ]
    grouped = tracing.self_times_by(tracer, "pass")
    assert set(grouped) == {"cold", "warm"}
    assert set(grouped["cold"]) == {"op", "outer", "inner"}


# -- wrappers -----------------------------------------------------------------


def _bindings():
    from repro.analysis import census, corpus
    from repro.service import execution, protocol
    from repro.solvability import decision
    from repro.topology import diskstore, subdivision

    return {
        "zoo": dict(execution.ZOO),
        "generators": dict(corpus.GENERATORS),
        "checks": decision.OBSTRUCTION_CHECKS,
        "level": vars(subdivision.SubdivisionTower)["level"],
        "attrs": [
            (module, name, getattr(module, name))
            for module, name in [
                (protocol, "task_from_json"),
                (decision, "link_connected_form"),
                (decision, "find_map"),
                (decision, "verify_map"),
                (diskstore, "load"),
                (diskstore, "store"),
                (execution, "request_key"),
                (execution, "verdict_to_json"),
                (corpus, "canon_hash"),
                (corpus, "run_shard"),
                (census, "decide_solvability"),
            ]
        ],
    }


def test_wrappers_trace_a_decide_and_restore_every_original(tmp_path):
    from repro.service.execution import execute_request
    from repro.service.protocol import ServiceRequest
    from repro.topology import diskstore, subdivision

    before = _bindings()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert vars(subdivision.SubdivisionTower)["level"] is not before["level"]
        with diskstore.store_at(str(tmp_path)):
            root = tracer.open(tracing.ROOT)
            response = execute_request(ServiceRequest(op="decide", task="pinwheel")).response
            tracer.close(root)
    finally:
        patches.restore()
    after = _bindings()
    assert response["verdict"]["splits"] == 9
    names = {s.name for s in tracer.spans}
    assert {"tasks.build", "splitting.transform", "solvability.obstructions", "topology.diskstore_store"} <= names
    assert tracer.counts["splits"] == 9
    assert all(after["zoo"][k] is v for k, v in before["zoo"].items())
    assert all(after["generators"][k] is v for k, v in before["generators"].items())
    assert after["checks"] is before["checks"]
    assert after["level"] is before["level"]
    for (module, name, original), (_m, _n, now) in zip(before["attrs"], after["attrs"]):
        assert now is original, f"{module.__name__}.{name} not restored"


def test_wrappers_restore_after_an_exception():
    from repro.service import execution

    original = execution.request_key
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with pytest.raises(ZeroDivisionError):
            tracer.wrap("boom", lambda: 1 / 0)()
    finally:
        patches.restore()
    assert execution.request_key is original
    assert tracer.spans[-1].end >= tracer.spans[-1].start


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_span_folding_names_declared_per_layer_metrics():
    metrics = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert set(metrics) <= set(_declared("per_layer"))


# -- smoke runs -----------------------------------------------------------------


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("decide-zoo", 0),
        ("decide-zoo", 1),
        ("corpus-census", 0),
        ("corpus-census", 1),
        ("service-zipf", 0),
        ("service-zipf", 1),
    ],
)
def test_smoke_run_passes_the_correctness_gate(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    else:
        # every layer the workload enters reports a number; a misspelt
        # metric name would read 0 here
        entered = {
            "decide-zoo": ["tasks.build_ms", "splitting.transform_ms", "splitting.splits",
                           "solvability.homological_ms", "topology.diskstore_load_ms",
                           "topology.diskstore_hit_share", "service.protocol_ms", "unattributed_share"],
            "corpus-census": ["tasks.generate_ms", "tasks.canon_hash_ms", "analysis.decide_ms",
                              "analysis.shard_io_ms", "analysis.dedup_share", "splitting.transform_ms",
                              "topology.diskstore_store_ms", "unattributed_share"],
            "service-zipf": ["service.cache_hit_share", "service.keymap_entries", "service.server_hit_ms",
                             "service.transport_ms", "service.miss_ms", "service.batch_size_mean",
                             "service.server_cpu_ms_per_req", "unattributed_share"],
        }[workload]
        assert all(values[name] > 0 for name in entered), values


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _run("decide-zoo", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
