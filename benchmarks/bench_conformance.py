"""Conformance experiment: schedule enumeration and campaign throughput.

Two workload families, each run both ways with result parity asserted:

* **explore** — exhaustive schedule enumeration of executable protocols
  (a deep synthetic protocol and a synthesized Figure 7 protocol) through
  the prefix-tree enumerator (``explore_schedules``, forks ``Execution``
  state incrementally) vs the old replay-from-scratch DFS kept as the
  trace-order reference in ``tests/runtime/replay_explorer.py``;
* **campaign** — a zoo slice through :func:`repro.runtime.run_campaign`
  serially vs over a worker pool.

Results go through :class:`repro.perf.PerfHarness` into
``benchmarks/BENCH_conformance.json`` (schema ``repro-perf/1``).
``--benchmark-smoke`` shrinks every budget so tier 2 can exercise the
harness and validate the emitted schema in seconds:

    pytest benchmarks -m perf --benchmark-smoke
"""

from __future__ import annotations

import os

import pytest

from repro.perf import PerfHarness, validate_report
from repro.runtime.conformance import ConformanceConfig, run_campaign
from repro.runtime.scheduler import explore_schedules
from repro.runtime.synthesis import synthesize_protocol
from repro.tasks.zoo import identity_task
from tests.runtime.replay_explorer import explore_schedules_replay

pytestmark = pytest.mark.perf

JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_conformance.json")

_HARNESS = PerfHarness("conformance")


def deep_factories(n: int, depth: int):
    """``n`` processes that scan ``depth`` times before deciding — a deep
    schedule tree where the replay DFS pays the full prefix at every node."""

    def make_factory(pid):
        def body():
            yield ("update", "S", pid)
            views = []
            for _ in range(depth):
                views.append((yield ("scan", "S")))
            yield ("decide", tuple(views[-1]))

        return body()

    return {pid: make_factory for pid in range(n)}


def _drain(enumerate_fn, n, factories, limit):
    traces = list(enumerate_fn(n, factories, max_executions=limit))
    return [(tuple(t.schedule), t.decisions) for t in traces]


def _bench_enumeration(report, label, n, factories, limit, meta):
    replay, m_replay = _HARNESS.measure(
        f"explore:{label}:replay",
        _drain,
        explore_schedules_replay,
        n,
        factories,
        limit,
        meta=dict(meta, enumerator="replay"),
    )
    prefix, m_prefix = _HARNESS.measure(
        f"explore:{label}:prefix-tree",
        _drain,
        explore_schedules,
        n,
        factories,
        limit,
        meta=dict(meta, enumerator="prefix-tree"),
    )

    # the enumerators must agree trace for trace, in order
    assert prefix == replay
    m_prefix.counters["executions"] = float(len(prefix))
    m_replay.counters["executions"] = float(len(replay))

    ratio = _HARNESS.speedup(
        f"explore:{label}:replay", f"explore:{label}:prefix-tree"
    )
    report.row(
        workload=f"explore:{label}",
        executions=len(prefix),
        replay_s=round(m_replay.best, 4),
        prefix_tree_s=round(m_prefix.best, 4),
        speedup=f"{ratio:.2f}x",
    )
    return ratio


def test_explore_deep_synthetic(report, smoke):
    depth = 4 if smoke else 10
    limit = 60 if smoke else 600
    ratio = _bench_enumeration(
        report,
        f"deep-d{depth}",
        3,
        deep_factories(3, depth),
        limit,
        {"depth": depth, "limit": limit, "smoke": smoke},
    )
    if not smoke:
        # the headline claim: forking beats replaying shared prefixes
        assert ratio > 1.0


def test_explore_figure7_protocol(report, smoke):
    task = identity_task(3)
    protocol = synthesize_protocol(task, prefer_direct=False)
    sigma = task.input_complex.facets[0]
    limit = 20 if smoke else 200
    _bench_enumeration(
        report,
        "identity-fig7",
        3,
        protocol.factories(sigma),
        limit,
        {"mode": protocol.mode, "limit": limit, "smoke": smoke},
    )


def test_campaign_serial_vs_parallel(report, smoke):
    names = ["path", "figure3"] if smoke else [
        "identity", "constant", "path", "figure3", "3-set-agreement",
        "approx-agreement", "fork", "fan", "majority", "consensus",
    ]
    config = (
        ConformanceConfig(random_runs=2, exhaustive_limit=10, max_rounds=1)
        if smoke
        else ConformanceConfig()
    )
    workers = 2 if smoke else 4

    serial, m_serial = _HARNESS.measure(
        f"campaign:{len(names)}:serial",
        run_campaign,
        names,
        config,
        workers=1,
        meta={"tasks": len(names), "workers": 1, "smoke": smoke},
    )
    parallel, m_par = _HARNESS.measure(
        f"campaign:{len(names)}:parallel",
        run_campaign,
        names,
        config,
        workers=workers,
        meta={"tasks": len(names), "workers": workers, "smoke": smoke},
    )

    # scheduling must be invisible to the verdicts and run counts
    assert serial.ok and parallel.ok
    assert [t.as_dict() | {"seconds": None} for t in serial.tasks] == [
        t.as_dict() | {"seconds": None} for t in parallel.tasks
    ]
    m_serial.counters["runs"] = float(serial.total_runs)
    m_par.counters["runs"] = float(parallel.total_runs)

    ratio = _HARNESS.speedup(
        f"campaign:{len(names)}:serial", f"campaign:{len(names)}:parallel"
    )
    report.row(
        workload=f"campaign:{len(names)}",
        runs=serial.total_runs,
        serial_s=round(m_serial.best, 4),
        parallel_s=round(m_par.best, 4),
        workers=workers,
        speedup=f"{ratio:.2f}x",
    )


def test_emit_json_report(report, smoke, tmp_path):
    """Write + validate the JSON report (runs after the workloads).

    Smoke runs exercise the full emission path but write to a scratch file
    so they never clobber the committed full-size ``BENCH_conformance.json``.
    """
    assert _HARNESS.measurements, "workload benches must run before emission"
    path = str(tmp_path / "BENCH_conformance.smoke.json") if smoke else JSON_PATH
    payload = _HARNESS.write(path)
    assert validate_report(payload) == []
    report.row(
        workload="emit",
        results=len(payload["results"]),
        json=os.path.basename(path),
        smoke=smoke,
    )
