"""The ``repro-perf/1`` report: measurement bookkeeping and the JSON schema.

``serve-bench --out`` writes these reports and ``obs ingest`` reads old
ones unchanged, so the format is pinned here.
"""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    SCHEMA,
    Measurement,
    PerfHarness,
    machine_info,
    validate_report,
)


def _tiny_harness() -> PerfHarness:
    h = PerfHarness("unit")
    h.measurements.append(Measurement("warm", [0.3, 0.1, 0.2], meta={"kind": "demo"}))
    h.measurements.append(Measurement("cold", [1.5], counters={"items": 1000.0}))
    return h


def test_measurement_summary_fields():
    m = Measurement("sum", [0.3, 0.1, 0.2])
    assert m.repeats == 3
    assert m.best == 0.1
    assert m.mean == pytest.approx(0.2)
    entry = m.as_dict()
    assert entry["best_seconds"] == 0.1 and entry["repeats"] == 3
    assert entry["counters"] == {} and entry["meta"] == {}


def test_report_passes_schema_and_roundtrips(tmp_path):
    h = _tiny_harness()
    payload = h.write(str(tmp_path / "out.json"))
    assert validate_report(payload) == []
    assert payload["schema"] == SCHEMA
    on_disk = json.loads((tmp_path / "out.json").read_text())
    assert validate_report(on_disk) == []
    assert [r["name"] for r in on_disk["results"]] == ["warm", "cold"]
    assert on_disk["results"][1]["counters"] == {"items": 1000.0}


def test_validate_report_catches_malformed_payloads():
    assert validate_report(None) != []
    assert validate_report({}) != []
    good = _tiny_harness().to_report()
    assert validate_report(good) == []

    for mutate in (
        lambda p: p.update(schema="wrong/0"),
        lambda p: p.update(results=[]),
        lambda p: p["results"][0].update(seconds_each=[]),
        lambda p: p["results"][0].update(seconds_each=[-1.0]),
        lambda p: p["results"][0].update(repeats=99),
        lambda p: p["results"][0].update(best_seconds=123.0),
        lambda p: p["results"][0].update(counters={"x": "NaN-ish"}),
        lambda p: p["machine"].update(cpu_count="many"),
        lambda p: p.update(derived={"s": "fast"}),
    ):
        payload = json.loads(json.dumps(good))
        mutate(payload)
        assert validate_report(payload) != [], mutate


def test_validate_report_rejects_corrupted_mean():
    # regression: best_seconds was cross-checked against seconds_each but
    # mean_seconds was not, so a corrupted mean validated clean
    payload = json.loads(json.dumps(_tiny_harness().to_report()))
    payload["results"][0]["mean_seconds"] = 123.0
    problems = validate_report(payload)
    assert problems != []
    assert any("mean_seconds" in p for p in problems)


def test_validate_report_rejects_duplicate_measurement_names():
    # regression: duplicate names validated clean even though name-keyed
    # readers (``obs ingest``) silently resolve to one of them
    payload = json.loads(json.dumps(_tiny_harness().to_report()))
    clone = json.loads(json.dumps(payload["results"][0]))
    payload["results"].append(clone)
    problems = validate_report(payload)
    assert problems != []
    assert any("duplicate" in p for p in problems)


def test_write_refuses_invalid_report(tmp_path):
    h = PerfHarness("unit")  # no measurements -> empty results
    with pytest.raises(ValueError):
        h.write(str(tmp_path / "bad.json"))


def test_machine_info_fields():
    info = machine_info()
    assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
    assert isinstance(info["python"], str)
