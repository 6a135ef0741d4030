"""Schema-validated JSON export of a trace (``repro-trace/1``).

A fixed schema identifier, host context from :func:`machine_info`, and
a dependency-free :func:`validate_trace` strict enough that the CI smoke
job catches format drift.  A trace payload carries:

* ``machine`` — Python version, implementation, platform and CPU count,
  so absolute timings can be read honestly across hosts;
* ``spans`` — the parent process's span forest (recursive records with
  ``wall_seconds`` / ``cpu_seconds`` / ``attrs`` / ``children``);
* ``counters`` / ``gauges`` — the parent's metrics;
* ``workers`` — one snapshot per merged pool work item (same shape,
  plus a ``worker`` pid), preserving per-worker timing skew;
* ``aggregate`` — counters summed across the parent and every worker
  snapshot, plus gauges merged under the explicit per-gauge
  policies (``aggregate.gauge_policies``; default ``max``).  This is the
  cross-process view the parallel engines previously could not report;
  :func:`validate_trace` recomputes the sums and the policy merge, so a
  report whose aggregate drifted from its parts fails validation.

Traces written before the per-instance query memo was removed also carry
a ``cache`` map (per query: hits, misses, hit rate) at the top level, in
each worker snapshot and in the aggregate; :func:`validate_trace` still
checks its shape wherever it appears, so those traces keep validating.

Span records additionally carry ``start_offset`` — seconds since their
recorder was created, on the ``perf_counter`` clock — which lets
:mod:`repro.obs.profile` lay spans on a Chrome-trace timeline.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from .recorder import Recorder, get_recorder, merge_gauge_maps

#: Trace format identifier; bump the suffix on breaking changes.
SCHEMA = "repro-trace/1"


def machine_info() -> Dict[str, Any]:
    """Host context stamped into every trace."""
    # imported lazily to keep repro.obs import-light for instrumented modules
    import platform

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def build_trace(
    recorder: Optional[Recorder] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize a recorder (default: the process recorder) to a payload."""
    recorder = recorder if recorder is not None else get_recorder()
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "machine": machine_info(),
        "meta": dict(meta or {}),
        "spans": [root.as_dict() for root in recorder.roots],
        "counters": dict(recorder.counters),
        "gauges": dict(recorder.gauges),
        "workers": [dict(snap) for snap in recorder.worker_snapshots],
        "aggregate": {
            "counters": recorder.aggregate_counters(),
            "gauges": recorder.aggregate_gauges(),
            "gauge_policies": dict(recorder.gauge_policies),
        },
    }


def write_trace(
    path: str,
    recorder: Optional[Recorder] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Validate and write a trace JSON file; returns the payload."""
    payload = build_trace(recorder, meta=meta)
    errors = validate_trace(payload)
    if errors:
        raise ValueError(f"invalid trace: {errors}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def _validate_span(span: Any, where: str, errors: List[str]) -> None:
    if not isinstance(span, dict):
        errors.append(f"{where} must be an object")
        return
    name = span.get("name")
    if not (isinstance(name, str) and name):
        errors.append(f"{where}.name must be a non-empty string")
    for field in ("start_unix", "start_offset", "wall_seconds", "cpu_seconds"):
        value = span.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{where}.{field} must be a number")
        elif field != "start_unix" and value < 0:
            errors.append(f"{where}.{field} must be non-negative")
    if not isinstance(span.get("attrs"), dict):
        errors.append(f"{where}.attrs must be an object")
    children = span.get("children")
    if not isinstance(children, list):
        errors.append(f"{where}.children must be a list")
        return
    for i, child in enumerate(children):
        _validate_span(child, f"{where}.children[{i}]", errors)


def _validate_numeric_map(value: Any, where: str, errors: List[str]) -> bool:
    if not isinstance(value, dict):
        errors.append(f"{where} must be an object")
        return False
    ok = True
    for key, item in value.items():
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            errors.append(f"{where}[{key!r}] must be a number")
            ok = False
    return ok


def validate_cache_map(owner: Dict[str, Any], where: str, errors: List[str]) -> None:
    """Check the ``cache`` map of ``owner`` (at path ``where``), if it has one.

    Only traces written before the per-instance query memo was removed
    carry one; current producers write none.
    """
    if "cache" not in owner:
        return
    value = owner["cache"]
    if not isinstance(value, dict):
        errors.append(f"{where} must be an object")
        return
    for query, stats in value.items():
        if not isinstance(stats, dict):
            errors.append(f"{where}[{query!r}] must be an object")
            continue
        hits, misses = stats.get("hits"), stats.get("misses")
        if not (isinstance(hits, int) and isinstance(misses, int)):
            errors.append(f"{where}[{query!r}] hits/misses must be ints")
            continue
        if hits < 0 or misses < 0 or hits + misses == 0:
            errors.append(
                f"{where}[{query!r}] must have non-negative, non-zero totals"
            )
            continue
        rate = stats.get("hit_rate")
        if (
            not isinstance(rate, (int, float))
            or abs(rate - hits / (hits + misses)) > 1e-9
        ):
            errors.append(f"{where}[{query!r}].hit_rate must equal hits/total")


def validate_trace(payload: Any) -> List[str]:
    """Check a payload against the ``repro-trace/1`` schema; returns problems.

    An empty list means the payload is valid.  Dependency-free (no
    jsonschema dependency), and strict about the aggregate: the summed
    counters must equal parent + workers.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["trace must be an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    if not isinstance(payload.get("created_unix"), (int, float)):
        errors.append("created_unix must be a number")
    machine = payload.get("machine")
    if not isinstance(machine, dict):
        errors.append("machine must be an object")
    else:
        if not isinstance(machine.get("cpu_count"), int):
            errors.append("machine.cpu_count must be an int")
        if not isinstance(machine.get("python"), str):
            errors.append("machine.python must be a string")
    if not isinstance(payload.get("meta"), dict):
        errors.append("meta must be an object")

    spans = payload.get("spans")
    if not isinstance(spans, list):
        errors.append("spans must be a list")
    else:
        for i, span in enumerate(spans):
            _validate_span(span, f"spans[{i}]", errors)

    counters_ok = _validate_numeric_map(payload.get("counters"), "counters", errors)
    gauges_ok = _validate_numeric_map(payload.get("gauges"), "gauges", errors)
    validate_cache_map(payload, "cache", errors)

    workers = payload.get("workers")
    workers_ok = isinstance(workers, list)
    if not workers_ok:
        errors.append("workers must be a list")
        workers = []
    for i, snap in enumerate(workers):
        where = f"workers[{i}]"
        if not isinstance(snap, dict):
            errors.append(f"{where} must be an object")
            workers_ok = False
            continue
        if not isinstance(snap.get("worker"), int):
            errors.append(f"{where}.worker must be an int (pid)")
        wspans = snap.get("spans")
        if not isinstance(wspans, list):
            errors.append(f"{where}.spans must be a list")
        else:
            for j, span in enumerate(wspans):
                _validate_span(span, f"{where}.spans[{j}]", errors)
        validate_cache_map(snap, f"{where}.cache", errors)
        workers_ok = (
            _validate_numeric_map(snap.get("counters"), f"{where}.counters", errors)
            and _validate_numeric_map(snap.get("gauges", {}), f"{where}.gauges", errors)
            and workers_ok
        )

    aggregate = payload.get("aggregate")
    if not isinstance(aggregate, dict):
        errors.append("aggregate must be an object")
        return errors
    agg_counters_ok = _validate_numeric_map(
        aggregate.get("counters"), "aggregate.counters", errors
    )
    agg_gauges_ok = _validate_numeric_map(
        aggregate.get("gauges"), "aggregate.gauges", errors
    )
    gauge_policies = aggregate.get("gauge_policies", {})
    if not isinstance(gauge_policies, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in gauge_policies.items()
    ):
        errors.append("aggregate.gauge_policies must map gauge names to policy names")
        agg_gauges_ok = False
        gauge_policies = {}
    validate_cache_map(aggregate, "aggregate.cache", errors)

    # the aggregate must actually be the sum of its parts
    if counters_ok and workers_ok and agg_counters_ok:
        expected: Dict[str, float] = dict(payload["counters"])
        for snap in workers:
            for name, value in snap.get("counters", {}).items():
                expected[name] = expected.get(name, 0.0) + value
        got = aggregate["counters"]
        if set(expected) != set(got) or any(
            abs(expected[k] - got[k]) > 1e-6 for k in expected
        ):
            errors.append("aggregate.counters must equal parent + worker sums")
    if gauges_ok and workers_ok and agg_gauges_ok:
        try:
            expected_gauges = merge_gauge_maps(
                [dict(payload.get("gauges", {}))]
                + [dict(snap.get("gauges", {})) for snap in workers],
                dict(gauge_policies),
            )
        except ValueError as exc:
            errors.append(f"aggregate.gauge_policies: {exc}")
        else:
            got_gauges = aggregate["gauges"]
            if set(expected_gauges) != set(got_gauges) or any(
                abs(expected_gauges[k] - got_gauges[k]) > 1e-9 for k in expected_gauges
            ):
                errors.append(
                    "aggregate.gauges must equal the policy-merged parent + "
                    "worker gauges"
                )
    return errors
