"""The persistent telemetry run store (``repro-run/1`` JSONL).

Traces (:mod:`repro.obs.export`) answer "where did *this* run spend its
time"; nothing answered "how has that changed since last week".  This
module closes the loop: every traced CLI invocation appends one compact,
schema-validated **run record** to an append-only JSONL store, so
decision latency, counters and campaign throughput become a
queryable trajectory across commits instead of dying with each process.

A run record is deliberately much smaller than a trace — top-level span
wall/CPU aggregated by name, aggregate counters/gauges, plus
provenance (command, argv, task, git SHA, host fingerprint) — so the
store stays cheap to append to and fast to scan even after thousands of
runs.  ``python -m repro obs trend`` renders per-metric history,
``python -m repro obs diff`` compares two runs under the noise-tolerant
threshold model in :mod:`repro.obs.trend`, and
``python -m repro obs ingest`` converts the existing
``benchmarks/BENCH_*.json`` (``repro-perf/1``) reports into run records
so the bench trajectory lives in the same place.

The store path resolves ``--store`` flag > ``REPRO_TELEMETRY`` env var >
``.repro/telemetry.jsonl``.  Records are one JSON object per line,
append-only; unreadable lines are reported but never block reading the
rest (a half-written line from a crashed run must not poison history).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..service.keys import record_id
from .export import validate_cache_map

#: Run-record format identifier; bump the suffix on breaking changes.
SCHEMA = "repro-run/1"

#: Environment variable overriding the default store location.
ENV_VAR = "REPRO_TELEMETRY"

#: Default store path, relative to the working directory.
DEFAULT_PATH = os.path.join(".repro", "telemetry.jsonl")


def resolve_store_path(path: Optional[str] = None) -> str:
    """``--store`` flag > ``REPRO_TELEMETRY`` env > ``.repro/telemetry.jsonl``."""
    return path or os.environ.get(ENV_VAR) or DEFAULT_PATH


def git_sha() -> Optional[str]:
    """The current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_fingerprint() -> Dict[str, Any]:
    """Machine context + hostname: enough to read absolute numbers honestly."""
    from ..perf import machine_info

    info = machine_info()
    info["hostname"] = socket.gethostname()
    return info


def _top_spans(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Root spans aggregated by name: ``{name: {wall, cpu, count}}``."""
    totals: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = totals.setdefault(
            span["name"], {"wall_seconds": 0.0, "cpu_seconds": 0.0, "count": 0}
        )
        entry["wall_seconds"] += span["wall_seconds"]
        entry["cpu_seconds"] += span["cpu_seconds"]
        entry["count"] += 1
    return totals


def _run_id(record: Dict[str, Any]) -> str:
    """Content hash over everything but the id itself: stable, collision-safe.

    Delegates to :func:`repro.service.keys.record_id`, the shared
    content-hashing module — the serialization and truncation are
    byte-identical to what this function always produced, so historical
    run ids remain reproducible.
    """
    return record_id(record)


def build_run_record(
    trace_payload: Dict[str, Any],
    command: str,
    argv: Optional[List[str]] = None,
    task: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Condense one ``repro-trace/1`` payload into a ``repro-run/1`` record.

    ``command`` is the subcommand name (``decide``, ``census``, …) —
    trend/diff group and match runs by it.  ``task`` is the task spec
    when the command has one.  The trace's *aggregate* sections are used,
    so parallel runs record true cross-process counters.
    """
    aggregate = trace_payload.get("aggregate", {})
    record = {
        "schema": SCHEMA,
        "created_unix": float(trace_payload.get("created_unix") or time.time()),
        "command": command,
        "argv": [str(a) for a in (argv or [])],
        "task": task,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "spans": _top_spans(trace_payload.get("spans", [])),
        "counters": dict(aggregate.get("counters") or trace_payload.get("counters", {})),
        "gauges": dict(aggregate.get("gauges") or trace_payload.get("gauges", {})),
        "meta": dict(meta or {}),
    }
    record["run_id"] = _run_id(record)
    return record


def bench_run_record(
    report: Dict[str, Any], source: Optional[str] = None
) -> Dict[str, Any]:
    """Convert one ``repro-perf/1`` bench report into a run record.

    Each measurement becomes a span entry (best wall seconds; the perf
    harness does not record CPU time, so ``cpu_seconds`` repeats the
    wall number) and its counters land prefixed with the measurement
    name.  Derived speedups become gauges, so ``obs trend`` charts the
    bench trajectory with the same machinery as live runs.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, float] = {}
    for entry in report.get("results", []):
        name = entry["name"]
        spans[name] = {
            "wall_seconds": float(entry["best_seconds"]),
            "cpu_seconds": float(entry["best_seconds"]),
            "count": int(entry.get("repeats", 1)),
        }
        for key, value in entry.get("counters", {}).items():
            counters[f"{name}.{key}"] = float(value)
    record = {
        "schema": SCHEMA,
        "created_unix": float(report.get("created_unix") or time.time()),
        "command": f"bench {report.get('suite', '?')}",
        "argv": [],
        "task": None,
        "git_sha": git_sha(),
        "host": dict(report.get("machine", {}), hostname=socket.gethostname()),
        "spans": spans,
        "counters": counters,
        "gauges": {k: float(v) for k, v in report.get("derived", {}).items()},
        "meta": {"source": source} if source else {},
    }
    record["run_id"] = _run_id(record)
    return record


def soak_run_record(
    report: Dict[str, Any], source: Optional[str] = None
) -> Dict[str, Any]:
    """Convert one ``repro-soak/1`` soak report into a run record.

    The run becomes a single ``serve-soak`` span (wall = soak duration),
    traffic totals land as counters, and the growth slopes/budget
    verdicts become gauges — so ``obs trend`` charts leak slopes across
    commits and ``obs diff`` can gate on them like any other metric.
    The report's latency histogram rides along under a ``histograms``
    key that ``repro-run/1`` validation ignores and trend/diff skip
    (their forward-compat contract for unknown metric kinds).

    A pure dict transform (no service import): the obs layer must not
    depend back on :mod:`repro.service`.
    """
    duration = float(report.get("duration_seconds", 0.0))
    counters = {
        "soak.requests": float(report.get("requests", 0)),
        "soak.ok": float(report.get("ok", 0)),
        "soak.errors": float(report.get("errors", 0)),
        "soak.scrapes": float(report.get("scrapes", 0)),
        "soak.scrape_failures": float(report.get("scrape_failures", 0)),
    }
    gauges: Dict[str, float] = {
        "soak.hit_rate": float(report.get("hit_rate", 0.0)),
        "soak.throughput_rps": float(report.get("throughput_rps", 0.0)),
        "soak.passed": 1.0 if report.get("passed") else 0.0,
        "soak.p50_ms": float(report.get("latency_ms", {}).get("p50", 0.0)),
        "soak.p99_ms": float(report.get("latency_ms", {}).get("p99", 0.0)),
    }
    for series, slope in (report.get("slopes") or {}).items():
        gauges[f"soak.slope.{series}"] = float(slope)
    record = {
        "schema": SCHEMA,
        "created_unix": float(report.get("created_unix") or time.time()),
        "command": "serve-soak",
        "argv": [],
        "task": None,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "spans": {
            "serve-soak": {
                "wall_seconds": duration,
                "cpu_seconds": duration,
                "count": 1,
            }
        },
        "counters": counters,
        "gauges": gauges,
        "meta": {
            "source": source,
            "budgets": dict(report.get("budgets") or {}),
            "over_budget": list(report.get("over_budget") or []),
        },
        # deliberately outside the validated vocabulary: exercises the
        # unknown-section tolerance downstream consumers must keep
        "histograms": [dict(report.get("latency") or {}, name="soak_latency")],
    }
    record["run_id"] = _run_id(record)
    return record


def validate_run_record(record: Any) -> List[str]:
    """Check one record against ``repro-run/1``; returns problems.

    Dependency-free and strict, in the style of
    :func:`repro.obs.validate_trace` — the CI job schema-validates the
    whole store, so drift in what the CLI appends fails fast.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["run record must be an object"]
    if record.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    if not (isinstance(record.get("run_id"), str) and record["run_id"]):
        errors.append("run_id must be a non-empty string")
    if not isinstance(record.get("created_unix"), (int, float)):
        errors.append("created_unix must be a number")
    if not (isinstance(record.get("command"), str) and record["command"]):
        errors.append("command must be a non-empty string")
    argv = record.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        errors.append("argv must be a list of strings")
    if not (record.get("task") is None or isinstance(record["task"], str)):
        errors.append("task must be a string or null")
    if not (record.get("git_sha") is None or isinstance(record["git_sha"], str)):
        errors.append("git_sha must be a string or null")
    host = record.get("host")
    if not isinstance(host, dict):
        errors.append("host must be an object")
    else:
        if not isinstance(host.get("python"), str):
            errors.append("host.python must be a string")
        if not isinstance(host.get("cpu_count"), int):
            errors.append("host.cpu_count must be an int")
    spans = record.get("spans")
    if not isinstance(spans, dict):
        errors.append("spans must be an object")
    else:
        for name, entry in spans.items():
            where = f"spans[{name!r}]"
            if not isinstance(entry, dict):
                errors.append(f"{where} must be an object")
                continue
            for field in ("wall_seconds", "cpu_seconds"):
                value = entry.get(field)
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or value < 0
                ):
                    errors.append(f"{where}.{field} must be a non-negative number")
            if not (isinstance(entry.get("count"), int) and entry["count"] >= 1):
                errors.append(f"{where}.count must be a positive int")
    for section in ("counters", "gauges"):
        mapping = record.get(section)
        if not isinstance(mapping, dict):
            errors.append(f"{section} must be an object")
            continue
        for key, value in mapping.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{section}[{key!r}] must be a number")
    validate_cache_map(record, "cache", errors)
    if not isinstance(record.get("meta"), dict):
        errors.append("meta must be an object")
    return errors


def append_run(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """Validate and append one record to the store; returns the path used."""
    errors = validate_run_record(record)
    if errors:
        raise ValueError(f"invalid run record: {errors}")
    path = resolve_store_path(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_store(
    path: Optional[str] = None,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read every valid record from the store (chronological file order).

    Returns ``(records, problems)``: a missing store is simply empty,
    and malformed or schema-invalid lines become problem strings instead
    of exceptions — one crashed half-written append must not make the
    whole history unreadable.
    """
    path = resolve_store_path(path)
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return [], []
    except OSError as exc:
        return [], [f"{path}: cannot read store: {exc}"]
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append(f"{path}:{lineno}: not JSON: {exc}")
            continue
        errors = validate_run_record(record)
        if errors:
            problems.append(f"{path}:{lineno}: invalid record: {'; '.join(errors)}")
            continue
        records.append(record)
    return records, problems


def load_record_file(path: str) -> Dict[str, Any]:
    """Read one standalone record file (e.g. a committed baseline).

    Accepts a single ``repro-run/1`` JSON object, a ``repro-perf/1``
    bench report (converted via :func:`bench_run_record`), or a
    ``repro-soak/1`` soak report (converted via :func:`soak_run_record`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and payload.get("schema") == "repro-perf/1":
        payload = bench_run_record(payload, source=path)
    elif isinstance(payload, dict) and payload.get("schema") == "repro-soak/1":
        payload = soak_run_record(payload, source=path)
    errors = validate_run_record(payload)
    if errors:
        raise ValueError(f"{path}: invalid run record: {errors}")
    return payload


def find_run(records: List[Dict[str, Any]], ref: str) -> Dict[str, Any]:
    """Resolve a run reference: run-id prefix, or a (possibly negative) index.

    Id matching wins over index parsing; an ambiguous prefix is an error
    rather than a silent first-match.
    """
    matches = [r for r in records if r["run_id"].startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        ids = ", ".join(r["run_id"] for r in matches[:5])
        raise ValueError(f"run reference {ref!r} is ambiguous: matches {ids}")
    try:
        index = int(ref)
    except ValueError:
        raise ValueError(
            f"no run with id prefix {ref!r} (and not an index) in the store"
        ) from None
    try:
        return records[index]
    except IndexError:
        raise ValueError(
            f"run index {index} out of range for a store of {len(records)} runs"
        ) from None


def latest_run(
    records: List[Dict[str, Any]], command: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """The newest record, optionally restricted to one command."""
    pool = [r for r in records if command is None or r["command"] == command]
    if not pool:
        return None
    return max(pool, key=lambda r: (r["created_unix"],))


__all__ = [
    "DEFAULT_PATH",
    "ENV_VAR",
    "SCHEMA",
    "append_run",
    "bench_run_record",
    "build_run_record",
    "find_run",
    "git_sha",
    "host_fingerprint",
    "latest_run",
    "load_record_file",
    "load_store",
    "resolve_store_path",
    "soak_run_record",
    "validate_run_record",
]
