"""The ``repro-perf/1`` report: schema, builder and validator.

``python -m repro serve-bench --out`` writes its measurements as one
report; ``repro.obs`` stamps :func:`machine_info` into traces and run
records, and ``obs ingest`` condenses reports into ``repro-run/1``.  A
report records, per workload:

* wall-clock seconds for every repeat (plus best/mean),
* counters, anything numeric the producer wants kept,
* free-form metadata,

together with enough machine context (CPU count, Python version) to read
absolute numbers honestly across hosts.  Speed is measured by the
repository benchmark (``perfbench/``), not through this module.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

#: Report format identifier; bump the suffix on breaking changes.
SCHEMA = "repro-perf/1"


def machine_info() -> Dict[str, Any]:
    """Host context stamped into every report."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(slots=True)
class Measurement:
    """One timed workload: repeated wall-clock runs plus counters."""

    name: str
    seconds_each: List[float]
    counters: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def repeats(self) -> int:
        return len(self.seconds_each)

    @property
    def best(self) -> float:
        return min(self.seconds_each)

    @property
    def mean(self) -> float:
        return sum(self.seconds_each) / len(self.seconds_each)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "seconds_each": list(self.seconds_each),
            "best_seconds": self.best,
            "mean_seconds": self.mean,
            "counters": dict(self.counters),
            "meta": dict(self.meta),
        }


class PerfHarness:
    """Collects measurements and emits one schema-validated JSON report."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.measurements: List[Measurement] = []
        self.derived: Dict[str, float] = {}

    def to_report(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "created_unix": time.time(),
            "machine": machine_info(),
            "results": [m.as_dict() for m in self.measurements],
            "derived": dict(self.derived),
        }

    def write(self, path: str) -> Dict[str, Any]:
        """Validate and write the report; returns the payload."""
        payload = self.to_report()
        errors = validate_report(payload)
        if errors:
            raise ValueError(f"invalid perf report: {errors}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload


def validate_report(payload: Any) -> List[str]:
    """Check a report against the ``repro-perf/1`` schema; returns problems.

    An empty list means the payload is valid.  Kept dependency-free (no
    jsonschema dependency) and deliberately strict about types so a
    format drift fails the tests.
    """
    errors: List[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            errors.append(msg)
        return cond

    if not expect(isinstance(payload, dict), "report must be an object"):
        return errors
    expect(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    expect(isinstance(payload.get("suite"), str), "suite must be a string")
    expect(
        isinstance(payload.get("created_unix"), (int, float)),
        "created_unix must be a number",
    )
    machine = payload.get("machine")
    if expect(isinstance(machine, dict), "machine must be an object"):
        expect(
            isinstance(machine.get("cpu_count"), int),
            "machine.cpu_count must be an int",
        )
        expect(
            isinstance(machine.get("python"), str),
            "machine.python must be a string",
        )
    derived = payload.get("derived")
    if expect(isinstance(derived, dict), "derived must be an object"):
        for key, value in derived.items():
            expect(
                isinstance(value, (int, float)),
                f"derived[{key!r}] must be a number",
            )
    results = payload.get("results")
    if not expect(isinstance(results, list) and results, "results must be non-empty"):
        return errors
    seen_names: Set[str] = set()
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not expect(isinstance(entry, dict), f"{where} must be an object"):
            continue
        name = entry.get("name")
        if expect(isinstance(name, str), f"{where}.name must be a string"):
            # duplicates would make name-based lookups (``obs ingest``
            # keys results by name) silently ambiguous
            expect(
                name not in seen_names,
                f"{where}.name {name!r} duplicates an earlier measurement",
            )
            seen_names.add(name)
        secs = entry.get("seconds_each")
        if expect(
            isinstance(secs, list)
            and secs
            and all(isinstance(s, (int, float)) and s >= 0 for s in secs),
            f"{where}.seconds_each must be non-empty non-negative numbers",
        ):
            expect(
                entry.get("repeats") == len(secs),
                f"{where}.repeats must equal len(seconds_each)",
            )
            expect(
                abs(entry.get("best_seconds", -1) - min(secs)) < 1e-9,
                f"{where}.best_seconds must be min(seconds_each)",
            )
            mean = sum(secs) / len(secs)
            expect(
                abs(entry.get("mean_seconds", -1) - mean)
                < 1e-9 + 1e-9 * abs(mean),
                f"{where}.mean_seconds must be mean(seconds_each)",
            )
        for numeric_map in ("counters",):
            mapping = entry.get(numeric_map)
            if expect(
                isinstance(mapping, dict), f"{where}.{numeric_map} must be an object"
            ):
                for key, value in mapping.items():
                    expect(
                        isinstance(value, (int, float)),
                        f"{where}.{numeric_map}[{key!r}] must be a number",
                    )
        expect(isinstance(entry.get("meta"), dict), f"{where}.meta must be an object")
    return errors
