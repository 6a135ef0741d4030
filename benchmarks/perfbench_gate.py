"""Compare perfbench runs of a parent and a change; exit 1 on a regression.

Usage, from the root of a checkout::

    python3 benchmarks/perfbench_gate.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl`` for every workload declared in
``BENCHMARK.json``, one line per run: the last line ``perfbench/run.py
--trace 0`` printed.  For each workload the gate takes the median of each
end-to-end metric on each side and fails if the change is worse than the
parent by more than that metric's declared ``bound``, in its ``better``
direction.  It also fails if any run is not ``correct`` (an unreadable
line counts as such), or if the change's ``failed / attempted`` share is
larger than the parent's.  Its only thresholds are the declared bounds.

A directory may also hold ``<workload>.diag.jsonl``: the diagnostics line
``run.py`` prints just before the result, one per run.  When it does, the
``latency_tail_ms`` line also names each side's tail percentiles, median
sample count and median raw (unnormalised) rate, because the tail is a
different percentile depending on how many samples a run collected.  This
is reporting only: diagnostics never change a verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Runs = Dict[str, List[Dict[str, Any]]]
UNREADABLE = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def load_runs(path: str) -> List[Dict[str, Any]]:
    """One result object per line; an unreadable line reads as incorrect."""
    runs: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return runs
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                run = json.loads(line)
            except ValueError:
                run = None
            runs.append(run if isinstance(run, dict) else UNREADABLE)
    return runs


def load_diags(path: str) -> List[Dict[str, Any]]:
    """One diagnostics object per line; unreadable lines are skipped."""
    return [run for run in load_runs(path) if run is not UNREADABLE]


def tail_note(diags: List[Dict[str, Any]]) -> str:
    """Tail percentiles, median tail sample count and median raw rate of some runs."""
    try:
        ladder = Counter(f"p{d['tail_percentile']:g}" for d in diags)
        samples = statistics.median(d["tail_samples"] for d in diags)
        raw = statistics.median(d["raw"]["throughput_per_s"] for d in diags)
    except (KeyError, TypeError, ValueError, statistics.StatisticsError):
        return "no diagnostics"
    rungs = ", ".join(f"{rung} x{n}" for rung, n in sorted(ladder.items()))
    return f"{rungs}; {samples:g} samples; raw {raw:.4g}/s"


def compare(
    declared: Dict[str, Any],
    parent: Runs,
    change: Runs,
    diags: Optional[Dict[str, Runs]] = None,
) -> Tuple[bool, List[str]]:
    """``(passed, report lines)`` for runs keyed by workload on each side.

    ``diags`` (``{"parent": runs, "change": runs}`` of diagnostics lines)
    only annotates the ``latency_tail_ms`` line.
    """
    failures, lines = 0, []
    for workload in (w["name"] for w in declared["workloads"]):
        sides = {"parent": parent.get(workload, []), "change": change.get(workload, [])}
        share = {}
        for side, runs in sides.items():
            bad = sum(not r.get("correct") for r in runs)
            if bad or not runs:
                failures += 1
                lines.append(f"FAIL {workload}: {bad} of {len(runs)} {side} runs not correct")
            failed = sum(r.get("failed", 0) for r in runs)
            share[side] = failed / max(1, sum(r.get("attempted", 0) for r in runs))
        if share["change"] > share["parent"]:
            failures += 1
            lines.append(
                f"FAIL {workload}: failed share {share['parent']:.4f} -> {share['change']:.4f}"
            )
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            try:
                before, after = (
                    statistics.median(r["metrics"][name]["value"] for r in runs)
                    for runs in sides.values()
                )
            except (KeyError, statistics.StatisticsError):
                continue  # a run without the metric has failed above
            rel = (after - before) / before if before else 0.0
            worse = -rel if metric["better"] == "higher" else rel
            failures += worse > bound
            line = (
                f"{'FAIL' if worse > bound else 'ok':4} {workload} {name}: parent {before:.4g} "
                f"change {after:.4g} ({rel:+.1%}; {metric['better']} is better, bound {bound:.0%})"
            )
            if diags and name == "latency_tail_ms":
                line += "".join(
                    f" [{side}: {tail_note(diags[side].get(workload, []))}]"
                    for side in sides
                )
            lines.append(line)
    return failures == 0, lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parent, change = (
        {w["name"]: load_runs(os.path.join(d, f"{w['name']}.jsonl")) for w in declared["workloads"]}
        for d in argv
    )
    diags = {
        side: {
            w["name"]: load_diags(os.path.join(d, f"{w['name']}.diag.jsonl"))
            for w in declared["workloads"]
        }
        for side, d in zip(("parent", "change"), argv)
    }
    ok, lines = compare(declared, parent, change, diags)
    print("\n".join(lines))
    print(f"perfbench gate: {'PASS' if ok else 'FAIL'} (cpu_count {os.cpu_count()})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
