"""Golden per-decide costs of a cold, traced ``decide majority``.

A decide's work is deterministic: the LAP splits of Section 4, the
complexes the splitting builds, and the obstructions tried until
Corollary 5.5 fires.  A traced cold run's aggregate counters are pinned
here against :data:`GOLDEN` under one rule:

* a golden count above zero fails when the measured count exceeds
  ``1 + COUNTER_TOLERANCE`` times it;
* a golden zero fails when the measured count is non-zero;
* a counter present on one side only (new or gone) never fails.

Shrinking work passes; a real blowup (a splitting loop that stops
converging, an obstruction tried twice) does not.  Wall-clock time is
not asserted here: the repository benchmark's ``decide-zoo`` workload
times cold majority decides parent against change.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.__main__ import main
from repro.obs import validate_trace
from repro.topology import diskstore

#: the aggregate counters of a traced ``decide majority`` on an empty store
GOLDEN: Dict[str, float] = {
    "decide.obstructions.checked": 2,
    "decide.obstructions.hit.corollary-5.5": 1,
    "decide.transform.splits": 42,
    "diskstore.transform.miss": 1,
    "diskstore.transform.write": 1,
    "split.complexes_built": 273,
    "split.facets_with_laps": 6,
    "split.steps": 42,
}

#: allowed relative growth of a counter over its golden value
COUNTER_TOLERANCE = 0.75


def counter_regressions(
    golden: Dict[str, float],
    measured: Dict[str, float],
    tolerance: float = COUNTER_TOLERANCE,
) -> List[str]:
    """One line per counter of both maps that grew past its golden value."""
    problems = []
    for name in sorted(golden.keys() & measured.keys()):
        before, after = golden[name], measured[name]
        if before > 0 and after > before * (1 + tolerance) + 1e-9:
            problems.append(
                f"{name}: {before:g} -> {after:g} "
                f"(more than +{tolerance:.0%})"
            )
        elif before == 0 and after > 0:
            problems.append(f"{name}: 0 -> {after:g}")
    return problems


def test_cold_majority_counters_stay_within_the_golden(tmp_path, capsys):
    trace = tmp_path / "trace-majority.json"
    with diskstore.store_at(str(tmp_path / "towers")):
        assert main(["decide", "majority", "--trace", str(trace)]) == 0
    capsys.readouterr()
    payload = json.loads(trace.read_text())
    assert validate_trace(payload) == []
    assert counter_regressions(GOLDEN, payload["aggregate"]["counters"]) == []


def test_golden_against_itself_is_clean():
    assert counter_regressions(GOLDEN, GOLDEN) == []


def test_counter_growth_beyond_tolerance_gates():
    measured = dict(GOLDEN, **{"split.steps": 74})  # 42 -> 74 = +76%
    assert counter_regressions(GOLDEN, measured) == [
        "split.steps: 42 -> 74 (more than +75%)"
    ]


def test_growth_within_tolerance_and_shrinking_pass():
    measured = dict(GOLDEN, **{"split.steps": 73, "split.complexes_built": 1})
    assert counter_regressions(GOLDEN, measured) == []


def test_zero_golden_gates_on_any_work():
    golden = dict(GOLDEN, **{"diskstore.transform.hit": 0})
    measured = dict(GOLDEN, **{"diskstore.transform.hit": 1})
    assert counter_regressions(golden, measured) == [
        "diskstore.transform.hit: 0 -> 1"
    ]


def test_one_sided_counters_never_gate():
    measured = {k: v for k, v in GOLDEN.items() if k != "split.steps"}
    measured["split.new_counter"] = 10**6
    assert counter_regressions(GOLDEN, measured) == []
