"""The decision procedure must be bit-identical with caching on and off.

The persistent store (:mod:`repro.topology.diskstore`: subdivision towers
and link-connected transforms) is pure performance machinery; if loading
from it changed a verdict, a witness depth, an obstruction kind or a
split count, the store would be *wrong*, not just stale.  This suite
decides representative zoo tasks from a cold store, from the warm store
that run left behind, and with the store off, and compares everything
observable.
"""

from __future__ import annotations

import pytest

from repro import decide_solvability, obs
from repro.tasks.zoo import (
    hourglass_task,
    identity_task,
    majority_consensus_task,
    path_task,
    pinwheel_task,
    two_process_fork_task,
)
from repro.topology import diskstore

ZOO = [
    ("majority", majority_consensus_task, 1),
    ("hourglass", hourglass_task, 1),
    ("pinwheel", pinwheel_task, 1),
    ("identity3", lambda: identity_task(3), 1),
    ("path3", lambda: path_task(3), 2),
    ("fork-2p", two_process_fork_task, 1),
]


def _fingerprint(verdict):
    """Everything observable about a verdict, minus wall-clock noise."""
    return {
        "status": verdict.status,
        "witness_rounds": verdict.witness_rounds,
        "witness_chromatic": verdict.witness_chromatic,
        "witness_values": (
            None
            if verdict.witness_map is None
            else tuple(
                (v, verdict.witness_map(v)) for v in verdict.witness_map.domain.vertices
            )
        ),
        "obstruction_kind": (
            None if verdict.obstruction is None else verdict.obstruction.kind
        ),
        "n_splits": verdict.stats.get("n_splits"),
        "search_nodes": verdict.stats.get("search_nodes"),
        "search_backtracks": verdict.stats.get("search_backtracks"),
    }


def _traced(counter_suffix, make, rounds):
    """Decide traced; returns (fingerprint, sum of diskstore ``*.suffix`` counters)."""
    obs.reset_recorder()
    with obs.tracing() as rec:
        fingerprint = _fingerprint(decide_solvability(make(), max_rounds=rounds))
    total = sum(
        v
        for k, v in rec.counters.items()
        if k.startswith("diskstore.") and k.endswith(counter_suffix)
    )
    obs.reset_recorder()  # later tests read absolute counters
    return fingerprint, total


@pytest.mark.parametrize("name,make,rounds", ZOO, ids=[z[0] for z in ZOO])
def test_verdict_parity_caching_on_off(name, make, rounds, tmp_path):
    with diskstore.store_at(str(tmp_path / "store")):
        cold, writes = _traced(".write", make, rounds)
        warm, hits = _traced(".hit", make, rounds)
        with diskstore.store_disabled():
            off = _fingerprint(decide_solvability(make(), max_rounds=rounds))
    # whatever the cold decide stored, the warm one read back
    assert (hits > 0) == (writes > 0)
    assert cold == warm == off
