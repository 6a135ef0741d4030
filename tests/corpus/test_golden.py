"""Committed golden corpora gate generator/hash/decision drift.

The manifests under ``golden/`` were produced by real corpus runs and are
committed as verdicts of record.  Any behavioral change to the random
generators, the isomorphism-canonical hashing, or the decision procedure
shows up here as drift — which is either a regression (fix the code) or
an intended change (regenerate the goldens, see docs/census_corpus.md).

The quick tests replay a prefix of each corpus; the full replays are
``slow``-marked (CI's corpus-smoke job runs them, plus a fresh 500-seed
sharded run, on every push).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.corpus import (
    CorpusConfig,
    census_from_manifest,
    load_manifest,
    validate_manifest,
    verify_manifest,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = {
    "single-500": os.path.join(GOLDEN_DIR, "manifest-single-500.json"),
    "sparse-300": os.path.join(GOLDEN_DIR, "manifest-sparse-300.json"),
}


@pytest.fixture(params=sorted(GOLDEN), ids=sorted(GOLDEN))
def golden(request):
    return load_manifest(GOLDEN[request.param])


def test_goldens_validate(golden):
    assert validate_manifest(golden) == []


def test_goldens_have_real_dedup(golden):
    # the whole point of the corpus: far fewer decisions than seeds
    dedup = golden["dedup"]
    assert dedup["rate"] > 0.5
    assert dedup["distinct_hashes"] < dedup["population"] / 4


def test_sparse_golden_exercises_unsolvable_certificates():
    payload = load_manifest(GOLDEN["sparse-300"])
    census = census_from_manifest(payload)
    assert census.unsolvable > 0
    assert any(kind != "witness-map" for kind in census.certificates)


def test_golden_prefix_replays_without_drift(golden):
    # a bounded replay keeps the tier-1 suite fast; every drift mode the
    # full replay can catch (hash, status, certificate, depth, splits) is
    # equally observable on a prefix
    assert verify_manifest(golden, limit=60) == []


def test_replay_is_not_answered_by_the_store():
    # an entry written by other code under the key a replay would read
    # must not stand in for the decision procedure under test
    from repro.analysis.census import _class_key, decide_class
    from repro.analysis.corpus import GENERATORS
    from repro.topology import diskstore

    golden = load_manifest(GOLDEN["single-500"])
    rows = golden["verdicts"][:20]
    poison = ("unsolvable", "poisoned", None, 99)
    for _seed, canon, *_ in rows:
        diskstore.store("verdict", _class_key(canon, 1), poison)
    seed, canon = rows[0][:2]
    task = GENERATORS["single"](seed)
    assert decide_class(task, canon, 1) == poison  # the key is the live one
    assert verify_manifest(golden, limit=20) == []
    assert decide_class(task, canon, 1) == poison  # and the replay left it


@pytest.mark.slow
def test_golden_full_replay_single():
    assert verify_manifest(load_manifest(GOLDEN["single-500"])) == []


@pytest.mark.slow
def test_golden_full_replay_sparse():
    assert verify_manifest(load_manifest(GOLDEN["sparse-300"])) == []
