"""Population studies over random tasks.

The paper identifies two obstruction species — local articulation points
(decidable) and contractibility (undecidable in general).  The census runs
the decision procedure over a seeded population of random tasks and counts
how often each certificate fires, how many splits the pipeline performs
and how deep the witnesses sit — a quantitative picture of the
characterization at work.

The ``census`` command runs the streaming corpus
(:mod:`repro.analysis.corpus`), which decides each task through
:func:`decide_class`.  That stores only a task's *outcome* (status,
certificate kind, witness rounds, split count) under its
isomorphism-class hash: the characterization depends only on the task's
topology (LAPs, link-connectivity, the H1 obstruction), so the outcome
is the same for every task that differs by a per-colour output-value
renaming, and a corpus decides each class once per store instead of once
per seed.  :func:`run_census` is the reference loop the corpus is tested
against: it decides every seed, with no store.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..obs import counter_add
from ..solvability.decision import SolvabilityVerdict, Status, decide_solvability
from ..tasks.task import Task
from ..tasks.zoo.random_tasks import random_single_input_task
from ..topology import diskstore

#: what every task of an isomorphism class shares: status, certificate
#: kind, witness rounds (``None`` unless solvable) and split count
Outcome = Tuple[str, str, Optional[int], int]

#: the record fields an :data:`Outcome` fills, in order
OUTCOME_FIELDS = ("status", "certificate", "witness_rounds", "n_splits")


def verdict_outcome(verdict: SolvabilityVerdict) -> Outcome:
    """The census-relevant fields of a verdict."""
    if verdict.status is Status.SOLVABLE:
        certificate = "witness-map"
    elif verdict.status is Status.UNSOLVABLE:
        certificate = verdict.obstruction.kind
    else:
        certificate = "unknown"
    return (
        verdict.status.value,
        certificate,
        verdict.witness_rounds,
        int(verdict.stats.get("n_splits", 0)),
    )


@dataclass
class Census:
    """Aggregated outcomes over a task population."""

    population: int = 0
    solvable: int = 0
    unsolvable: int = 0
    unknown: int = 0
    certificates: Counter = field(default_factory=Counter)
    witness_depths: Counter = field(default_factory=Counter)
    splits_histogram: Counter = field(default_factory=Counter)

    def add(self, verdict) -> None:
        self.add_outcome(*verdict_outcome(verdict))

    def add_outcome(
        self,
        status: str,
        certificate: str,
        witness_rounds: Optional[int],
        n_splits: int,
    ) -> None:
        self.population += 1
        if status == "solvable":
            self.solvable += 1
            self.witness_depths[witness_rounds] += 1
        elif status == "unsolvable":
            self.unsolvable += 1
        else:
            self.unknown += 1
        self.certificates[certificate] += 1
        self.splits_histogram[n_splits] += 1

    def as_tuple(self) -> tuple:
        """A canonical, order-independent snapshot of every aggregate.

        Two censuses over the same population are equal iff their tuples
        are — the corpus-vs-reference parity tests compare these.
        """
        return (
            self.population,
            self.solvable,
            self.unsolvable,
            self.unknown,
            tuple(sorted(self.certificates.items())),
            tuple(sorted(self.witness_depths.items(), key=repr)),
            tuple(sorted(self.splits_histogram.items())),
        )


def _class_key(class_hash: str, max_rounds: int) -> str:
    return diskstore.content_hash(f"class={class_hash}:rounds={max_rounds}")


def _is_outcome(entry: object) -> bool:
    return (
        isinstance(entry, tuple)
        and len(entry) == 4
        and entry[0] in ("solvable", "unsolvable", "unknown")
        and isinstance(entry[1], str)
        and (entry[2] is None or isinstance(entry[2], int))
        and isinstance(entry[3], int)
    )


def decide_class(task: Task, class_hash: str, max_rounds: int) -> Outcome:
    """The outcome of ``task``'s isomorphism class, decided once per store.

    ``class_hash`` is the task's renaming-canonical hash
    (:func:`repro.analysis.corpus.canon_hash`).  The entry holds the bare
    :data:`Outcome`, not a verdict: a loaded verdict would carry another
    isomorph's ``.task``.  Anything else under the key (a pickled
    verdict, say) reads as a miss and is overwritten.
    ``census.class_store.hit`` / ``.miss`` count the lookups; pool
    workers sharing a store race to decide a class first, so on a cold
    store these counts depend on scheduling.

    The decide runs with the store off.  The class entry is the only one
    a corpus reads back: isomorphs load it, and exact duplicates never
    leave their shard.  So the ``transform`` entry the decide would write
    is never read.
    """
    key = None
    if diskstore.store_enabled():
        key = _class_key(class_hash, max_rounds)
        cached = diskstore.load("verdict", key)
        if _is_outcome(cached):
            counter_add("census.class_store.hit")
            return cached
        counter_add("census.class_store.miss")
    with diskstore.store_disabled():
        verdict = decide_solvability(task, max_rounds=max_rounds)
    outcome = verdict_outcome(verdict)
    if key is not None:
        diskstore.store("verdict", key, outcome)
    return outcome


def run_census(
    seeds,
    generator: Callable[[int], Task] = random_single_input_task,
    max_rounds: int = 1,
) -> Census:
    """Decide every generated task, with the store off, and aggregate.

    The reference the corpus is checked against: no dedup, no class
    store, one ``decide_solvability`` per seed.
    """
    census = Census()
    with diskstore.store_disabled():
        for seed in seeds:
            census.add(decide_solvability(generator(seed), max_rounds=max_rounds))
    return census
