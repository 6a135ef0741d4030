"""Population studies over random tasks.

The paper identifies two obstruction species — local articulation points
(decidable) and contractibility (undecidable in general).  The census runs
the decision procedure over a seeded population of random tasks and counts
how often each certificate fires, how many splits the pipeline performs
and how deep the witnesses sit — a quantitative picture of the
characterization at work.

Two persistent verdict-store paths feed it.  :func:`run_census` stores
each whole :class:`SolvabilityVerdict` under the task's exact content key.
:func:`decide_class` stores only a task's *outcome* (status, certificate
kind, witness rounds, split count) under its isomorphism-class hash: the
characterization depends only on the task's topology (LAPs,
link-connectivity, the H1 obstruction), so the outcome is the same for
every task that differs by a per-colour output-value renaming, and the
streaming corpus (:mod:`repro.analysis.corpus`) decides each class once
per store instead of once per shard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import annotate, counter_add, gauge_set, set_gauge_policy, span
from ..solvability.decision import SolvabilityVerdict, Status, decide_solvability
from ..tasks.task import Task
from ..tasks.zoo.random_tasks import random_single_input_task, random_sparse_task
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

    def merge(self, other: "Census") -> "Census":
        """Fold another census into this one (in place); returns ``self``.

        Aggregation is commutative and associative, so parallel workers can
        be merged in any completion order without changing the result.
        """
        self.population += other.population
        self.solvable += other.solvable
        self.unsolvable += other.unsolvable
        self.unknown += other.unknown
        self.certificates.update(other.certificates)
        self.witness_depths.update(other.witness_depths)
        self.splits_histogram.update(other.splits_histogram)
        return self

    def as_tuple(self) -> tuple:
        """A canonical, order-independent snapshot of every aggregate.

        Two censuses over the same population are equal iff their tuples
        are — the parallel-vs-serial parity tests compare these.
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

    def rows(self) -> List[Dict]:
        """Summary rows for benchmark reporting."""
        return [
            {
                "population": self.population,
                "solvable": self.solvable,
                "unsolvable": self.unsolvable,
                "unknown": self.unknown,
                "certificates": dict(self.certificates),
                "witness_depths": {
                    depth: count
                    for depth, count in sorted(
                        self.witness_depths.items(), key=lambda kv: repr(kv[0])
                    )
                },
                "max_splits": max(self.splits_histogram, default=0),
            }
        ]


def _decide_with_store(task: Task, max_rounds: int) -> SolvabilityVerdict:
    """Decide one census task, through the persistent verdict cache.

    A census verdict is a pure function of the (content-hashed) task and
    the deepening budget, so repeated populations — successive CLI runs,
    benchmark repeats, pool workers after a warm-up pass — load it from
    :mod:`repro.topology.diskstore` instead of re-deciding.

    A cache hit returns before any ``decide`` span or search counter is
    recorded, so warm-store traces would otherwise look implausibly fast
    with no explanation; the explicit ``census.verdict_cache.hit`` /
    ``.miss`` counters name the shortcut (and, being seed-deterministic,
    must agree between serial and pooled runs over the same store state —
    pinned by ``tests/test_parallel_census.py``).
    """
    cache_key = None
    if diskstore.store_enabled():
        cache_key = diskstore.content_hash(
            f"{diskstore.task_key(task)}:rounds={max_rounds}"
        )
        cached = diskstore.load("verdict", cache_key)
        if isinstance(cached, SolvabilityVerdict):
            counter_add("census.verdict_cache.hit")
            return cached
        counter_add("census.verdict_cache.miss")
    verdict = decide_solvability(task, max_rounds=max_rounds)
    if cache_key is not None:
        diskstore.store("verdict", cache_key, verdict)
    return verdict


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
    workers sharing a store race to decide a class first, so unlike
    ``census.verdict_cache.*`` these counts depend on scheduling.

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
    """Decide every generated task and aggregate the outcomes."""
    census = Census()
    with span("census") as census_span:
        for seed in seeds:
            task = generator(seed)
            census.add(_decide_with_store(task, max_rounds))
            counter_add("census.tasks")
        annotate(census_span, population=census.population)
        # seed-determined, so under the declared "max" merge policy the
        # aggregate is identical however the pool partitions the seeds
        set_gauge_policy("census.max_splits", "max")
        gauge_set("census.max_splits", max(census.splits_histogram, default=0))
    return census


def sparse_census(seeds, max_rounds: int = 1) -> Census:
    """Census over the sparser (LAP-richer) random family."""
    return run_census(seeds, generator=random_sparse_task, max_rounds=max_rounds)
