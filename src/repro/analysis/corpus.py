"""Streaming census corpus: isomorphism dedup, resumable shards, manifests.

Every ``census`` is a corpus run: the CLI runs one in a throwaway
directory, or under ``--corpus DIR`` to keep it.  A corpus never does the
same work twice and never loses work already done:

* **isomorphism dedup** — every generated task is canonically hashed up to
  per-color output-value renaming (:func:`repro.tasks.canonical.
  iso_canonical_text` + :func:`repro.topology.diskstore.content_hash`)
  *before* it is decided; a duplicate reuses its representative's verdict
  (solvability is invariant under chromatic isomorphism).  On the default
  generator the dedup rate exceeds 90% — the decision procedure runs on
  the ~one-in-ten genuinely new tasks.  Within a shard a cheap renaming
  key answers most repeats before the relabeling search runs
  (:func:`canon_hash`);
* **resumable shards** — the seed range is partitioned into contiguous
  shards, each an append-only JSONL file of verdict records under the
  corpus directory.  Every committed line is a checkpoint: an interrupted
  shard resumes from its last fully-written record (a torn tail line is
  detected and truncated away), so a killed run loses at most one seed
  of work per shard;
* **versioned manifests** — a completed run packages into a
  ``repro-corpus/1`` manifest (generator config, dedup stats, throughput,
  golden verdicts) that :func:`verify_manifest` replays seed-by-seed —
  the fixture-driven regression battery ``tests/corpus/`` and the CI
  ``corpus-smoke`` job both gate on verdict drift against committed
  manifests.

Dedup scope is **per shard**: each shard is a deterministic serial stream,
so the representative of every hash — and with it every dedup flag — is
independent of worker scheduling, pool size, and interruption points.
A representative's outcome comes from the persistent verdict store keyed
by the same class hash (:func:`repro.analysis.census.decide_class`), so
the other shards of a run, later runs on the same store and pool workers
sharing a store directory load a class's outcome instead of deciding it
again: a run decides each class once per store, not once per shard.
For a fixed shard partition, records (runtime aside) and ``Census``
aggregates are bit-identical between serial, pooled,
interrupted-and-resumed, and replayed runs, cold store or warm.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..obs import annotate, capture_worker, counter_add, gauge_set, merge_worker_snapshot, set_gauge_policy, span, tracing_enabled
from ..tasks.canonical import code_task, iso_canonical_text, renaming_key
from ..tasks.task import Task
from ..tasks.zoo.random_tasks import (
    random_multi_facet_task,
    random_single_input_task,
    random_sparse_task,
)
from ..topology import diskstore
from .census import OUTCOME_FIELDS, Census, Outcome, decide_class

#: manifest schema identifier (golden-verdict packages)
SCHEMA = "repro-corpus/1"

#: run-config schema identifier (the in-progress run descriptor)
RUN_SCHEMA = "repro-corpus-run/1"

RUN_CONFIG_FILE = "run.json"
MANIFEST_FILE = "manifest.json"

#: default corpus root, relative to the current working directory
DEFAULT_ROOT = os.path.join(".repro", "corpus")

#: name -> picklable ``seed -> Task`` generator (manifest-addressable)
GENERATORS: Dict[str, Callable[[int], Task]] = {
    "single": random_single_input_task,
    "sparse": random_sparse_task,
    "multi": random_multi_facet_task,
}

class CorpusError(RuntimeError):
    """A corpus run/manifest is inconsistent with what was asked."""


@dataclass(frozen=True)
class CorpusConfig:
    """Everything needed to regenerate a corpus deterministically."""

    seed_start: int
    seed_stop: int
    shards: int = 1
    generator: str = "single"
    max_rounds: int = 1

    def validate(self) -> None:
        if self.seed_stop <= self.seed_start:
            raise CorpusError(
                f"empty seed range [{self.seed_start}, {self.seed_stop})"
            )
        if self.shards < 1:
            raise CorpusError(f"shards must be at least 1, got {self.shards}")
        if self.shards > self.population:
            raise CorpusError(
                f"{self.shards} shards over {self.population} seeds would "
                "leave empty shards; use fewer shards"
            )
        if self.generator not in GENERATORS:
            raise CorpusError(
                f"unknown generator {self.generator!r}; "
                f"use one of {', '.join(sorted(GENERATORS))}"
            )
        if self.max_rounds < 0:
            raise CorpusError(f"max_rounds must be non-negative, got {self.max_rounds}")

    @property
    def population(self) -> int:
        return self.seed_stop - self.seed_start

    def generator_fn(self) -> Callable[[int], Task]:
        return GENERATORS[self.generator]

    def shard_ranges(self) -> List[Tuple[int, int]]:
        """Contiguous near-equal partition of the seed range, one per shard."""
        base, extra = divmod(self.population, self.shards)
        ranges = []
        start = self.seed_start
        for shard in range(self.shards):
            size = base + (1 if shard < extra else 0)
            ranges.append((start, start + size))
            start += size
        return ranges

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed_start": self.seed_start,
            "seed_stop": self.seed_stop,
            "shards": self.shards,
            "generator": self.generator,
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CorpusConfig":
        try:
            return cls(
                seed_start=int(payload["seed_start"]),
                seed_stop=int(payload["seed_stop"]),
                shards=int(payload["shards"]),
                generator=str(payload["generator"]),
                max_rounds=int(payload["max_rounds"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed corpus config: {exc}") from exc


# ---------------------------------------------------------------------------
# Shard files: append-only JSONL, every committed line a checkpoint
# ---------------------------------------------------------------------------

#: fields every shard record (and manifest verdict row) carries
RECORD_FIELDS = (
    "seed",
    "canon_hash",
    "status",
    "certificate",
    "witness_rounds",
    "n_splits",
    "runtime",
    "dedup",
)


def shard_path(root: str, shard: int) -> str:
    return os.path.join(root, f"shard-{shard:04d}.jsonl")


def canon_hash(task: Task, memo: Optional[Dict[Hashable, str]] = None) -> str:
    """Content hash of the task's renaming-canonical description.

    With a ``memo`` (one shard's, see :func:`run_shard`) the task's
    :func:`~repro.tasks.canonical.renaming_key` is looked up first, and the
    relabeling search runs only when it misses.  Equal keys mean isomorphic
    tasks, so a hit returns exactly what the search would.  An ``exact:``
    text (above the search cap) is not renaming-invariant, so its hash is
    never memoized.
    """
    if memo is None:
        return diskstore.content_hash(iso_canonical_text(task))
    coded = code_task(task)
    key = renaming_key(task, coded)
    canon = memo.get(key)
    if canon is not None:
        counter_add("corpus.renaming_key.hit")
        return canon
    counter_add("corpus.renaming_key.miss")
    text = iso_canonical_text(task, coded=coded)
    canon = diskstore.content_hash(text)
    if text.startswith("iso:"):
        memo[key] = canon
    return canon


def _record(seed: int, canon: str, outcome: Outcome, runtime: float) -> Dict[str, Any]:
    return {
        "seed": seed,
        "canon_hash": canon,
        **dict(zip(OUTCOME_FIELDS, outcome)),
        "runtime": runtime,
        "dedup": False,
    }


@dataclass
class ShardState:
    """What a shard file currently holds: the committed prefix."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    next_seed: int = 0
    valid_bytes: int = 0
    torn: bool = False


def load_shard(path: str, seed_start: int, seed_stop: int) -> ShardState:
    """Parse a shard file's committed prefix; tolerate a torn tail.

    Records are appended strictly in seed order, so the resume point is
    the end of the longest prefix of valid, in-sequence lines.  Anything
    after the first unparsable or out-of-sequence line (a crashed writer's
    torn tail) is ignored and reported via ``torn`` so the writer can
    truncate it before appending.
    """
    state = ShardState(next_seed=seed_start)
    if not os.path.exists(path):
        return state
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        if newline == -1:
            # the writer died mid-line: everything before is committed
            state.torn = True
            break
        try:
            record = json.loads(blob[offset:newline].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            state.torn = True
            break
        if (
            not isinstance(record, dict)
            or any(k not in record for k in RECORD_FIELDS)
            or record["seed"] != state.next_seed
            or record["seed"] >= seed_stop
        ):
            state.torn = True
            break
        state.records.append(record)
        state.next_seed = record["seed"] + 1
        offset = newline + 1
        state.valid_bytes = offset
    return state


def run_shard(
    config: CorpusConfig,
    shard: int,
    root: str,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run (or resume) one shard; returns the shard's full record list.

    Each seed's task is generated, iso-hashed (through a renaming-key memo
    that lives for this call), deduplicated against the shard's earlier
    hashes, given its class's outcome from the class store when new
    (decided there on a miss), and committed as one JSONL line (flushed
    before the next seed starts — the line *is* the checkpoint).  ``limit`` bounds
    how many further seeds this call processes (used by tests to pause
    mid-shard); an exception at seed ``s`` loses only ``s`` — every
    earlier line is already committed.
    """
    seed_start, seed_stop = config.shard_ranges()[shard]
    path = shard_path(root, shard)
    state = load_shard(path, seed_start, seed_stop)
    if state.torn:
        with open(path, "rb+") as fh:
            fh.truncate(state.valid_bytes)
    records = list(state.records)
    if state.next_seed >= seed_stop:
        return records

    generator = config.generator_fn()
    seen: Dict[str, Dict[str, Any]] = {}
    for record in records:
        seen.setdefault(record["canon_hash"], record)
    # renaming key -> canon_hash, for this call's seeds only
    memo: Dict[Hashable, str] = {}

    os.makedirs(root, exist_ok=True)
    done = 0
    shard_t0 = time.perf_counter()
    with span("corpus.shard") as shard_span, open(path, "a", encoding="utf-8") as fh:
        annotate(shard_span, shard=shard, seed_start=seed_start, seed_stop=seed_stop)
        for seed in range(state.next_seed, seed_stop):
            if limit is not None and done >= limit:
                break
            task = generator(seed)
            canon = canon_hash(task, memo)
            representative = seen.get(canon)
            if representative is not None:
                counter_add("corpus.dedup.hit")
                record = dict(representative)
                record.update(seed=seed, runtime=0.0, dedup=True)
            else:
                counter_add("corpus.dedup.miss")
                t0 = time.perf_counter()
                outcome = decide_class(task, canon, config.max_rounds)
                record = _record(seed, canon, outcome, time.perf_counter() - t0)
                seen[canon] = record
            counter_add("corpus.tasks")
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            records.append(record)
            done += 1
        wall = time.perf_counter() - shard_t0
        if done and wall > 0:
            # shard rates merge by "max" across pool workers: the fastest
            # shard's rate is the engine's capability, an average over
            # shards of different sizes is not meaningful
            set_gauge_policy("corpus.tasks_per_second", "max")
            gauge_set("corpus.tasks_per_second", done / wall)
    return records


# ---------------------------------------------------------------------------
# Whole-run orchestration: workers claim shards, parent merges
# ---------------------------------------------------------------------------


def _shard_worker(args) -> Tuple[int, List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Pool entry point: run one shard, optionally snapshotting telemetry."""
    config_dict, shard, root, trace = args
    config = CorpusConfig.from_dict(config_dict)
    if not trace:
        return shard, run_shard(config, shard, root), None
    with capture_worker() as capture:
        records = run_shard(config, shard, root)
    return shard, records, capture.snapshot


@dataclass
class CorpusResult:
    """A completed corpus run, ready for packaging and aggregation."""

    config: CorpusConfig
    root: str
    records: List[Dict[str, Any]]
    census: Census
    manifest: Dict[str, Any]
    wall_seconds: float

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)


def run_corpus(
    config: CorpusConfig,
    root: str,
    workers: Optional[int] = None,
    resume: bool = False,
) -> CorpusResult:
    """Run every shard of a corpus, package the manifest, return the result.

    A fresh directory starts a new run (its ``run.json`` pins the config);
    an existing one requires ``resume=True`` and an identical config —
    completed shards are loaded, interrupted ones continue from their last
    committed seed.  With ``workers > 1`` incomplete shards are claimed by
    pool workers (scheduling cannot change any aggregate: shards are
    deterministic serial streams, and the census is rebuilt from their
    records in shard order).
    """
    config.validate()
    if workers is not None and workers < 1:
        raise CorpusError(f"workers must be at least 1, got {workers}")
    t0 = time.perf_counter()
    os.makedirs(root, exist_ok=True)
    run_file = os.path.join(root, RUN_CONFIG_FILE)
    if os.path.exists(run_file):
        with open(run_file, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        stored_config = CorpusConfig.from_dict(stored.get("config", {}))
        if stored_config != config:
            raise CorpusError(
                f"corpus at {root} was started with {stored_config.as_dict()}; "
                f"refusing to continue it with {config.as_dict()}"
            )
        if not resume:
            raise CorpusError(
                f"corpus at {root} already exists; pass resume=True to "
                "continue it or use a fresh directory"
            )
    else:
        diskstore.write_json_atomic(
            run_file, {"schema": RUN_SCHEMA, "config": config.as_dict()}
        )

    with span("corpus") as corpus_span:
        ranges = config.shard_ranges()
        pending = []
        by_shard: Dict[int, List[Dict[str, Any]]] = {}
        for shard, (lo, hi) in enumerate(ranges):
            state = load_shard(shard_path(root, shard), lo, hi)
            if state.next_seed >= hi:
                by_shard[shard] = state.records
            else:
                pending.append(shard)

        n_workers = min(workers or 1, max(len(pending), 1))
        if n_workers <= 1 or len(pending) <= 1:
            for shard in pending:
                by_shard[shard] = run_shard(config, shard, root)
        else:
            trace = tracing_enabled()
            jobs = [(config.as_dict(), shard, root, trace) for shard in pending]
            ctx = multiprocessing.get_context()
            with ctx.Pool(processes=n_workers) as pool:
                for shard, records, snapshot in pool.imap_unordered(
                    _shard_worker, jobs
                ):
                    by_shard[shard] = records
                    if snapshot is not None:
                        merge_worker_snapshot(snapshot)

        records = [r for shard in range(config.shards) for r in by_shard[shard]]
        census = census_from_records(records)
        wall = time.perf_counter() - t0
        annotate(corpus_span, population=census.population, shards=config.shards)
        manifest = build_manifest(config, records, wall_seconds=wall)
        diskstore.write_json_atomic(os.path.join(root, MANIFEST_FILE), manifest)
    return CorpusResult(
        config=config,
        root=root,
        records=records,
        census=census,
        manifest=manifest,
        wall_seconds=wall,
    )


# ---------------------------------------------------------------------------
# Aggregation and packaging
# ---------------------------------------------------------------------------


def census_from_records(records: Iterable[Dict[str, Any]]) -> Census:
    """Rebuild the census aggregates from committed verdict records.

    Produces exactly what :func:`repro.analysis.census.run_census` would
    for the same seeds (isomorphic tasks share all census-relevant verdict
    fields), which is what makes interrupted-and-resumed corpus runs
    bit-identical to uninterrupted ones.
    """
    census = Census()
    for record in records:
        census.add_outcome(
            record["status"],
            record["certificate"],
            record["witness_rounds"],
            int(record["n_splits"]),
        )
    return census


def dedup_stats(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Population / decided / dedup-hit counts and the overall dedup rate."""
    population = decided = hits = 0
    distinct = set()
    decide_seconds = 0.0
    for record in records:
        population += 1
        distinct.add(record["canon_hash"])
        if record["dedup"]:
            hits += 1
        else:
            decided += 1
            decide_seconds += float(record["runtime"])
    return {
        "population": population,
        "decided": decided,
        "dedup_hits": hits,
        "distinct_hashes": len(distinct),
        "rate": (hits / population) if population else 0.0,
        "decide_seconds": decide_seconds,
    }


def build_manifest(
    config: CorpusConfig,
    records: List[Dict[str, Any]],
    wall_seconds: float,
) -> Dict[str, Any]:
    """Package a completed run into a ``repro-corpus/1`` manifest."""
    census = census_from_records(records)
    stats = dedup_stats(records)
    decide_seconds = stats.pop("decide_seconds")
    return {
        "schema": SCHEMA,
        # wall-clock metadata for trend reading, never part of verification
        "created_unix": time.time(),  # repro: ignore[RC405]
        "config": config.as_dict(),
        "population": census.population,
        "dedup": stats,
        "census": {
            "solvable": census.solvable,
            "unsolvable": census.unsolvable,
            "unknown": census.unknown,
            "certificates": dict(census.certificates),
            "witness_depths": {
                str(depth): count for depth, count in census.witness_depths.items()
            },
            "splits_histogram": {
                str(splits): count
                for splits, count in census.splits_histogram.items()
            },
        },
        "throughput": {
            "wall_seconds": wall_seconds,
            "decide_seconds": decide_seconds,
            "tasks_per_second": (
                census.population / wall_seconds if wall_seconds > 0 else 0.0
            ),
        },
        "verdicts": [
            [
                record["seed"],
                record["canon_hash"],
                record["status"],
                record["certificate"],
                record["witness_rounds"],
                record["n_splits"],
            ]
            for record in records
        ],
    }


def census_from_manifest(payload: Dict[str, Any]) -> Census:
    """Reconstruct the ``Census`` a manifest's census section describes."""
    section = payload["census"]
    census = Census()
    census.population = int(payload["population"])
    census.solvable = int(section["solvable"])
    census.unsolvable = int(section["unsolvable"])
    census.unknown = int(section["unknown"])
    census.certificates.update(
        {kind: int(count) for kind, count in section["certificates"].items()}
    )
    census.witness_depths.update(
        {int(depth): int(count) for depth, count in section["witness_depths"].items()}
    )
    census.splits_histogram.update(
        {int(k): int(count) for k, count in section["splits_histogram"].items()}
    )
    return census


def load_manifest(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = validate_manifest(payload)
    if problems:
        raise CorpusError(f"{path}: " + "; ".join(problems))
    return payload


def validate_manifest(payload: Any) -> List[str]:
    """Schema-check a manifest; returns problems (empty = valid)."""
    problems: List[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            problems.append(msg)
        return cond

    if not expect(isinstance(payload, dict), "manifest must be a JSON object"):
        return problems
    expect(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    config = payload.get("config")
    if expect(isinstance(config, dict), "config must be an object"):
        try:
            CorpusConfig.from_dict(config).validate()
        except CorpusError as exc:
            problems.append(str(exc))
    for key in ("population", "dedup", "census", "throughput", "verdicts"):
        expect(key in payload, f"missing key {key!r}")
    verdicts = payload.get("verdicts")
    if expect(isinstance(verdicts, list), "verdicts must be a list"):
        expect(
            payload.get("population") == len(verdicts),
            f"population {payload.get('population')} != {len(verdicts)} verdict rows",
        )
        for i, row in enumerate(verdicts):
            if not (
                isinstance(row, list)
                and len(row) == 6
                and isinstance(row[0], int)
                and isinstance(row[1], str)
                and row[2] in ("solvable", "unsolvable", "unknown")
            ):
                problems.append(f"verdicts[{i}] is not a [seed, hash, status, certificate, witness_rounds, n_splits] row")
                break
    dedup = payload.get("dedup")
    if isinstance(dedup, dict) and isinstance(verdicts, list):
        expect(
            dedup.get("decided", 0) + dedup.get("dedup_hits", 0)
            == payload.get("population"),
            "dedup decided + hits must equal the population",
        )
    return problems


def verify_manifest(
    payload: Dict[str, Any], limit: Optional[int] = None
) -> List[str]:
    """Replay a manifest's verdicts; returns drift descriptions (empty = ok).

    Every row's task is regenerated from its seed, re-hashed, and —
    mirroring the corpus dedup so replay stays fast — re-decided once per
    isomorphism class.  Any difference in canonical hash, status,
    certificate, witness depth or split count is drift: either the
    generator, the hashing, or the decision procedure changed behavior.
    The replay runs with the disk store off, so entries written by older
    code cannot answer for the procedure under test.
    """
    problems = validate_manifest(payload)
    if problems:
        return [f"invalid manifest: {p}" for p in problems]
    config = CorpusConfig.from_dict(payload["config"])
    generator = config.generator_fn()
    rows = payload["verdicts"]
    if limit is not None:
        rows = rows[:limit]
    drift: List[str] = []
    seen: Dict[str, Outcome] = {}
    with diskstore.store_disabled():
        for seed, canon, status, certificate, witness_rounds, n_splits in rows:
            task = generator(seed)
            got_hash = canon_hash(task)
            if got_hash != canon:
                drift.append(
                    f"seed {seed}: canonical hash {got_hash} != recorded {canon}"
                )
                continue
            got = seen.get(canon)
            if got is None:
                got = seen[canon] = decide_class(task, canon, config.max_rounds)
            expected = (status, certificate, witness_rounds, n_splits)
            if got != expected:
                drift.append(
                    f"seed {seed}: verdict {got} != recorded {expected}"
                )
    return drift


__all__ = [
    "DEFAULT_ROOT",
    "GENERATORS",
    "MANIFEST_FILE",
    "RUN_CONFIG_FILE",
    "RUN_SCHEMA",
    "SCHEMA",
    "CorpusConfig",
    "CorpusError",
    "CorpusResult",
    "ShardState",
    "build_manifest",
    "canon_hash",
    "census_from_manifest",
    "census_from_records",
    "dedup_stats",
    "load_manifest",
    "load_shard",
    "run_corpus",
    "run_shard",
    "shard_path",
    "validate_manifest",
    "verify_manifest",
]
