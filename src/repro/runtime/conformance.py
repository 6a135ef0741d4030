"""Conformance campaigns: differential testing of verdicts vs executions.

The decision procedure (Theorem 5.1) and the synthesis layer (Figure 7 /
Lemma 5.3) make a strong pair of claims: a SOLVABLE verdict carries a
witness, and the witness compiles to a wait-free protocol that survives
*every* schedule.  This module is the engine that holds the implementation
to that claim, in the differential-testing spirit of the algorithmic-ACT
line (Saraph–Herlihy–Gafni) and the schedule-subset view of GACT:

for every task in a suite
    1. run :func:`~repro.solvability.decision.decide_solvability`;
    2. for each SOLVABLE verdict, synthesize the executable protocol;
    3. validate it across the full schedule space — solo-block
       permutations, seeded random schedules, the adversary battery of
       :mod:`repro.runtime.adversary`, and exhaustive prefix-tree
       enumeration (:func:`~repro.runtime.scheduler.explore_schedules`);
    4. shrink any violating schedule to a minimal replayable witness.

Campaigns fan out over a :mod:`multiprocessing` pool: workers receive
task *names* (zoo entries or ``census-<seed>`` slices) and reconstruct
the tasks locally, so only small, picklable :class:`TaskConformance`
results cross process boundaries.  The aggregate
:class:`ConformanceReport` serializes to JSON (``schema
repro-conformance/1``) for CI gates and cross-PR diffing; the CLI front
end is ``python -m repro conform``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..obs import (
    annotate,
    capture_worker,
    counter_add,
    merge_worker_snapshot,
    span,
    tracing_enabled,
)
from ..solvability.decision import Status, decide_solvability
from ..tasks.task import Task
from ..topology.simplex import Simplex
from .adversary import run_adversarial, standard_battery
from .scheduler import (
    ExecutionTrace,
    SchedulerError,
    explore_schedules,
    run_random,
    run_solo_blocks,
    run_with_schedule,
)
from .simulation import check_trace, derive_run_seed, participation_simplices
from .synthesis import SynthesisError, synthesize_protocol

#: Report format identifier; bump the suffix on breaking changes.
SCHEMA = "repro-conformance/1"

#: The four schedule families every campaign exercises, in run order.
PHASES = ("solo", "random", "adversarial", "exhaustive")

FactoryBuilder = Callable[[Simplex], Dict[int, Callable[[int], Generator]]]


@dataclass(frozen=True)
class ConformanceConfig:
    """Campaign knobs.  Plain primitives only — the config rides along to
    pool workers, so it must stay picklable and cheap."""

    participation: str = "all"  # "all" faces or input "facets" only
    random_runs: int = 10
    exhaustive_limit: int = 50  # executions per input; 0 disables the phase
    adversarial: bool = True
    max_rounds: int = 2
    max_steps: int = 100_000
    seed: int = 0
    prefer_direct: bool = True
    shrink: bool = True
    shrink_budget: int = 200  # replay attempts per violating schedule

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ViolationRecord:
    """One failed execution, shrunk to a minimal replayable schedule.

    ``schedule`` is the (possibly shrunk) explicit prefix; replaying it
    with :func:`~repro.runtime.scheduler.run_with_schedule` — remaining
    steps run round-robin — reproduces a violation.  ``input_index`` is
    the position of the input simplex in the campaign's deterministic
    participation order, so a record can be replayed from the report alone
    given the task and protocol.
    """

    phase: str
    detail: str  # run order / seed / adversary-strategy name
    input_index: int
    inputs_repr: str
    reason: str
    schedule: Tuple[int, ...]
    original_length: int
    shrink_attempts: int = 0

    def as_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["schedule"] = list(self.schedule)
        return payload


@dataclass
class TaskConformance:
    """The campaign outcome for one task."""

    name: str
    status: str  # verdict status value, or "error"
    mode: Optional[str] = None  # synthesis mode for SOLVABLE tasks
    rounds: Optional[int] = None
    fallback_reason: Optional[str] = None
    runs: Dict[str, int] = field(default_factory=dict)  # phase -> count
    total_steps: int = 0
    max_steps_seen: int = 0
    step_histogram: Dict[str, int] = field(default_factory=dict)
    violations: List[ViolationRecord] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None

    @property
    def total_runs(self) -> int:
        return sum(self.runs.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "mode": self.mode,
            "rounds": self.rounds,
            "fallback_reason": self.fallback_reason,
            "runs": dict(self.runs),
            "total_runs": self.total_runs,
            "total_steps": self.total_steps,
            "max_steps_seen": self.max_steps_seen,
            "step_histogram": dict(self.step_histogram),
            "violations": [v.as_dict() for v in self.violations],
            "seconds": self.seconds,
            "error": self.error,
        }


@dataclass
class ConformanceReport:
    """Aggregate of a whole campaign, serializable to JSON."""

    tasks: List[TaskConformance] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tasks)

    @property
    def total_runs(self) -> int:
        return sum(t.total_runs for t in self.tasks)

    @property
    def total_violations(self) -> int:
        return sum(len(t.violations) for t in self.tasks)

    def by_name(self, name: str) -> TaskConformance:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "config": dict(self.config),
            "seconds": self.seconds,
            "ok": self.ok,
            "total_runs": self.total_runs,
            "total_violations": self.total_violations,
            "tasks": [t.as_dict() for t in self.tasks],
        }

    def write(self, path: str) -> Dict[str, Any]:
        payload = self.as_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"{self.total_violations} violations"
        return (
            f"ConformanceReport[{len(self.tasks)} tasks, "
            f"{self.total_runs} runs, {status}]"
        )


def _step_bucket(steps: int) -> str:
    """Power-of-two histogram bucket label for a per-run step total."""
    if steps <= 0:
        return "0"
    lo = 1
    while lo * 2 <= steps:
        lo *= 2
    return f"{lo}-{2 * lo - 1}"


def shrink_schedule(
    violates: Callable[[Sequence[int]], bool],
    schedule: Sequence[int],
    budget: int = 200,
) -> Tuple[Tuple[int, ...], int]:
    """Minimize a violating schedule by greedy delta-debugging.

    ``violates(candidate)`` replays a candidate explicit prefix (remaining
    steps run round-robin) and reports whether it still fails.  Chunks of
    halving sizes are removed while the violation persists, then single
    entries.  Returns the shrunk schedule and the number of replay
    attempts spent (capped by ``budget``).
    """
    current = list(schedule)
    attempts = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        while i < len(current):
            if attempts >= budget:
                return tuple(current), attempts
            candidate = current[:i] + current[i + chunk :]
            attempts += 1
            if violates(candidate):
                current = candidate
            else:
                i += chunk
        chunk //= 2
    return tuple(current), attempts


def replay_violation(
    task: Task,
    build: FactoryBuilder,
    record: ViolationRecord,
    config: Optional[ConformanceConfig] = None,
) -> Optional[str]:
    """Replay a violation record against a task/protocol; returns the
    violation reason (``None`` would mean the record no longer reproduces).
    """
    config = config or ConformanceConfig()
    inputs = participation_simplices(task, config.participation)[record.input_index]
    n = max(inputs.colors()) + 1
    trace = run_with_schedule(
        n, build(inputs), record.schedule, max_steps=config.max_steps
    )
    return check_trace(task, inputs, trace)


def conform_protocol(
    task: Task,
    build: FactoryBuilder,
    config: Optional[ConformanceConfig] = None,
    name: str = "protocol",
) -> TaskConformance:
    """Validate one executable protocol across the full schedule space.

    This is the inner engine of :func:`conform_task`, usable directly on
    hand-written protocol builders (e.g. deliberately broken fixtures).
    Each execution is checked with
    :func:`~repro.runtime.simulation.check_trace`; every violating
    schedule is shrunk to a minimal replayable prefix.
    """
    config = config or ConformanceConfig()
    t0 = time.perf_counter()
    result = TaskConformance(name=name, status=Status.SOLVABLE.value)
    result.runs = {phase: 0 for phase in PHASES}

    for input_index, inputs in enumerate(
        participation_simplices(task, config.participation)
    ):
        with span("conform.input", index=input_index, inputs=repr(inputs)):
            n = max(inputs.colors()) + 1
            pids = sorted(inputs.colors())

            def violates(candidate: Sequence[int]) -> bool:
                trace = run_with_schedule(
                    n, build(inputs), candidate, max_steps=config.max_steps
                )
                return check_trace(task, inputs, trace) is not None

            def record(phase: str, detail: str, trace: ExecutionTrace) -> None:
                result.runs[phase] += 1
                counter_add(f"conform.runs.{phase}")
                steps = trace.total_steps()
                counter_add("conform.steps", steps)
                result.total_steps += steps
                result.max_steps_seen = max(result.max_steps_seen, steps)
                bucket = _step_bucket(steps)
                result.step_histogram[bucket] = (
                    result.step_histogram.get(bucket, 0) + 1
                )
                reason = check_trace(task, inputs, trace)
                if reason is None:
                    return
                counter_add("conform.violations")
                schedule: Tuple[int, ...] = tuple(trace.schedule)
                attempts = 0
                if config.shrink:
                    schedule, attempts = shrink_schedule(
                        violates, schedule, budget=config.shrink_budget
                    )
                    reason = (
                        check_trace(
                            task,
                            inputs,
                            run_with_schedule(
                                n, build(inputs), schedule, max_steps=config.max_steps
                            ),
                        )
                        or reason
                    )
                result.violations.append(
                    ViolationRecord(
                        phase=phase,
                        detail=detail,
                        input_index=input_index,
                        inputs_repr=repr(inputs),
                        reason=reason,
                        schedule=schedule,
                        original_length=len(trace.schedule),
                        shrink_attempts=attempts,
                    )
                )

            try:
                # 1. sequential solo blocks: every participation permutation
                for order in itertools.permutations(pids):
                    record(
                        "solo",
                        f"order={order}",
                        run_solo_blocks(
                            n, build(inputs), order, max_steps=config.max_steps
                        ),
                    )

                # 2. seeded random schedules (input simplex + run index mixed in)
                for k in range(config.random_runs):
                    seed = derive_run_seed(config.seed, inputs, k)
                    record(
                        "random",
                        f"k={k}",
                        run_random(
                            n, build(inputs), seed=seed, max_steps=config.max_steps
                        ),
                    )

                # 3. the adversary battery
                if config.adversarial:
                    for strategy_name, strategy in standard_battery(pids):
                        record(
                            "adversarial",
                            strategy_name,
                            run_adversarial(
                                n, build(inputs), strategy, max_steps=config.max_steps
                            ),
                        )

                # 4. exhaustive prefix-tree enumeration under a budget
                if config.exhaustive_limit:
                    for i, trace in enumerate(
                        explore_schedules(
                            n,
                            build(inputs),
                            max_executions=config.exhaustive_limit,
                            max_steps=config.max_steps,
                        )
                    ):
                        record("exhaustive", f"dfs={i}", trace)
            except SchedulerError as exc:
                result.error = f"input {inputs!r}: {exc}"
                break

    result.seconds = time.perf_counter() - t0
    return result


def conform_task(
    task: Task,
    config: Optional[ConformanceConfig] = None,
    name: Optional[str] = None,
) -> TaskConformance:
    """Run the full decide → synthesize → validate pipeline on one task.

    UNSOLVABLE / UNKNOWN verdicts produce a zero-run record (there is no
    protocol to validate — the impossibility side is covered by the
    benchmark suite's naive-protocol experiments); synthesis failures on a
    SOLVABLE verdict are conformance *errors*, not skips.
    """
    config = config or ConformanceConfig()
    name = name or task.name or "task"
    with span("conform.task", name=name) as task_span:
        result = _conform_task(task, config, name)
        annotate(
            task_span,
            status=result.status,
            runs=result.total_runs,
            violations=len(result.violations),
        )
    return result


def _conform_task(
    task: Task, config: ConformanceConfig, name: str
) -> TaskConformance:
    """The decide → synthesize → validate chain inside the per-task span."""
    t0 = time.perf_counter()
    verdict = decide_solvability(task, max_rounds=config.max_rounds)
    if verdict.status is not Status.SOLVABLE:
        return TaskConformance(
            name=name,
            status=verdict.status.value,
            seconds=time.perf_counter() - t0,
        )
    try:
        with span("conform.synthesize"):
            protocol = synthesize_protocol(
                task, verdict=verdict, prefer_direct=config.prefer_direct
            )
    except (SynthesisError, SchedulerError) as exc:
        return TaskConformance(
            name=name,
            status="error",
            error=f"synthesis failed: {exc}",
            seconds=time.perf_counter() - t0,
        )
    result = conform_protocol(task, protocol.factories, config, name=name)
    result.mode = protocol.mode
    result.rounds = protocol.rounds
    result.fallback_reason = protocol.fallback_reason
    result.seconds = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# Campaign fan-out (multiprocessing)
# ---------------------------------------------------------------------------

CENSUS_PREFIX = "census-"


def resolve_campaign_task(name: str) -> Task:
    """Resolve a campaign task name to a task, locally in each worker.

    Zoo names come from :func:`repro.tasks.zoo.standard_zoo`;
    ``census-<seed>`` names draw from the seeded random-task family used
    by the census engine, making a census slice addressable by name.
    """
    from ..tasks.zoo import standard_zoo
    from ..tasks.zoo.random_tasks import random_single_input_task

    if name.startswith(CENSUS_PREFIX):
        seed_text = name[len(CENSUS_PREFIX) :]
        try:
            seed = int(seed_text)
        except ValueError as exc:
            raise ValueError(f"bad census task name {name!r}") from exc
        return random_single_input_task(seed)
    registry = standard_zoo()
    if name not in registry:
        raise ValueError(
            f"unknown campaign task {name!r}; expected a zoo name or "
            f"'{CENSUS_PREFIX}<seed>'"
        )
    return registry[name]()


def census_slice(seeds: Sequence[int]) -> List[str]:
    """Campaign names for a census slice: one per seed."""
    return [f"{CENSUS_PREFIX}{seed}" for seed in seeds]


def _conform_one(name: str, config: ConformanceConfig) -> TaskConformance:
    """Resolve one task by name and conform it, never letting an exception
    escape: a raising worker would otherwise abort the whole campaign
    (``pool.map`` re-raises in the parent), losing every other task's
    result.  Unexpected exceptions become ``status="error"`` records."""
    try:
        task = resolve_campaign_task(name)
    except ValueError as exc:
        return TaskConformance(name=name, status="error", error=str(exc))
    try:
        return conform_task(task, config, name=name)
    except Exception as exc:  # noqa: BLE001 — campaign must survive any task
        return TaskConformance(
            name=name, status="error", error=f"{type(exc).__name__}: {exc}"
        )


def _conform_entry(
    args: Tuple[str, ConformanceConfig, bool]
) -> Tuple[TaskConformance, Optional[Dict[str, Any]]]:
    """Pool worker entry point; optionally captures an obs snapshot.

    ``trace`` is the dispatching parent's tracing flag: when set, the
    task runs under :func:`repro.obs.capture_worker` and its spans,
    counters and cache delta ride back with the result for parent-side
    aggregation (serial in-process execution passes ``False`` and records
    straight into the parent recorder instead).
    """
    name, config, trace = args
    if not trace:
        return _conform_one(name, config), None
    with capture_worker() as capture:
        result = _conform_one(name, config)
    return result, capture.snapshot


def run_campaign(
    names: Sequence[str],
    config: Optional[ConformanceConfig] = None,
    workers: Optional[int] = None,
) -> ConformanceReport:
    """Conform a suite of named tasks, optionally over a worker pool.

    ``workers=None`` uses one process per CPU, ``workers == 1`` runs
    serially in-process (no pool), and per-task determinism guarantees the
    report is independent of scheduling (task order in the report is the
    input order of ``names``).
    """
    config = config or ConformanceConfig()
    names = list(names)
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be at least 1, got {workers} "
            "(pass None to use one process per CPU)"
        )
    t0 = time.perf_counter()
    n_workers = (os.cpu_count() or 1) if workers is None else workers
    n_workers = min(n_workers, max(len(names), 1))
    if n_workers <= 1 or len(names) <= 1:
        # serial: record straight into this process's recorder (trace=False)
        outcomes = [_conform_entry((name, config, False)) for name in names]
    else:
        jobs = [(name, config, tracing_enabled()) for name in names]
        with multiprocessing.get_context().Pool(processes=n_workers) as pool:
            # map (not imap_unordered) keeps report order == input order
            # even when names repeat; per-task determinism makes scheduling
            # invisible to the content
            outcomes = pool.map(_conform_entry, jobs, chunksize=1)
    results = []
    for result, snapshot in outcomes:
        results.append(result)
        if snapshot is not None:
            merge_worker_snapshot(snapshot)
    return ConformanceReport(
        tasks=results,
        config=config.as_dict(),
        seconds=time.perf_counter() - t0,
    )
