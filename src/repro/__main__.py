"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the built-in task zoo.
``analyze <task>``
    Run the full characterization on a zoo task (by name) or a task JSON
    file; prints the report, optionally dumps DOT drawings and JSON.
``synthesize <task>``
    Synthesize an executable protocol for a solvable task and validate it
    on the shared-memory simulator.
``census``
    Decide a population of random tasks and print the certificate counts:
    a corpus run, in a temporary directory unless ``--corpus DIR`` keeps
    it (see ``docs/census_corpus.md``).
``conform``
    Run the conformance campaign: decide, synthesize and cross-check every
    SOLVABLE verdict against executions over the full schedule space
    (solo / random / adversarial / exhaustive), with violation shrinking
    and JSON reports (see ``docs/runtime_conformance.md``).
``check``
    Statically verify task invariants (stable ``RCxxx`` diagnostics, with
    witnesses), or lint the library sources themselves (``--self``).
``decide``
    Run just the solvability decision on one task and print the verdict
    with its certificate (obstruction kind or witness depth); ``--json``
    writes the same ``repro-verdict/1`` document the service serves.
``serve``
    Run the solvability verdict server: an asyncio HTTP frontend over a
    content-addressed verdict cache and a batched worker pool
    (``POST /v1/solve``, ``GET /metrics`` Prometheus/JSON exposition,
    ``--access-log`` structured JSONL; see ``docs/service.md``).
``serve-soak``
    Sustain zipf load for ``--duration`` seconds while scraping
    ``/metrics``, fit post-warmup growth slopes for RSS/keymap/cache,
    and exit 1 when any declared ``--max-*-growth`` budget is exceeded;
    emits a ``repro-soak/1`` report.
``trace``
    Work with ``repro-trace/1`` JSON exports produced by ``--trace``:
    ``trace summary`` pretty-prints the span tree and aggregate counters
    (``--top``/``--sort``/``--min-ms`` tame census-sized traces),
    ``trace validate`` schema-checks one or more files (for CI),
    ``trace flame`` emits collapsed stacks for flamegraph.pl/speedscope,
    ``trace export --chrome`` emits Chrome trace-event JSON.

Exit codes
----------

Every command follows the same convention:

* ``0`` — success: the command completed and the answer is definitive
  (task decided, campaign clean, report valid).
* ``1`` — failure: violations found, synthesis failed, check findings,
  or an invalid/unreadable input file.
* ``2`` — inconclusive (the decision procedure returned ``UNKNOWN``
  within its budgets), or a usage error (argparse).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from typing import Callable, Dict

from . import obs

from .analysis import Census
from .analysis import corpus as corpus_mod
from .check.cli import add_check_parser
from .check.preflight import PreflightError, preflight_check
from .io import save_task, task_to_json
from .runtime.conformance import (
    ConformanceConfig,
    census_slice,
    run_campaign,
)
from .service import execution as service_execution
from .service.protocol import ProtocolError, ServiceRequest
from .service.workers import DEFAULT_POOL, POOL_KINDS
from .solvability import Status
from .tasks.task import Task
from .topology.dot import write_dot

#: name -> zero-argument constructor for every CLI-addressable zoo task
#: (re-exported from the shared request/response layer, which owns the
#: registry now that the CLI and the service resolve specs identically)
ZOO: Dict[str, Callable[[], Task]] = service_execution.ZOO


def _resolve_task(spec: str) -> Task:
    """Resolve a spec through the shared layer; usage errors exit."""
    try:
        return service_execution.resolve_task(spec)
    except ProtocolError as exc:
        raise SystemExit(str(exc)) from exc


def _execute(req: ServiceRequest) -> service_execution.ExecutionOutcome:
    """Run one request through the shared layer; usage errors exit."""
    try:
        return service_execution.execute_request(req)
    except ProtocolError as exc:
        raise SystemExit(str(exc)) from exc


@contextlib.contextmanager
def _tracing_to(args, command: str):
    """Trace the wrapped command when it was given ``--trace FILE``.

    A no-op otherwise.  Resets the session recorder so the export covers
    exactly this command, enables tracing (and, with
    ``--profile-memory``, tracemalloc peak-bytes span attrs) for its
    duration, and writes the ``repro-trace/1`` export on the way out —
    including when the command fails, so a crashing run still leaves
    its trace.
    """
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield
        return
    profile_memory = bool(getattr(args, "profile_memory", False))
    obs.reset_recorder()
    previous = obs.set_tracing(True)
    previous_mem = obs.set_memory_profiling(True) if profile_memory else None
    try:
        yield
    finally:
        obs.set_tracing(previous)
        if previous_mem is not None:
            obs.set_memory_profiling(previous_mem)
        obs.write_trace(trace_path, meta={"command": command})
        print(f"wrote {trace_path}")


def cmd_decide(args) -> int:
    task = _resolve_task(args.task)
    req = ServiceRequest(
        op="decide", task=args.task, params={"max_rounds": args.max_rounds}
    )
    with _tracing_to(args, f"decide {args.task}"):
        outcome = _execute(req)
    verdict = outcome.verdict
    print(f"task:    {task.name or args.task}")
    print(f"status:  {verdict.status.value}")
    if verdict.status is Status.UNSOLVABLE:
        print(f"certificate: obstruction {verdict.obstruction.kind}")
        print(f"  {verdict.obstruction.detail}")
    elif verdict.status is Status.SOLVABLE:
        print(f"certificate: witness map at r={verdict.witness_rounds}")
    else:
        print("certificate: none (budgets exhausted)")
    for key in sorted(verdict.stats):
        print(f"  stats.{key} = {verdict.stats[key]}")
    if args.json:
        # the same repro-verdict/1 document the service serves for this
        # spec — canonically ordered so the two are bit-identical
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(outcome.response["verdict"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return outcome.exit_code


def _load_trace(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: cannot read trace: {exc}"]


def _load_valid_trace(path: str):
    """One validated trace payload, or ``None`` after printing problems."""
    payload, problems = _load_trace(path)
    problems.extend(obs.validate_trace(payload) if payload is not None else [])
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return None
    return payload


def cmd_trace(args) -> int:
    if args.action == "summary":
        payload = _load_valid_trace(args.files[0])
        if payload is None:
            return 1
        print(
            obs.format_trace_summary(
                payload,
                max_depth=args.max_depth,
                top=args.top,
                sort=args.sort,
                min_ms=args.min_ms,
            )
        )
        return 0
    if args.action == "flame":
        payload = _load_valid_trace(args.files[0])
        if payload is None:
            return 1
        if args.out:
            n = obs.write_folded(args.out, payload, metric=args.metric)
            print(f"wrote {n} folded stack(s) to {args.out}")
        else:
            print(obs.format_profile(payload, metric=args.metric))
        return 0
    if args.action == "export":
        if not args.chrome:
            raise SystemExit(
                "trace export needs an output format: pass --chrome "
                "(Chrome trace-event JSON for chrome://tracing/Perfetto)"
            )
        payload = _load_valid_trace(args.files[0])
        if payload is None:
            return 1
        if args.out:
            obs.write_chrome_trace(args.out, payload)
            print(f"wrote {args.out}")
        else:
            print(json.dumps(obs.chrome_trace(payload), indent=2, sort_keys=True))
        return 0
    failures = 0
    for path in args.files:
        payload, problems = _load_trace(path)
        if payload is not None:
            problems.extend(obs.validate_trace(payload))
        if problems:
            failures += 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: valid {obs.SCHEMA}")
    return 1 if failures else 0


def cmd_list(_args) -> int:
    width = max(len(n) for n in ZOO)
    for name in sorted(ZOO):
        task = ZOO[name]()
        print(
            f"{name:<{width}}  n={task.n_processes}  "
            f"|I|={len(task.input_complex.facets):>2} facets  "
            f"|O|={len(task.output_complex.facets):>3} facets"
        )
    return 0


def cmd_analyze(args) -> int:
    task = _resolve_task(args.task)
    if args.validate:
        try:
            preflight_check(task)
        except PreflightError as exc:
            raise SystemExit(str(exc)) from exc
    req = ServiceRequest(
        op="analyze", task=args.task, params={"max_rounds": args.max_rounds}
    )
    with _tracing_to(args, f"analyze {args.task}"):
        outcome = _execute(req)
    report = outcome.report
    print(report)
    if args.dot:
        write_dot(task.output_complex, f"{args.dot}-output.dot")
        if report.transform is not None:
            write_dot(
                report.transform.task.output_complex, f"{args.dot}-split.dot"
            )
        print(f"wrote {args.dot}-output.dot")
    if args.json:
        payload = {
            "task": task_to_json(task),
            "verdict": report.verdict.status.value,
            "splits": report.n_splits,
            "laps": report.lap_count,
            "o_prime_components": report.o_prime_components,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if args.save_split and report.transform is not None:
        save_task(report.transform.task, args.save_split)
        print(f"wrote {args.save_split}")
    return outcome.exit_code


def cmd_synthesize(args) -> int:
    _resolve_task(args.task)  # usage errors (unknown spec) exit before tracing
    req = ServiceRequest(
        op="synthesize",
        task=args.task,
        params={
            "max_rounds": args.max_rounds,
            "figure7": args.figure7,
            "runs": args.runs,
            "facets_only": args.facets_only,
        },
    )
    with _tracing_to(args, f"synthesize {args.task}"):
        # only the documented failure modes (SynthesisError, budget
        # exhaustion, preflight rejection) come back as ok:false here;
        # a programming error propagates with its traceback intact
        outcome = _execute(req)
    if not outcome.response["ok"]:
        message = outcome.response["error"]["message"]
        print(f"synthesis failed: {message}", file=sys.stderr)
        return outcome.exit_code
    protocol = outcome.protocol
    print(f"synthesized {protocol.mode} protocol, r={protocol.rounds}")
    report = outcome.validation
    status = "all executions legal" if report.ok else "VIOLATIONS FOUND"
    print(f"validated over {report.runs} executions: {status}")
    for v in report.violations[:3]:
        print(f"  {v}")
    return outcome.exit_code


def cmd_serve(args) -> int:
    import asyncio

    from .service.server import ServerConfig, SolvabilityServer

    config = ServerConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        batch_size=args.batch_size,
        workers=args.workers,
        pool=args.pool,
        access_log=args.access_log,
        sample_interval=args.sample_interval,
    )
    server = SolvabilityServer(config)

    async def _run() -> None:
        await server.start()
        print(
            f"serving on http://{config.host}:{server.port} "
            f"(pool={config.pool}, workers={config.workers}, "
            f"shards={config.shards})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve_soak(args) -> int:
    import json as _json

    from .service import soak as service_soak
    from .service.server import ServerConfig

    config = ServerConfig(
        shards=args.shards,
        batch_size=args.batch_size,
        workers=args.workers,
        pool=args.pool,
        access_log=args.access_log,
        sample_interval=args.sample_interval,
    )
    budgets = service_soak.SoakBudgets(
        rss_bytes_per_s=args.max_rss_growth,
        keymap_entries_per_s=args.max_keymap_growth,
        cache_entries_per_s=args.max_cache_growth,
    )
    with _tracing_to(args, "serve-soak"):
        try:
            report = service_soak.run_soak(
                duration=args.duration,
                concurrency=args.concurrency,
                requests=args.requests,
                pool_size=args.pool_size,
                skew=args.zipf,
                seed=args.seed,
                scrape_interval=args.scrape_interval,
                warmup_fraction=args.warmup_fraction,
                budgets=budgets,
                url=args.url,
                server_config=config,
                scrapes_path=args.scrapes_out,
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
    print(service_soak.format_soak_summary(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    for problem in report["over_budget"]:
        print(f"GATE: {problem}", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_census(args) -> int:
    if args.seeds < 0:
        raise SystemExit(f"--seeds must be non-negative, got {args.seeds}")
    if args.workers is not None and args.workers < 1:
        raise SystemExit(
            f"--workers must be at least 1 (got {args.workers}); omit the flag "
            "to run serially"
        )
    if args.verify is not None:
        return _cmd_census_verify(args)
    if args.corpus is not None:
        return _cmd_census_corpus(args)
    if args.resume:
        raise SystemExit("--resume only makes sense with --corpus DIR")
    if args.shards != 1:
        raise SystemExit("--shards only makes sense with --corpus DIR")
    # a corpus run in a throwaway directory, one shard per worker; an
    # empty seed range is not a corpus, so it prints the empty census
    config = None
    if args.seeds:
        config = _corpus_config(args, shards=min(args.workers or 1, args.seeds))
    with _tracing_to(args, f"census --seeds {args.seeds}"):
        if config is None:
            census = Census()
        else:
            with tempfile.TemporaryDirectory() as root:
                census = _run_corpus(config, root, args).census
    _print_census(census)
    return 0


def _print_census(census) -> None:
    print(f"population: {census.population}")
    print(f"solvable:   {census.solvable}")
    print(f"unsolvable: {census.unsolvable}")
    print(f"unknown:    {census.unknown}")
    print("certificates:")
    for kind, count in sorted(census.certificates.items()):
        print(f"  {kind:<16} {count}")


def _corpus_config(args, shards: int) -> corpus_mod.CorpusConfig:
    config = corpus_mod.CorpusConfig(
        seed_start=0,
        seed_stop=args.seeds,
        shards=shards,
        generator="sparse" if args.sparse else "single",
        max_rounds=args.max_rounds,
    )
    try:
        config.validate()
    except corpus_mod.CorpusError as exc:
        raise SystemExit(str(exc))
    return config


def _run_corpus(config, root: str, args) -> corpus_mod.CorpusResult:
    try:
        return corpus_mod.run_corpus(
            config, root, workers=args.workers, resume=args.resume
        )
    except corpus_mod.CorpusError as exc:
        raise SystemExit(str(exc))


def _cmd_census_corpus(args) -> int:
    """Streaming corpus mode: sharded, resumable, manifest-packaged."""
    config = _corpus_config(args, shards=args.shards)
    with _tracing_to(args, f"census --corpus {args.corpus} --seeds {args.seeds}"):
        result = _run_corpus(config, args.corpus, args)
    _print_census(result.census)
    dedup = result.manifest["dedup"]
    throughput = result.manifest["throughput"]
    print(
        f"dedup:      {dedup['dedup_hits']}/{dedup['population']} "
        f"({dedup['rate']:.1%}), {dedup['distinct_hashes']} isomorphism classes"
    )
    print(
        f"throughput: {throughput['tasks_per_second']:.1f} tasks/s "
        f"over {result.config.shards} shard(s)"
    )
    print(f"manifest:   {result.manifest_path}")
    return 0


def _cmd_census_verify(args) -> int:
    """Replay a committed corpus manifest and report verdict drift."""
    try:
        payload = corpus_mod.load_manifest(args.verify)
    except (OSError, ValueError, corpus_mod.CorpusError) as exc:
        raise SystemExit(f"cannot load manifest {args.verify}: {exc}")
    with _tracing_to(args, f"census --verify {args.verify}"):
        drift = corpus_mod.verify_manifest(payload)
    if drift:
        print(f"DRIFT: {len(drift)} of {payload['population']} rows diverge:")
        for line in drift[:10]:
            print(f"  {line}")
        if len(drift) > 10:
            print(f"  ... and {len(drift) - 10} more")
        return 1
    print(
        f"manifest verified: {payload['population']} verdicts "
        f"({payload['dedup']['distinct_hashes']} isomorphism classes), no drift"
    )
    return 0


def cmd_conform(args) -> int:
    names = []
    if args.suite == "zoo":
        names.extend(sorted(ZOO))
    if args.tasks:
        for name in args.tasks.split(","):
            name = name.strip()
            if name and name not in names:
                names.append(name)
    if args.census:
        names.extend(census_slice(range(args.census)))
    if not names:
        raise SystemExit("nothing to conform: pass --suite zoo, --tasks or --census")
    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"--workers must be at least 1, got {args.workers}")
    config = ConformanceConfig(
        participation=args.participation,
        random_runs=args.random_runs,
        exhaustive_limit=args.exhaustive,
        adversarial=not args.no_adversarial,
        max_rounds=args.max_rounds,
        max_steps=args.max_steps,
        seed=args.seed,
        prefer_direct=not args.figure7,
        shrink=not args.no_shrink,
    )
    with _tracing_to(args, f"conform {','.join(names)}"):
        report = run_campaign(names, config, workers=args.workers)
    width = max(len(t.name) for t in report.tasks)
    for t in report.tasks:
        if t.status == "solvable":
            detail = (
                f"{t.total_runs:>5} runs  mode={t.mode:<8} "
                f"max-steps={t.max_steps_seen}"
            )
            mark = "ok" if t.ok else f"{len(t.violations)} VIOLATIONS"
        else:
            detail = "skipped (no protocol to validate)"
            mark = t.status
        print(f"{t.name:<{width}}  {t.status:<10} {detail}  [{mark}]")
        if t.error:
            print(f"{'':<{width}}  error: {t.error}")
        for v in t.violations[:3]:
            print(
                f"{'':<{width}}  {v.phase}/{v.detail} on {v.inputs_repr}: "
                f"{v.reason} (schedule {list(v.schedule)}, shrunk from "
                f"{v.original_length} steps)"
            )
    print(
        f"campaign: {len(report.tasks)} tasks, {report.total_runs} runs, "
        f"{report.total_violations} violations, {report.seconds:.1f}s"
    )
    if args.json:
        report.write(args.json)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--profile-memory`` for traced commands.

    Only ``--trace FILE`` switches tracing on; ``--profile-memory`` adds
    span attributes to that trace, so alone it is a usage error.
    """
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="export a repro-trace/1 JSON span/counter trace of the run",
    )
    p.add_argument(
        "--profile-memory",
        action="store_true",
        help="attach tracemalloc peak-bytes attrs to the --trace spans "
        "(slows allocation-heavy stages)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Three-process task solvability: the PODC'25 characterization.",
        epilog=(
            "exit codes: 0 success / definitive answer; 1 failure "
            "(violations, synthesis failure, check findings, invalid input); "
            "2 inconclusive (UNKNOWN verdict) or usage error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in task zoo").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("analyze", help="run the characterization on a task")
    p.add_argument("task", help="zoo name or task JSON file")
    p.add_argument("--max-rounds", type=int, default=2)
    p.add_argument(
        "--validate",
        action="store_true",
        help="run the repro.check structural passes before analyzing",
    )
    p.add_argument("--dot", metavar="PREFIX", help="export DOT drawings")
    p.add_argument("--json", metavar="FILE", help="write a JSON summary")
    p.add_argument("--save-split", metavar="FILE", help="save the split task")
    _add_observability_args(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "decide",
        help="run just the solvability decision on a task "
        "(exit 0 decided, 2 UNKNOWN)",
    )
    p.add_argument("task", help="zoo name or task JSON file")
    p.add_argument("--max-rounds", type=int, default=2)
    p.add_argument(
        "--json",
        metavar="FILE",
        help="write the repro-verdict/1 verdict JSON (bit-identical to "
        "what the service serves for the same spec)",
    )
    _add_observability_args(p)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser(
        "trace",
        help="summarize, validate or export repro-trace/1 JSON traces",
    )
    p.add_argument(
        "action",
        choices=["summary", "validate", "flame", "export"],
        help="'summary' pretty-prints one trace; 'validate' schema-checks "
        "each file (exit 1 on any invalid trace); 'flame' emits collapsed "
        "stacks for flamegraph.pl/speedscope; 'export --chrome' emits "
        "Chrome trace-event JSON",
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate the span tree below this depth (summary only)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="summary: replace the span tree with the N busiest span names "
        "(essential on census/conformance traces)",
    )
    p.add_argument(
        "--sort",
        choices=["wall", "cpu", "count"],
        default="wall",
        help="summary: ordering for the --top table (default wall)",
    )
    p.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="summary: hide spans (and their subtrees) faster than MS "
        "milliseconds wall",
    )
    p.add_argument(
        "--metric",
        choices=["wall", "cpu"],
        default="wall",
        help="flame: which clock the folded counts measure (default wall)",
    )
    p.add_argument(
        "--chrome",
        action="store_true",
        help="export: emit Chrome trace-event JSON "
        "(chrome://tracing, Perfetto, speedscope)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="flame/export: write to FILE instead of stdout",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("synthesize", help="synthesize and validate a protocol")
    p.add_argument("task")
    p.add_argument("--max-rounds", type=int, default=2)
    p.add_argument("--figure7", action="store_true", help="force the Figure 7 mode")
    p.add_argument("--runs", type=int, default=10, help="random schedules per input")
    p.add_argument("--facets-only", action="store_true")
    _add_observability_args(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser(
        "serve",
        help="run the solvability verdict server "
        "(POST /v1/solve, GET /healthz, GET /v1/stats; docs/service.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 = OS-assigned; default 8642)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=2,
        help="batch-queue shards (default 2)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="max requests per worker dispatch (default 8)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker pool size (default 1)",
    )
    p.add_argument(
        "--pool",
        choices=POOL_KINDS,
        default=DEFAULT_POOL,
        help=f"worker pool kind (default {DEFAULT_POOL}: decides run in "
        "forked worker processes that the event loop feeds and reads over "
        "pipes; 'thread' keeps the decide path's spans and counters in the "
        "server; 'inline' executes on the event loop, for debugging)",
    )
    p.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one structured JSONL line per completed request",
    )
    p.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="resource sampler period feeding /metrics time series "
        "(default 1.0)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "serve-soak",
        help="sustained zipf load with /metrics scraping and growth-slope "
        "budgets; exits 1 on over-budget growth (docs/service.md)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="how long to sustain the load (default 20; nightly runs use "
        "hours)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="client worker threads cycling the stream (default 4)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=200,
        help="length of the cycled request stream (default 200)",
    )
    p.add_argument(
        "--pool-size",
        type=int,
        default=6,
        help="distinct specs in the generated workload (default 6)",
    )
    p.add_argument(
        "--zipf",
        type=float,
        default=1.2,
        help="zipf skew of the generated workload (default 1.2)",
    )
    p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    p.add_argument(
        "--scrape-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how often to scrape /metrics during the run (default 2.0)",
    )
    p.add_argument(
        "--warmup-fraction",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="initial fraction of the run excluded from slope fits "
        "(default 0.25)",
    )
    p.add_argument(
        "--max-rss-growth",
        type=float,
        default=None,
        metavar="BYTES_PER_S",
        help="exit 1 if post-warmup RSS grows faster than this",
    )
    p.add_argument(
        "--max-keymap-growth",
        type=float,
        default=None,
        metavar="ENTRIES_PER_S",
        help="exit 1 if the keymap grows faster than this",
    )
    p.add_argument(
        "--max-cache-growth",
        type=float,
        default=None,
        metavar="ENTRIES_PER_S",
        help="exit 1 if the memory cache grows faster than this",
    )
    p.add_argument(
        "--url",
        metavar="URL",
        help="soak an already-running server instead of starting one "
        "in-process",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="write the repro-soak/1 report to FILE",
    )
    p.add_argument(
        "--scrapes-out",
        metavar="FILE",
        help="append every /metrics scrape as one JSONL line",
    )
    p.add_argument(
        "--access-log",
        metavar="FILE",
        help="in-process server: structured JSONL access log",
    )
    p.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="in-process server: resource sampler period (default 1.0)",
    )
    p.add_argument(
        "--shards", type=int, default=2, help="in-process server: shards"
    )
    p.add_argument(
        "--batch-size", type=int, default=8, help="in-process server: batch size"
    )
    p.add_argument(
        "--workers", type=int, default=1, help="in-process server: pool size"
    )
    p.add_argument(
        "--pool",
        choices=POOL_KINDS,
        default="thread",
        help="in-process server: pool kind (default thread, so that the RSS "
        "budget covers the decides)",
    )
    _add_observability_args(p)
    p.set_defaults(fn=cmd_serve_soak)

    p = sub.add_parser("census", help="decide a random-task population")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--max-rounds", type=int, default=1)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes, at least 1 (omit to run serially); "
        "without --corpus the seed range splits into one shard per worker",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="streaming corpus mode: shard the seed range into resumable "
        "JSONL checkpoints under DIR and package a repro-corpus/1 manifest "
        "(docs/census_corpus.md)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of corpus shards (contiguous seed sub-ranges; "
        "requires --corpus)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted corpus run from each shard's last "
        "committed seed (requires --corpus)",
    )
    p.add_argument(
        "--verify",
        metavar="MANIFEST",
        default=None,
        help="replay a committed corpus manifest seed-by-seed and fail on "
        "any verdict drift (exclusive with --corpus)",
    )
    _add_observability_args(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser(
        "conform",
        help="cross-check solvability verdicts against executions "
        "(docs/runtime_conformance.md)",
    )
    p.add_argument(
        "--suite",
        choices=["zoo", "none"],
        default="none",
        help="'zoo' conforms every built-in task",
    )
    p.add_argument(
        "--tasks", metavar="A,B,…", help="comma-separated zoo task names to add"
    )
    p.add_argument(
        "--census",
        type=int,
        default=0,
        metavar="N",
        help="also conform the first N census tasks (seeds 0..N-1)",
    )
    p.add_argument(
        "--participation",
        choices=["all", "facets"],
        default="all",
        help="validate all input faces (default) or facets only",
    )
    p.add_argument("--random-runs", type=int, default=10)
    p.add_argument(
        "--exhaustive",
        type=int,
        default=50,
        metavar="LIMIT",
        help="exhaustively enumerated executions per input (0 disables)",
    )
    p.add_argument("--max-rounds", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--figure7",
        action="store_true",
        help="force the Figure 7 synthesis mode (skip the direct-mode search)",
    )
    p.add_argument("--no-adversarial", action="store_true")
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for the campaign pool, at least 1 "
        "(omit for one process per CPU)",
    )
    p.add_argument("--json", metavar="FILE", help="write the JSON report")
    _add_observability_args(p)
    p.set_defaults(fn=cmd_conform)

    add_check_parser(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile_memory", False) and not args.trace:
        parser.error("--profile-memory only annotates a trace: add --trace FILE")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
