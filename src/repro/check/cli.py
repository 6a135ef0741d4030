"""The ``python -m repro check`` subcommand.

Three modes share one entry point:

* **domain mode** (default): verify zoo tasks and/or task JSON files with
  the Level-1 passes.  ``--deep`` additionally pushes each task through
  the Section 3/4 transform and holds the result to the ``canonical`` and
  ``link`` invariants.
* **self mode** (``--self``): lint the library's own sources with the
  Level-2 AST rules and the gated ``mypy --strict`` / ``ruff`` runners.
* **effects mode** (``--effects``): the Level-3 interprocedural
  cache-soundness / fork-safety analysis of :mod:`repro.check.effects`,
  judged against the committed effect baseline (override with
  ``--baseline``, regenerate with ``--write-baseline``).  Combines with
  ``--self`` for the full source gate.

Output formats: ``text`` (default), ``json``, ``sarif``.  Exit status: 0
when no error-severity finding (and no tool failure) was reported, 1
otherwise; usage errors exit 2 via argparse.

Check runs are observable like every other pipeline command: with
``--trace FILE`` the ``repro-trace/1`` export carries per-code
diagnostic counts as counters.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..tasks.task import Task

from .astlint import lint_result, package_root
from .domain import check_task
from .output import render
from .passes import CheckResult
from .tooling import ToolReport, run_mypy, run_ruff


def _split_codes(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    return parts or None


def repo_root() -> Optional[str]:
    """The repository checkout containing this package, if there is one.

    Returns ``None`` when running from an installed distribution — the
    external-tool gate then reports a skip instead of failing on missing
    source paths.
    """
    candidate = os.path.dirname(os.path.dirname(package_root()))
    if os.path.isfile(os.path.join(candidate, "pyproject.toml")):
        return candidate
    return None


def _self_check(args: argparse.Namespace) -> Tuple[CheckResult, List[ToolReport]]:
    result = lint_result()
    tools: List[ToolReport] = []
    if not args.no_tools:
        root = repo_root()
        if root is None:
            tools.append(
                ToolReport(
                    tool="mypy",
                    status="skipped",
                    detail="no repository checkout found",
                )
            )
            tools.append(
                ToolReport(
                    tool="ruff",
                    status="skipped",
                    detail="no repository checkout found",
                )
            )
        else:
            tools.append(run_mypy(cwd=root))
            tools.append(run_ruff(cwd=root))
    return result, tools


def _load_target(spec: str) -> "Task":
    # imported here: __main__ owns the zoo registry and imports this module
    from ..__main__ import ZOO
    from ..io import load_task

    if spec in ZOO:
        return ZOO[spec]()
    if spec.endswith(".json"):
        # check=False: reporting malformedness is the verifier's job, so the
        # constructor's own validation must not shadow the diagnostics
        return load_task(spec, check=False)
    raise SystemExit(
        f"unknown task {spec!r}; use one of {', '.join(sorted(ZOO))} or a .json file"
    )


def _domain_check(args: argparse.Namespace) -> CheckResult:
    from ..__main__ import ZOO

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    targets: Sequence[str] = args.targets or sorted(ZOO)
    result = CheckResult()
    for spec in targets:
        task = _load_target(spec)
        result.extend(
            check_task(task, deep=args.deep, select=select, ignore=ignore, name=spec)
        )
    return result


def _filter_result(
    result: CheckResult,
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> CheckResult:
    """Apply ``--select``/``--ignore`` code prefixes to reported findings."""
    if select is None and ignore is None:
        return result

    def keep(code: str) -> bool:
        if select is not None and not any(code.startswith(p) for p in select):
            return False
        if ignore is not None and any(code.startswith(p) for p in ignore):
            return False
        return True

    return CheckResult(
        diagnostics=[d for d in result.diagnostics if keep(d.code)],
        subjects=result.subjects,
        passes_run=result.passes_run,
    )


def _record_obs_counters(result: CheckResult) -> None:
    """Record finding counts into the active trace (no-op untraced).

    One counter per reported code plus error/warning totals, so a
    check run's trace says what it found as well as where time went.
    """
    from .. import obs

    if not obs.tracing_enabled():
        return
    for code, n in sorted(Counter(d.code for d in result.diagnostics).items()):
        obs.counter_add(f"check.diag.{code}", float(n))
    obs.counter_add(
        "check.errors",
        float(sum(1 for d in result.diagnostics if d.severity == "error")),
    )
    obs.counter_add(
        "check.warnings",
        float(sum(1 for d in result.diagnostics if d.severity == "warning")),
    )


def cmd_check(args: argparse.Namespace) -> int:
    """Entry point for the ``check`` subcommand."""
    # lazy: __main__ owns the tracing context and imports this module
    from ..__main__ import _tracing_to

    if args.write_baseline:
        if not args.effects:
            raise SystemExit("--write-baseline requires --effects")
        from .effects import DEFAULT_BASELINE_PATH, write_baseline

        path = args.baseline or DEFAULT_BASELINE_PATH
        payload = write_baseline(path)
        n = sum(len(v) for v in payload["declared"].values())
        print(f"wrote {path} ({n} declared effect(s))")
        return 0
    if args.baseline and not args.effects:
        raise SystemExit("--baseline requires --effects")

    source_mode = args.self_check or args.effects
    if source_mode and (args.targets or args.deep):
        raise SystemExit(
            "--self/--effects cannot be combined with task targets or --deep"
        )

    with _tracing_to(args, "check"):
        tools: List[ToolReport] = []
        if source_mode:
            result = CheckResult()
            if args.self_check:
                lint, tools = _self_check(args)
                result.extend(lint)
            if args.effects:
                from .effects import effects_result

                try:
                    result.extend(
                        effects_result(
                            baseline_path=args.baseline,
                            # --self already swept suppressions for RC407
                            report_unknown_suppressions=not args.self_check,
                        )
                    )
                except (FileNotFoundError, ValueError) as exc:
                    raise SystemExit(f"effects baseline error: {exc}")
            result = _filter_result(
                result, _split_codes(args.select), _split_codes(args.ignore)
            )
            if args.strict_tools:
                for t in tools:
                    if t.skipped:
                        t.status = "failed"
                        t.detail = (
                            f"required by --strict-tools but unavailable: {t.detail}"
                        )
        else:
            result = _domain_check(args)
        _record_obs_counters(result)

    report = render(args.format, result, tools, verbose=args.verbose)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
            fh.write("\n")
        print(f"wrote {args.output}")
    else:
        print(report)

    failed_tools = [t for t in tools if not (t.ok or t.skipped)]
    if failed_tools and args.format == "text":
        print(
            f"tool failure(s): {', '.join(t.tool for t in failed_tools)}",
            file=sys.stderr,
        )
    return 0 if result.ok and not failed_tools else 1


def add_check_parser(sub: "argparse._SubParsersAction") -> None:
    """Register the ``check`` subcommand on the repro CLI."""
    p = sub.add_parser(
        "check",
        help="statically verify tasks (and the repo itself)",
        description=(
            "Level-1 domain verification of task invariants with stable "
            "RCxxx diagnostics, (--self) the Level-2 source lint + "
            "mypy/ruff gate, and (--effects) the Level-3 interprocedural "
            "cache-soundness/fork-safety analysis. See "
            "docs/static_analysis.md for the code catalogue."
        ),
    )
    p.add_argument(
        "targets",
        nargs="*",
        help="zoo task names or task JSON files (default: the whole zoo)",
    )
    p.add_argument(
        "--deep",
        action="store_true",
        help="also transform each task (canonicalize + split) and verify "
        "the canonical/link-stage invariants on the result",
    )
    p.add_argument(
        "--self",
        dest="self_check",
        action="store_true",
        help="lint the repro sources (AST rules; plus mypy --strict and "
        "ruff when installed)",
    )
    p.add_argument(
        "--effects",
        action="store_true",
        help="run the Level-3 interprocedural effect analysis (RC50x "
        "cache-soundness + RC51x fork-safety) against the committed "
        "effect baseline; combines with --self",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="with --effects: judge findings against this baseline file "
        "instead of the committed src/repro/check/effects_baseline.json",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="with --effects: regenerate the baseline from the current "
        "findings (preserving existing reasons) instead of checking",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument("--output", metavar="FILE", help="write the report to a file")
    p.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated code prefixes to run exclusively (e.g. RC1,RC203)",
    )
    p.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated code prefixes to suppress",
    )
    p.add_argument(
        "--no-tools",
        action="store_true",
        help="with --self: run only the AST lint, skip mypy/ruff",
    )
    p.add_argument(
        "--strict-tools",
        action="store_true",
        help="with --self: treat missing mypy/ruff as failures (CI mode)",
    )
    p.add_argument("--verbose", action="store_true", help="list checked subjects")
    # lazy: __main__ owns the observability flags and imports this module
    from ..__main__ import _add_observability_args

    _add_observability_args(p)
    p.set_defaults(fn=cmd_check)
