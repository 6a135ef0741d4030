"""``repro.check`` — a pass-based static verifier for tasks and the repo.

The solvability pipeline (canonical form → LAP elimination → carried-map
search; Theorems 3.1/4.3/5.1) is only sound on inputs satisfying structural
invariants: proper chromatic coloring, monotone name-preserving carrier
maps, total rigid deltas, genuinely link-connected outputs.  This package
verifies those invariants *statically*, before any decision procedure runs,
and additionally lints the library's own sources for the hazards the fast
topology core introduced (interned-object mutation, nondeterministic
task generation).

Three levels:

* **Level 1 — domain passes** (:mod:`repro.check.domain`): a pass manager
  over :class:`~repro.tasks.task.Task`,
  :class:`~repro.topology.complexes.SimplicialComplex` and
  :class:`~repro.topology.carrier.CarrierMap` objects.  Every finding is a
  :class:`~repro.check.diagnostics.Diagnostic` with a stable ``RCxxx`` code
  and a concrete witness (the offending simplex, vertex or link component).
* **Level 2 — code passes** (:mod:`repro.check.astlint`): a stdlib-``ast``
  lint over ``src/repro`` enforcing repo-specific rules, plus gated runners
  for ``mypy --strict`` and ``ruff`` (:mod:`repro.check.tooling`).
  Findings suppress locally with ``# repro: ignore[RCxxx]`` comments
  (:mod:`repro.check.suppress`).
* **Level 3 — effect analysis** (:mod:`repro.check.effects`): a
  whole-package call graph (:mod:`repro.check.callgraph`) with per-function
  effect signatures propagated to fixpoint, enforcing cache-soundness
  (``RC50x``) and fork-safety (``RC51x``) against a committed effect
  baseline.

Entry points: ``python -m repro check`` (text/JSON/SARIF output; see
:mod:`repro.check.cli`) and the ``validate=`` pre-flight hook of
:func:`repro.solvability.decision.decide_solvability` (see
:func:`preflight_check`).  ``docs/static_analysis.md`` catalogues every
diagnostic code.
"""

from .astlint import LINT_RULES, lint_paths, lint_source
from .callgraph import CallGraph, build_call_graph, find_path, iter_reachable
from .diagnostics import CODES, CodeInfo, Diagnostic, Severity, describe_code
from .domain import (
    DOMAIN_PASSES,
    check_carrier_map,
    check_complex,
    check_task,
    run_domain_checks,
)
from .effects import (
    Baseline,
    EffectAnalysis,
    analyze_package,
    effects_result,
    load_baseline,
    write_baseline,
)
from .passes import CheckResult, DomainPass, iter_passes
from .preflight import PreflightError, preflight_check
from .suppress import find_suppressions, unknown_suppression_diagnostics
from .tooling import ToolReport, run_mypy, run_ruff

__all__ = [
    "Baseline",
    "CODES",
    "CallGraph",
    "CheckResult",
    "CodeInfo",
    "DOMAIN_PASSES",
    "Diagnostic",
    "DomainPass",
    "EffectAnalysis",
    "LINT_RULES",
    "PreflightError",
    "Severity",
    "ToolReport",
    "analyze_package",
    "build_call_graph",
    "check_carrier_map",
    "check_complex",
    "check_task",
    "describe_code",
    "effects_result",
    "find_path",
    "find_suppressions",
    "iter_passes",
    "iter_reachable",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "preflight_check",
    "run_domain_checks",
    "run_mypy",
    "run_ruff",
    "unknown_suppression_diagnostics",
    "write_baseline",
]
