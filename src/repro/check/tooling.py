"""Gated runners for the external tools in the ``check --self`` gate.

The self-check wires three things together: the stdlib AST lint (always
available), ``mypy --strict`` over the typed gate modules, and ``ruff``.
This environment may lack mypy/ruff (the repo pins no network access), so
each runner *gates* on availability: a missing tool yields a
:class:`ToolReport` with status ``"skipped"`` rather than a failure, and
``--strict-tools`` upgrades skips to errors for CI, where the tools are
installed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: modules held to ``mypy --strict`` (the typed gate)
MYPY_GATE: Tuple[str, ...] = ("src/repro/check",)

#: additional mypy flags applied to every gate run
MYPY_FLAGS: Tuple[str, ...] = ("--strict", "--no-error-summary")


@dataclass
class ToolReport:
    """Outcome of one external-tool invocation."""

    tool: str
    status: str  # "ok" | "failed" | "skipped"
    detail: str = ""
    output_lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    def render(self) -> str:
        head = f"[{self.tool}] {self.status}"
        if self.detail:
            head += f" — {self.detail}"
        body = "".join(f"\n  {line}" for line in self.output_lines[:40])
        return head + body


def _find_tool(name: str) -> Optional[List[str]]:
    """Resolve a tool to an argv prefix, preferring the current interpreter."""
    try:
        __import__(name)
        return [sys.executable, "-m", name]
    except ImportError:
        pass
    exe = shutil.which(name)
    if exe is not None:
        return [exe]
    return None


def _run(argv: Sequence[str], cwd: Optional[str], tool: str) -> ToolReport:
    try:
        proc = subprocess.run(
            list(argv),
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=600,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return ToolReport(tool=tool, status="failed", detail=str(exc))
    lines = [ln for ln in (proc.stdout + proc.stderr).splitlines() if ln.strip()]
    if proc.returncode == 0:
        return ToolReport(tool=tool, status="ok", output_lines=lines)
    return ToolReport(
        tool=tool,
        status="failed",
        detail=f"exit code {proc.returncode}",
        output_lines=lines,
    )


def run_mypy(
    targets: Sequence[str] = MYPY_GATE, cwd: Optional[str] = None
) -> ToolReport:
    """``mypy --strict`` over the typed gate, or a skip when unavailable."""
    argv = _find_tool("mypy")
    if argv is None:
        return ToolReport(
            tool="mypy",
            status="skipped",
            detail="mypy is not installed in this environment",
        )
    return _run([*argv, *MYPY_FLAGS, *targets], cwd, "mypy")


def run_ruff(targets: Sequence[str] = ("src", "tests"), cwd: Optional[str] = None) -> ToolReport:
    """``ruff check`` (config comes from pyproject), or a skip when unavailable."""
    argv = _find_tool("ruff")
    if argv is None:
        return ToolReport(
            tool="ruff",
            status="skipped",
            detail="ruff is not installed in this environment",
        )
    return _run([*argv, "check", *targets], cwd, "ruff")
