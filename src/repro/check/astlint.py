"""Level-2 source lint: repo-specific hazards, enforced with ``ast``.

The fast topology core made several conventions load-bearing:
simplices and vertices are *interned*, so mutating one corrupts every
aliased copy; census aggregates are reproducible only because task
generation is seeded.  None of these rules can be expressed in mypy or
ruff, so this module walks the ``src/repro`` ASTs itself.

Rules (see ``docs/static_analysis.md`` for examples):

``RC401``
    No attribute writes to interned ``Simplex``/``Vertex`` state (and no
    ``object.__setattr__`` escape hatch) outside the topology core.
``RC404``
    Dataclasses in :mod:`repro.topology` and :mod:`repro.splitting` must
    be ``frozen=True``, and the core topology value types must stay
    ``__slots__``-ed.
``RC405``
    No unseeded randomness or wall-clock reads in census/task-generation
    code (``repro.analysis``, ``repro.tasks.zoo.random_tasks``).

All rules are pure functions of a single file's AST; ``lint_source`` lints
one source string (unit-testable) and ``lint_paths`` walks a tree.
"""

from __future__ import annotations

import ast
import os
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .diagnostics import Diagnostic

if TYPE_CHECKING:
    from .passes import CheckResult

#: attributes that make up interned Simplex/Vertex state
INTERNED_ATTRS: FrozenSet[str] = frozenset(
    {"color", "value", "vertices", "_hash", "_sorted", "_key", "_colors", "_chromatic", "_faces"}
)

#: files allowed to touch interned state (topology core)
_TOPOLOGY_CORE: FrozenSet[str] = frozenset(
    {
        "topology/simplex.py",
        "topology/complexes.py",
    }
)

#: directories whose dataclasses must be frozen
_FROZEN_DATACLASS_DIRS: Tuple[str, ...] = ("topology/", "splitting/")

#: core value-type modules that must keep __slots__ on every class
_SLOTTED_MODULES: FrozenSet[str] = frozenset(
    {
        "topology/simplex.py",
        "topology/complexes.py",
        "topology/chromatic.py",
        "topology/carrier.py",
        "topology/maps.py",
    }
)

#: files in which determinism is load-bearing for census reproducibility
_DETERMINISM_SCOPE: Tuple[str, ...] = ("analysis/", "tasks/zoo/random_tasks.py")

#: wall-clock / entropy calls banned in the determinism scope
_NONDETERMINISTIC_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "date.today",
        "os.urandom",
        "uuid.uuid4",
    }
)

#: unseeded module-level random functions banned in the determinism scope
_RANDOM_MODULE_FNS: FrozenSet[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "getrandbits",
        "seed",
    }
)

#: rule metadata: code -> short name (mirrors docs/static_analysis.md)
LINT_RULES: Dict[str, str] = {
    "RC401": "interned-mutation",
    "RC404": "mutable-topology-dataclass",
    "RC405": "nondeterministic-generation",
    "RC407": "unknown-suppression-code",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` call targets; ``None`` for anything fancier."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


class _FileLinter(ast.NodeVisitor):
    """One-file visitor implementing every RC4xx rule."""

    def __init__(self, relpath: str, filename: str) -> None:
        self.relpath = relpath
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []
        self.in_topology_core = relpath in _TOPOLOGY_CORE
        self.in_determinism_scope = any(
            relpath.startswith(p) if p.endswith("/") else relpath == p
            for p in _DETERMINISM_SCOPE
        )
        self.wants_frozen_dataclasses = any(
            relpath.startswith(d) for d in _FROZEN_DATACLASS_DIRS
        )
        self.wants_slots = relpath in _SLOTTED_MODULES

    # -- helpers -----------------------------------------------------------

    def _emit(self, code: str, message: str, node: ast.AST, witness: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                subject=self.relpath,
                witness=witness,
                location=f"{self.filename}:{line}:{col + 1}",
            )
        )

    # -- RC401: attribute writes to interned state --------------------------

    def _check_attr_write(self, target: ast.AST, node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr in INTERNED_ATTRS and not self.in_topology_core:
            self._emit(
                "RC401",
                f"write to interned attribute {target.attr!r} "
                "(interned Simplex/Vertex state is shared by aliasing)",
                node,
                _dotted(target) or target.attr,
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_attr_write(t, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attr_write(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_attr_write(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._check_attr_write(t, node)
        self.generic_visit(node)

    # -- RC401: the object.__setattr__ escape hatch ------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if (
            dotted in ("object.__setattr__", "object.__delattr__")
            and not self.in_topology_core
        ):
            self._emit(
                "RC401",
                f"{dotted} bypasses immutability of interned/frozen objects",
                node,
                dotted,
            )
        if self.in_determinism_scope and dotted is not None:
            parts = dotted.split(".")
            tail = ".".join(parts[-2:]) if len(parts) >= 2 else dotted
            if tail in _NONDETERMINISTIC_CALLS:
                self._emit(
                    "RC405",
                    f"wall-clock/entropy source {dotted}() in seeded-"
                    "generation code",
                    node,
                    dotted,
                )
            elif len(parts) == 2 and parts[0] == "random":
                if parts[1] in _RANDOM_MODULE_FNS:
                    self._emit(
                        "RC405",
                        f"module-level random.{parts[1]}() shares hidden "
                        "global state; use a seeded random.Random instance",
                        node,
                        dotted,
                    )
                elif parts[1] == "Random" and not node.args and not node.keywords:
                    self._emit(
                        "RC405",
                        "random.Random() without a seed is entropy-seeded",
                        node,
                        dotted,
                    )
        self.generic_visit(node)

    # -- RC404: dataclass / __slots__ conformance --------------------------

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if (_dotted(target) or "").split(".")[-1] == "dataclass":
                return dec
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        dec = self._dataclass_decorator(node)
        if dec is not None and self.wants_frozen_dataclasses:
            frozen = False
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                        frozen = bool(kw.value.value)
            if not frozen:
                self._emit(
                    "RC404",
                    f"dataclass {node.name} in a topology/splitting module "
                    "must be frozen=True",
                    node,
                    node.name,
                )
        if self.wants_slots and dec is None and not _is_exception_class(node):
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            if not has_slots:
                self._emit(
                    "RC404",
                    f"class {node.name} in a core topology module must "
                    "declare __slots__",
                    node,
                    node.name,
                )
        self.generic_visit(node)


def _is_exception_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = (_dotted(base) or "").split(".")[-1]
        if name.endswith("Error") or name.endswith("Exception") or name == "Warning":
            return True
    return False


def lint_source(source: str, relpath: str, filename: Optional[str] = None) -> List[Diagnostic]:
    """Lint one source string as if it lived at ``relpath`` inside ``repro``.

    ``relpath`` uses ``/`` separators relative to the package root, e.g.
    ``"topology/simplex.py"``; it decides which rule scopes apply.

    Findings on a line carrying ``# repro: ignore[RCxxx]`` for their code
    are dropped; suppressions naming unknown codes are reported as RC407.
    """
    from .suppress import (
        apply_suppressions,
        find_suppressions,
        unknown_suppression_diagnostics,
    )

    tree = ast.parse(source, filename=filename or relpath)
    linter = _FileLinter(relpath=relpath, filename=filename or relpath)
    linter.visit(tree)
    kept, _ = apply_suppressions(linter.diagnostics, find_suppressions(source))
    kept.extend(unknown_suppression_diagnostics(source, relpath, filename))
    return kept


def package_root() -> str:
    """The ``src/repro`` directory this installation runs from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iter_python_files(root: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(absolute path, package-relative posix path)`` pairs."""
    root = os.path.abspath(root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                full = os.path.join(dirpath, fn)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                yield full, rel


def lint_paths(root: Optional[str] = None) -> List[Diagnostic]:
    """Lint every Python file under ``root`` (default: the live package)."""
    base = root or package_root()
    out: List[Diagnostic] = []
    for full, rel in iter_python_files(base):
        with open(full, "r", encoding="utf-8") as fh:
            source = fh.read()
        out.extend(lint_source(source, rel, filename=full))
    return out


def lint_result(root: Optional[str] = None) -> "CheckResult":
    """Run the lint and wrap findings in a :class:`CheckResult`."""
    from .passes import CheckResult

    diags = lint_paths(root)
    return CheckResult(
        diagnostics=diags,
        subjects=[root or package_root()],
        passes_run=len(LINT_RULES),
    )
