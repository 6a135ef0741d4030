"""Level-3 interprocedural effect & cache-soundness analysis (``--effects``).

Every caching layer in the engine — the ``.repro/towers`` disk store,
the content-addressed census verdict cache, ``functools`` memos —
assumes ``decide``/``synthesize``/``conform`` are *pure, deterministic*
functions of their content-hashed inputs: a verdict computed once is
served forever.  That assumption is not locally checkable: an
``os.environ`` read or unseeded RNG four calls below a persisted entry
point silently poisons every cached result.  This module checks it
globally.

Three stages:

1. **Call graph** (:mod:`repro.check.callgraph`): module-qualified call
   resolution over the whole package, with conservative dynamic dispatch.
2. **Effect inference**: each function gets a *direct* effect set drawn
   from the lattice below, then effects propagate caller-ward through the
   call graph to fixpoint.  Two modules are **declared boundaries** whose
   internal effects do not propagate — calls into them surface as a single
   benign effect instead: :mod:`repro.obs` (write-only telemetry with
   declared merge policies) and :mod:`repro.topology.diskstore` (the
   cache itself).
3. **Rules** over the propagated signatures:

   * **RC50x cache-soundness** — every function reachable from a cached
     entry point (``functools.lru_cache``/``cache``/``cached_property``-
     decorated, or calling
     ``diskstore.load``/``store``) must be effect-free apart from the
     boundary effects and argument-seeded RNG.  Unseeded RNG (RC501) and
     environment reads (RC502) are *hard* errors the baseline cannot
     declare away; clock reads (RC503), filesystem access (RC504),
     global/class-state writes (RC505) and interned-object mutation
     (RC506) are errors unless declared in the committed baseline.
   * **RC51x fork-safety** — functions dispatched to ``multiprocessing``
     pool workers must be module-level picklable callables (RC511), must
     not mutate pre-fork warm tables or other global state (RC512,
     baseline-declarable), and must not set gauges whose merge policy is
     never declared with ``set_gauge_policy`` (RC513).

Every diagnostic carries a **call-path witness** from the entry point to
the concrete offending source line.

The effect lattice
------------------

===================  =======================================================
effect               direct sources
===================  =======================================================
``rng-unseeded``     module-level ``random.*`` calls, ``random.Random()``
                     with no seed, ``os.urandom``, ``uuid.uuid4``,
                     ``secrets.*``, ``numpy.random.*`` without a seed
``rng-seeded``       ``random.Random(seed)`` / ``default_rng(seed)`` with
                     an explicit seed argument (allowed under caching —
                     determinism flows from the argument)
``clock``            ``time.time``/``perf_counter``/``process_time``/…,
                     ``datetime.now``/``utcnow``, ``date.today``
``env-read``         ``os.environ`` reads, ``os.getenv``
``fs``               ``open``, ``os`` file operations, ``tempfile``,
                     ``shutil``
``global-write``     ``global`` rebinding, mutation of module-level
                     containers, class-attribute writes
``interned-mutation``  attribute writes to interned Simplex/Vertex state,
                     ``object.__setattr__`` outside the topology core
``process-spawn``    ``multiprocessing`` pools, ``subprocess``
``obs``              any call into :mod:`repro.obs` (boundary)
``diskstore``        any call into :mod:`repro.topology.diskstore`
                     (boundary)
===================  =======================================================

The committed baseline (``src/repro/check/effects_baseline.json``) maps
*origin* functions to declared effects with a human reason; a declaration
covers every entry point whose witness path ends at that origin, so
intentional effects are reviewed once, in one file.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .astlint import INTERNED_ATTRS, _TOPOLOGY_CORE
from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .diagnostics import Diagnostic
from .passes import CheckResult
from .suppress import find_suppressions, unknown_suppression_diagnostics

#: packaged default baseline, shipped next to this module
DEFAULT_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "effects_baseline.json")

#: baseline schema identifier
BASELINE_SCHEMA = "repro-effects-baseline/1"

#: boundary modules: dotted module (exact or package prefix) -> effect
BOUNDARY_MODULES: Mapping[str, str] = {
    "repro.obs": "obs",
    "repro.topology.diskstore": "diskstore",
}

#: effects that never violate cache soundness
BENIGN_EFFECTS = frozenset({"obs", "diskstore", "rng-seeded", "process-spawn"})

#: RC50x: effect -> (code, hard); hard errors cannot be baseline-declared
CACHE_RULES: Mapping[str, Tuple[str, bool]] = {
    "rng-unseeded": ("RC501", True),
    "env-read": ("RC502", True),
    "clock": ("RC503", False),
    "fs": ("RC504", False),
    "global-write": ("RC505", False),
    "interned-mutation": ("RC506", False),
}

#: RC512: effects a pool worker must not carry undeclared
FORK_RULES: Mapping[str, str] = {
    "global-write": "RC512",
    "interned-mutation": "RC512",
}

#: decorators that make a function a memoized cache entry point
_MEMO_DECORATORS = frozenset({"lru_cache", "cache", "cached_property"})

#: diskstore functions whose callers become persisted entry points
_PERSIST_FUNCTIONS = frozenset(
    {"repro.topology.diskstore.load", "repro.topology.diskstore.store"}
)

#: pool methods that dispatch a callable to worker processes
_POOL_DISPATCH_ALWAYS = frozenset(
    {"imap", "imap_unordered", "map_async", "imap_async", "starmap",
     "starmap_async", "apply_async"}
)
#: dispatch names too generic to trust without a pool/executor receiver
_POOL_DISPATCH_GUARDED = frozenset({"map", "submit", "apply"})

#: wall-clock / monotonic-clock call tails
_CLOCK_CALLS = frozenset(
    {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
     "time.perf_counter", "time.perf_counter_ns", "time.process_time",
     "time.process_time_ns", "datetime.now", "datetime.utcnow",
     "datetime.today", "date.today"}
)

#: module-level random functions sharing hidden global RNG state
_RANDOM_MODULE_FNS = frozenset(
    {"random", "randint", "randrange", "choice", "choices", "shuffle",
     "sample", "uniform", "getrandbits", "betavariate", "gauss", "seed"}
)

#: os functions that touch the filesystem
_OS_FS_FNS = frozenset(
    {"makedirs", "mkdir", "remove", "unlink", "replace", "rename", "rmdir",
     "listdir", "walk", "stat", "scandir", "chmod", "truncate", "link",
     "symlink", "mkstemp", "open"}
)

#: container-mutating method names (for module-global mutation detection)
_MUTATING_METHODS = frozenset(
    {"setdefault", "append", "update", "add", "extend", "insert", "pop",
     "popitem", "clear", "remove", "discard", "__setitem__", "sort",
     "reverse"}
)


@dataclass(frozen=True)
class EffectSite:
    """A direct effect: which effect, where, and what the source said."""

    effect: str
    detail: str
    relpath: str
    lineno: int
    col: int = 0


#: an effect's origin in a signature: a direct site, or the callee
#: qualname it propagated from
Origin = Union[EffectSite, str]


def boundary_effect(module: str) -> Optional[str]:
    """The boundary effect for calls into ``module``, or ``None``."""
    for prefix, effect in BOUNDARY_MODULES.items():
        if module == prefix or module.startswith(prefix + "."):
            return effect
    return None


# ---------------------------------------------------------------------------
# Direct-effect extraction
# ---------------------------------------------------------------------------


class _DirectEffects(ast.NodeVisitor):
    """Extract one function's direct effects (no propagation)."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.module = graph.modules[fn.module]
        self.sites: List[EffectSite] = []
        self.gauge_calls: List[Tuple[Optional[str], int]] = []
        self._globals_declared: Set[str] = set()
        self._locals: Set[str] = set()
        self._in_topology_core = fn.relpath in _TOPOLOGY_CORE
        self._collect_locals(fn.node)

    def _collect_locals(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._locals.update(self.fn.params)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                continue
            if isinstance(sub, ast.Assign):
                for t in sub.targets:
                    if isinstance(t, ast.Name):
                        self._locals.add(t.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    self._locals.add(sub.target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for n in ast.walk(sub.target):
                    if isinstance(n, ast.Name):
                        self._locals.add(n.id)
            elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
                for n in ast.walk(sub.optional_vars):
                    if isinstance(n, ast.Name):
                        self._locals.add(n.id)

    # -- plumbing ----------------------------------------------------------

    def _emit(self, effect: str, detail: str, node: ast.AST) -> None:
        self.sites.append(
            EffectSite(
                effect=effect,
                detail=detail,
                relpath=self.fn.relpath,
                lineno=getattr(node, "lineno", self.fn.lineno),
                col=getattr(node, "col_offset", 0),
            )
        )

    def _dotted(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return f"{base}.{node.attr}" if base is not None else None
        return None

    def _expand(self, dotted: str) -> str:
        """Expand the head through import aliases (``np.random`` → ``numpy.random``)."""
        parts = dotted.split(".")
        if parts[0] in self.module.imports:
            return ".".join([self.module.imports[parts[0]]] + parts[1:])
        return dotted

    def _is_module_global(self, name: str) -> bool:
        if name in self._globals_declared:
            return True
        return name in self.module.global_names and name not in self._locals

    # -- nested functions are separate graph nodes -------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.fn.node:
            self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is self.fn.node:
            self.generic_visit(node)

    # -- global rebinding --------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._globals_declared.update(node.names)
        self.generic_visit(node)

    def _root_name(self, node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _check_store(self, target: ast.AST, node: ast.AST) -> None:
        # rebinding a declared global
        if isinstance(target, ast.Name) and target.id in self._globals_declared:
            self._emit("global-write", f"global {target.id} rebound", node)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            # interned-object mutation (attribute writes to interned state)
            if (
                isinstance(target, ast.Attribute)
                and target.attr in INTERNED_ATTRS
                and not self._in_topology_core
            ):
                self._emit(
                    "interned-mutation",
                    f"write to interned attribute {target.attr!r}",
                    node,
                )
                return
            root = self._root_name(target)
            if root is not None and self._is_module_global(root):
                kind = "item" if isinstance(target, ast.Subscript) else "attribute"
                self._emit(
                    "global-write",
                    f"{kind} write into module-level {root!r}",
                    node,
                )
            # class-attribute write: ClassName.attr = …
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.module.classes
            ):
                self._emit(
                    "global-write",
                    f"class attribute {target.value.id}.{target.attr} written",
                    node,
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_store(t, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._check_store(t, node)
        self.generic_visit(node)

    # -- environment reads -------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dotted = self._dotted(node.value)
        if dotted is not None and self._expand(dotted) == "os.environ":
            self._emit("env-read", "os.environ[...] read", node)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def _classify_external(self, expanded: str, node: ast.Call) -> None:
        parts = expanded.split(".")
        tail2 = ".".join(parts[-2:]) if len(parts) >= 2 else expanded
        last = parts[-1]
        n_seed_args = len(node.args) + len(node.keywords)

        if tail2 in _CLOCK_CALLS:
            self._emit("clock", f"{expanded}()", node)
        elif expanded in ("os.getenv", "os.environ.get") or tail2 == "environ.get":
            self._emit("env-read", f"{expanded}()", node)
        elif expanded == "os.urandom" or tail2 == "uuid.uuid4" or parts[0] == "secrets":
            self._emit("rng-unseeded", f"{expanded}()", node)
        elif tail2 == f"random.{last}" and last in _RANDOM_MODULE_FNS and len(parts) >= 2:
            self._emit(
                "rng-unseeded", f"module-level {expanded}() (hidden global state)", node
            )
        elif last == "Random" and (len(parts) == 1 or parts[-2] == "random"):
            effect = "rng-seeded" if n_seed_args else "rng-unseeded"
            self._emit(effect, f"{expanded}({'seed' if n_seed_args else ''})", node)
        elif last == "default_rng" or tail2.startswith("random.") and parts[0] == "numpy":
            effect = "rng-seeded" if n_seed_args else "rng-unseeded"
            self._emit(effect, f"{expanded}()", node)
        elif expanded == "open" or expanded == "io.open":
            self._emit("fs", "open()", node)
        elif parts[0] == "os" and last in _OS_FS_FNS:
            self._emit("fs", f"{expanded}()", node)
        elif parts[0] in ("tempfile", "shutil"):
            self._emit("fs", f"{expanded}()", node)
        elif parts[0] == "subprocess" or last in ("Pool", "Process") or tail2.startswith(
            "multiprocessing."
        ):
            self._emit("process-spawn", f"{expanded}()", node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            expanded = self._expand(dotted)
            self._classify_external(expanded, node)
            last = expanded.split(".")[-1]
            if (
                last == "__setattr__"
                and expanded.startswith("object.")
                and not self._in_topology_core
            ):
                self._emit(
                    "interned-mutation", "object.__setattr__ bypasses immutability", node
                )
            # gauge declarations / writes, matched by tail (the obs module
            # is a boundary, so these would otherwise be invisible)
            if last == "gauge_set":
                name = None
                if node.args and isinstance(node.args[0], ast.Constant):
                    if isinstance(node.args[0].value, str):
                        name = node.args[0].value
                self.gauge_calls.append((name, node.lineno))
            # mutating-method call on a module-level container
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                root = self._root_name(node.func.value)
                if root is not None and self._is_module_global(root):
                    self._emit(
                        "global-write",
                        f"mutating {root}.{node.func.attr}() on module state",
                        node,
                    )
        self.generic_visit(node)


@dataclass
class EffectAnalysis:
    """The analyzed package: graph, per-function signatures, rule inputs."""

    graph: CallGraph
    #: function qualname -> {effect: origin}
    signatures: Dict[str, Dict[str, Origin]] = field(default_factory=dict)
    #: function qualname -> direct sites (pre-propagation)
    direct: Dict[str, List[EffectSite]] = field(default_factory=dict)
    #: cache entry points: qualname -> "memoized" | "persisted"
    entry_points: Dict[str, str] = field(default_factory=dict)
    #: worker entry points: qualname -> dispatch site "relpath:lineno"
    worker_entries: Dict[str, str] = field(default_factory=dict)
    #: RC511 dispatch hazards found during worker discovery
    dispatch_hazards: List[Diagnostic] = field(default_factory=list)
    #: gauge_set literals per function: qualname -> [(name|None, lineno)]
    gauge_calls: Dict[str, List[Tuple[Optional[str], int]]] = field(default_factory=dict)
    #: every gauge name with a declared merge policy, package-wide
    declared_policies: Set[str] = field(default_factory=set)

    def effects_of(self, qualname: str) -> Dict[str, Origin]:
        return self.signatures.get(qualname, {})

    def origin_site(self, qualname: str, effect: str) -> Tuple[List[str], Optional[EffectSite]]:
        """Follow the via-chain: the call path from ``qualname`` and the site."""
        path = [qualname]
        current = qualname
        for _ in range(len(self.signatures) + 1):
            origin = self.signatures.get(current, {}).get(effect)
            if origin is None:
                return path, None
            if isinstance(origin, EffectSite):
                return path, origin
            current = origin
            path.append(current)
        return path, None  # pragma: no cover - origin chains cannot cycle


def _pool_receiver_ok(attr: str, receiver: Optional[str]) -> bool:
    if attr in _POOL_DISPATCH_ALWAYS:
        return True
    if attr in _POOL_DISPATCH_GUARDED and receiver is not None:
        low = receiver.lower()
        return "pool" in low or "executor" in low
    return False


def _discover_workers(analysis: EffectAnalysis) -> None:
    """Find pool-dispatched worker functions and RC511 dispatch hazards."""
    graph = analysis.graph
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        module = graph.modules[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            receiver = None
            if isinstance(node.func.value, ast.Name):
                receiver = node.func.value.id
            if not _pool_receiver_ok(attr, receiver):
                continue
            if not node.args:
                continue
            target = node.args[0]
            where = f"{fn.relpath}:{node.lineno}"
            location = f"{fn.filename}:{node.lineno}:{node.col_offset + 1}"
            if isinstance(target, ast.Lambda):
                analysis.dispatch_hazards.append(
                    Diagnostic(
                        code="RC511",
                        message=(
                            "lambda dispatched to a pool worker: lambdas are "
                            "unpicklable and capture the parent's closure"
                        ),
                        subject=qual,
                        witness=f"{receiver or '<pool>'}.{attr}(<lambda>, …)",
                        location=location,
                    )
                )
                continue
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in module.functions:
                analysis.worker_entries.setdefault(module.functions[name], where)
                continue
            if name in module.imports and module.imports[name] in graph.functions:
                analysis.worker_entries.setdefault(module.imports[name], where)
                continue
            # a name that resolves to a *nested* function of this caller
            nested = f"{qual}.{name}"
            if nested in graph.functions:
                analysis.dispatch_hazards.append(
                    Diagnostic(
                        code="RC511",
                        message=(
                            f"nested function {name}() dispatched to a pool "
                            "worker: closures are unpicklable and capture "
                            "parent state"
                        ),
                        subject=qual,
                        witness=f"{receiver or '<pool>'}.{attr}({name}, …)",
                        location=location,
                    )
                )


def analyze_package(root: Optional[str] = None) -> EffectAnalysis:
    """Build the call graph and propagate effect signatures to fixpoint."""
    graph = build_call_graph(root)
    analysis = EffectAnalysis(graph=graph)

    # direct effects, gauge calls, policy declarations
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        extractor = _DirectEffects(graph, fn)
        extractor.visit(fn.node)
        analysis.direct[qual] = extractor.sites
        sig: Dict[str, Origin] = {}
        for site in extractor.sites:
            sig.setdefault(site.effect, site)
        # boundary-module calls surface as single benign effects
        for call in graph.callees(qual):
            callee = graph.functions.get(call.callee)
            if callee is None:
                continue
            effect = boundary_effect(callee.module)
            if effect is not None and effect not in sig:
                sig[effect] = EffectSite(
                    effect=effect,
                    detail=f"call into {callee.module}",
                    relpath=fn.relpath,
                    lineno=call.lineno,
                )
        analysis.signatures[qual] = sig
        if extractor.gauge_calls:
            analysis.gauge_calls[qual] = extractor.gauge_calls

    # policy declarations count wherever they appear — module level
    # included — so sweep whole trees rather than function bodies
    for module in graph.modules.values():
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
                and (node.func.id if isinstance(node.func, ast.Name) else node.func.attr)
                == "set_gauge_policy"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                analysis.declared_policies.add(node.args[0].value)

    # propagate caller-ward to fixpoint (boundary modules do not propagate)
    changed = True
    while changed:
        changed = False
        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            if boundary_effect(fn.module) is not None:
                continue
            sig = analysis.signatures[qual]
            for call in graph.callees(qual):
                callee = graph.functions.get(call.callee)
                if callee is None or boundary_effect(callee.module) is not None:
                    continue
                for effect in analysis.signatures.get(call.callee, {}):
                    if effect not in sig:
                        sig[effect] = call.callee
                        changed = True

    # cache entry points
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if boundary_effect(fn.module) is not None:
            continue
        if any(d.split(".")[-1] in _MEMO_DECORATORS for d in fn.decorators):
            analysis.entry_points[qual] = "memoized"
            continue
        for call in graph.callees(qual):
            if call.callee in _PERSIST_FUNCTIONS:
                analysis.entry_points[qual] = "persisted"
                break

    _discover_workers(analysis)
    return analysis


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


@dataclass
class Baseline:
    """Declared effect signatures: origin qualname -> {effect: reason}."""

    declared: Dict[str, Dict[str, str]] = field(default_factory=dict)
    path: Optional[str] = None
    used: Set[Tuple[str, str]] = field(default_factory=set)

    def covers(self, qualname: str, effect: str) -> bool:
        if effect in self.declared.get(qualname, {}):
            self.used.add((qualname, effect))
            return True
        return False

    def stale_entries(self) -> List[Tuple[str, str]]:
        out = []
        for qualname in sorted(self.declared):
            for effect in sorted(self.declared[qualname]):
                if (qualname, effect) not in self.used:
                    out.append((qualname, effect))
        return out


def load_baseline(path: Optional[str] = None) -> Baseline:
    """Load a baseline file; a missing default baseline is simply empty."""
    resolved = path or DEFAULT_BASELINE_PATH
    if not os.path.isfile(resolved):
        if path is not None:
            raise FileNotFoundError(f"effects baseline not found: {path}")
        return Baseline(path=resolved)
    with open(resolved, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{resolved}: expected schema {BASELINE_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    declared = payload.get("declared", {})
    if not isinstance(declared, dict) or not all(
        isinstance(k, str)
        and isinstance(v, dict)
        and all(isinstance(e, str) and isinstance(r, str) for e, r in v.items())
        for k, v in declared.items()
    ):
        raise ValueError(
            f"{resolved}: 'declared' must map function qualnames to "
            "{effect: reason} objects"
        )
    return Baseline(declared={k: dict(v) for k, v in declared.items()}, path=resolved)


def render_baseline(analysis: EffectAnalysis, previous: Optional[Baseline] = None) -> Dict:
    """A baseline payload declaring every current non-hard finding.

    Reasons from ``previous`` are preserved; new entries get a
    placeholder reason that should be reviewed and rewritten.
    """
    declared: Dict[str, Dict[str, str]] = {}

    def declare(origin_fn: str, effect: str) -> None:
        old = (previous.declared if previous else {}).get(origin_fn, {})
        reason = old.get(effect, "TODO: explain why this effect is cache-safe")
        declared.setdefault(origin_fn, {})[effect] = reason

    for entry in sorted(analysis.entry_points):
        for effect, (code, hard) in sorted(CACHE_RULES.items()):
            if hard or effect not in analysis.effects_of(entry):
                continue
            path, site = analysis.origin_site(entry, effect)
            if site is not None:
                declare(path[-1], effect)
    for worker in sorted(analysis.worker_entries):
        for effect in sorted(FORK_RULES):
            if effect not in analysis.effects_of(worker):
                continue
            path, site = analysis.origin_site(worker, effect)
            if site is not None:
                declare(path[-1], effect)
    return {
        "schema": BASELINE_SCHEMA,
        "declared": {k: dict(sorted(v.items())) for k, v in sorted(declared.items())},
    }


def write_baseline(
    path: Optional[str] = None, root: Optional[str] = None
) -> Dict:
    """Analyze ``root`` and (re)write the baseline file at ``path``."""
    resolved = path or DEFAULT_BASELINE_PATH
    previous: Optional[Baseline] = None
    if os.path.isfile(resolved):
        previous = load_baseline(resolved)
    payload = render_baseline(analyze_package(root), previous)
    with open(resolved, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------


def _witness(path: Sequence[str], site: EffectSite) -> str:
    shown = [q.removeprefix("repro.") for q in path]
    return f"{' → '.join(shown)}; {site.detail} at {site.relpath}:{site.lineno}"


def _location(analysis: EffectAnalysis, site: EffectSite) -> Optional[str]:
    module = next(
        (m for m in analysis.graph.modules.values() if m.relpath == site.relpath), None
    )
    filename = module.filename if module else site.relpath
    return f"{filename}:{site.lineno}:{site.col + 1}"


def _suppressed(analysis: EffectAnalysis, site: EffectSite, code: str) -> bool:
    module = next(
        (m for m in analysis.graph.modules.values() if m.relpath == site.relpath), None
    )
    if module is None:
        return False
    return code in find_suppressions(module.source).get(site.lineno, set())


def evaluate(
    analysis: EffectAnalysis, baseline: Optional[Baseline] = None
) -> List[Diagnostic]:
    """Apply the RC50x/RC51x rules; returns witness-carrying diagnostics."""
    baseline = baseline or Baseline()
    out: List[Diagnostic] = []
    # one finding per (code, origin function): a single undeclared effect
    # is one defect however many entry points reach it
    reported: Dict[Tuple[str, str], Diagnostic] = {}
    reach_counts: Dict[Tuple[str, str], int] = {}

    def report(
        code: str,
        entry: str,
        kind: str,
        effect: str,
        hard: bool,
        extra_message: str,
    ) -> None:
        path, site = analysis.origin_site(entry, effect)
        if site is None:
            return
        origin_fn = path[-1]
        key = (code, origin_fn + ":" + str(site.lineno))
        reach_counts[key] = reach_counts.get(key, 0) + 1
        if key in reported:
            return
        if not hard and baseline.covers(origin_fn, effect):
            return
        if _suppressed(analysis, site, code):
            return
        diag = Diagnostic(
            code=code,
            message=(
                f"{extra_message} (entry point {entry.removeprefix('repro.')!r}, "
                f"{kind})"
            ),
            subject=entry.removeprefix("repro."),
            witness=_witness(path, site),
            location=_location(analysis, site),
            extra={"effect": effect, "origin": origin_fn, "entry_kind": kind},
        )
        reported[key] = diag
        out.append(diag)

    for entry in sorted(analysis.entry_points):
        kind = analysis.entry_points[entry]
        effects = analysis.effects_of(entry)
        for effect, (code, hard) in sorted(CACHE_RULES.items()):
            if effect not in effects:
                continue
            noun = {
                "rng-unseeded": "unseeded RNG",
                "env-read": "environment read",
                "clock": "clock read",
                "fs": "filesystem access",
                "global-write": "global-state write",
                "interned-mutation": "interned-object mutation",
            }[effect]
            report(
                code,
                entry,
                kind,
                effect,
                hard,
                f"cache-unsound {noun} reachable from a cached entry point",
            )

    for worker in sorted(analysis.worker_entries):
        effects = analysis.effects_of(worker)
        for effect in sorted(FORK_RULES):
            if effect not in effects:
                continue
            report(
                FORK_RULES[effect],
                worker,
                f"pool worker dispatched at {analysis.worker_entries[worker]}",
                effect,
                False,
                "fork-unsafe mutation of pre-fork shared state in a pool worker",
            )

    out.extend(analysis.dispatch_hazards)

    # RC513: gauges set in worker-reachable code need a declared policy
    worker_reachable: Set[str] = set()
    from .callgraph import iter_reachable

    for worker in sorted(analysis.worker_entries):
        for qual in iter_reachable(analysis.graph, worker):
            worker_reachable.add(qual)
    seen_gauges: Set[str] = set()
    for qual in sorted(worker_reachable):
        for name, lineno in analysis.gauge_calls.get(qual, []):
            if name is None or name in analysis.declared_policies:
                continue
            if name in seen_gauges:
                continue
            seen_gauges.add(name)
            fn = analysis.graph.functions[qual]
            site = EffectSite("obs", f'gauge_set("{name}", …)', fn.relpath, lineno)
            if _suppressed(analysis, site, "RC513"):
                continue
            out.append(
                Diagnostic(
                    code="RC513",
                    message=(
                        f"gauge {name!r} is set in pool-worker-reachable code "
                        "but no set_gauge_policy() call declares how it "
                        "merges across worker snapshots"
                    ),
                    subject=qual.removeprefix("repro."),
                    witness=f'gauge_set("{name}", …) at {fn.relpath}:{lineno}',
                    location=f"{fn.filename}:{lineno}:1",
                    extra={"gauge": name},
                )
            )

    # RC509: stale baseline declarations (warning — the effect is gone)
    for qualname, effect in baseline.stale_entries():
        out.append(
            Diagnostic(
                code="RC509",
                message=(
                    f"baseline declares effect {effect!r} on "
                    f"{qualname.removeprefix('repro.')!r} but the analysis no "
                    "longer finds it; remove the stale entry"
                ),
                subject=qualname.removeprefix("repro."),
                witness=f"{qualname}: {effect}",
                severity="warning",
                extra={"effect": effect, "origin": qualname},
            )
        )

    # annotate multi-entry findings
    for key, diag in reported.items():
        n = reach_counts.get(key, 1)
        if n > 1 and diag in out:
            idx = out.index(diag)
            out[idx] = Diagnostic(
                code=diag.code,
                message=f"{diag.message} — reaches {n} cached/worker entry point(s)",
                subject=diag.subject,
                witness=diag.witness,
                location=diag.location,
                severity=diag.severity,
                extra=diag.extra,
            )
    return out


def effects_result(
    root: Optional[str] = None,
    baseline_path: Optional[str] = None,
    report_unknown_suppressions: bool = True,
) -> CheckResult:
    """Run the full Level-3 analysis and wrap findings in a CheckResult.

    ``report_unknown_suppressions=False`` skips the RC407 sweep — the CLI
    passes this when the Level-2 lint already ran over the same tree, so
    unknown suppression codes are not reported twice.
    """
    analysis = analyze_package(root)
    baseline = load_baseline(baseline_path)
    diagnostics = evaluate(analysis, baseline)
    if report_unknown_suppressions:
        # suppression comments with unknown codes are themselves findings
        for module in sorted(analysis.graph.modules.values(), key=lambda m: m.relpath):
            diagnostics.extend(
                unknown_suppression_diagnostics(
                    module.source, module.relpath, module.filename
                )
            )
    return CheckResult(
        diagnostics=diagnostics,
        subjects=[analysis.graph.root],
        passes_run=len(CACHE_RULES) + len(FORK_RULES) + 2,  # +RC511, +RC513
    )


__all__ = [
    "BASELINE_SCHEMA",
    "BOUNDARY_MODULES",
    "Baseline",
    "CACHE_RULES",
    "DEFAULT_BASELINE_PATH",
    "EffectAnalysis",
    "EffectSite",
    "analyze_package",
    "boundary_effect",
    "effects_result",
    "evaluate",
    "load_baseline",
    "render_baseline",
    "write_baseline",
]
