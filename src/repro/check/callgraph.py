"""Whole-package call graph over ``src/repro``, from the stdlib ``ast``.

The Level-3 effect analysis (:mod:`repro.check.effects`) needs to answer
"which functions can run when this cached entry point runs?" — an
*interprocedural* question the per-file Level-2 lint cannot ask.  This
module builds the structure that question is asked against:

* a **symbol table** per module: functions, classes (with methods and
  base classes), import aliases (module- and function-level, absolute and
  relative), and the module-level names assigned at import time;
* **call edges** with module-qualified resolution: plain names resolve to
  local functions, then import aliases; ``mod.func(...)`` resolves through
  module aliases; ``self.method(...)`` / ``cls.method(...)`` resolve
  through the enclosing class and its in-package bases; constructing a
  package class edges into its ``__new__``/``__init__``;
* **conservative dynamic dispatch**: an attribute call on an unresolvable
  receiver (``x.level(...)``) joins over *every* package method of that
  name, and loading a known function as a value (callbacks, dispatch
  tables like ``OBSTRUCTION_CHECKS``) adds a call edge from the loading
  function — indirect calls are over- rather than under-approximated;
* **external references**: calls that leave the package (``time.time``,
  ``os.environ.get``) are kept per function as fully expanded dotted
  names, which is what the effect extractor classifies.

The graph is a pure function of the source tree: building it twice over
the same files yields identical edges in identical order, so diagnostics
downstream are stable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .astlint import iter_python_files, package_root

#: the package every analyzed relpath is rooted under
PACKAGE = "repro"

#: receiver names treated as "the enclosing instance/class"
_SELF_NAMES = frozenset({"self", "cls"})

#: dunder methods never joined over by dynamic dispatch (too common to be
#: a useful over-approximation, and never cache-relevant on their own)
_NO_JOIN = frozenset(
    {"__init__", "__new__", "__repr__", "__str__", "__hash__", "__eq__",
     "__lt__", "__le__", "__gt__", "__ge__", "__len__", "__iter__",
     "__contains__", "__getitem__", "__enter__", "__exit__"}
)


def module_name(relpath: str) -> str:
    """Dotted module name for a package-relative posix path.

    >>> module_name("analysis/census.py")
    'repro.analysis.census'
    >>> module_name("tasks/zoo/__init__.py")
    'repro.tasks.zoo'
    """
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([PACKAGE] + [p for p in parts if p])


@dataclass
class FunctionInfo:
    """One function or method: identity, AST body, and context."""

    qualname: str  # e.g. repro.analysis.census.Census.add
    name: str
    module: str  # dotted module
    relpath: str
    filename: str
    lineno: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class qualname, if a method
    decorators: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """One class: its methods by name and its (dotted) base names."""

    qualname: str
    name: str
    module: str
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname


@dataclass
class ModuleInfo:
    """Per-module symbol table."""

    relpath: str
    filename: str
    module: str
    tree: ast.Module
    source: str
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    global_names: Set[str] = field(default_factory=set)
    #: module-level name -> function qualnames referenced in its value
    #: (dispatch tables: ``OBSTRUCTION_CHECKS = ((…, corollary_5_5), …)``)
    global_fn_refs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge (caller recorded by the graph's edge map)."""

    callee: str
    lineno: int


@dataclass(frozen=True)
class ExternalRef:
    """One call that leaves the package, as an expanded dotted name."""

    dotted: str
    lineno: int
    n_args: int = 0
    n_keywords: int = 0


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` expressions; ``None`` for anything fancier."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _resolve_relative(module: str, is_package: bool, level: int, target: str) -> str:
    """Resolve ``from ..x import y``-style module references to dotted form."""
    parts = module.split(".")
    # level 1 from a plain module means "the containing package"
    drop = level if is_package else level
    base = parts[: len(parts) - drop + (1 if is_package else 0)]
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _SymbolCollector(ast.NodeVisitor):
    """First pass over one module: functions, classes, imports, globals."""

    def __init__(self, info: ModuleInfo, graph: "CallGraph") -> None:
        self.info = info
        self.graph = graph
        self._stack: List[str] = []  # class/function name nesting
        self._class_stack: List[ClassInfo] = []
        self._is_package = info.relpath.endswith("__init__.py")

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.info.imports[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = _resolve_relative(
                self.info.module, self._is_package, node.level, node.module or ""
            )
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            self.info.imports[alias.asname or alias.name] = (
                f"{base}.{alias.name}" if base else alias.name
            )
        self.generic_visit(node)

    # -- definitions -------------------------------------------------------

    def _qual(self, name: str) -> str:
        return ".".join([self.info.module] + self._stack + [name])

    def _visit_funcdef(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = self._qual(node.name)
        cls = self._class_stack[-1] if self._class_stack else None
        decorators = tuple(
            d for d in (_dotted(dec.func if isinstance(dec, ast.Call) else dec)
                        for dec in node.decorator_list)
            if d is not None
        )
        params = tuple(
            a.arg
            for a in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
        )
        fn = FunctionInfo(
            qualname=qual,
            name=node.name,
            module=self.info.module,
            relpath=self.info.relpath,
            filename=self.info.filename,
            lineno=node.lineno,
            node=node,
            cls=cls.qualname if cls else None,
            decorators=decorators,
            params=params,
        )
        self.graph.functions[qual] = fn
        if cls is not None and node.name not in cls.methods:
            cls.methods[node.name] = qual
        if not self._stack:
            self.info.functions[node.name] = qual
            self.info.global_names.add(node.name)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        bases = tuple(b for b in (_dotted(base) for base in node.bases) if b)
        cls = ClassInfo(
            qualname=qual, name=node.name, module=self.info.module, bases=bases
        )
        self.graph.classes[qual] = cls
        if not self._stack:
            self.info.classes[node.name] = qual
            self.info.global_names.add(node.name)
        self._stack.append(node.name)
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()

    # -- module-level assignments (dispatch tables, globals) ---------------

    def _record_global(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if self._stack or not isinstance(target, ast.Name):
            return
        self.info.global_names.add(target.id)
        if value is None:
            return
        refs = tuple(
            sorted(
                {
                    n.id
                    for n in ast.walk(value)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
            )
        )
        if refs:
            self.info.global_fn_refs[target.id] = refs

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._record_global(t, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_global(node.target, node.value)
        self.generic_visit(node)


@dataclass
class CallGraph:
    """The package-wide graph: symbols, call edges, external references."""

    root: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: caller qualname -> resolved in-package call sites
    edges: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: caller qualname -> calls leaving the package
    external: Dict[str, List[ExternalRef]] = field(default_factory=dict)
    #: method name -> every package function qualname implementing it
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)

    def callees(self, qualname: str) -> List[CallSite]:
        return self.edges.get(qualname, [])

    def external_refs(self, qualname: str) -> List[ExternalRef]:
        return self.external.get(qualname, [])

    def module_of(self, qualname: str) -> Optional[ModuleInfo]:
        fn = self.functions.get(qualname)
        return self.modules.get(fn.module) if fn else None

    def resolve_class(self, module: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        """A package class named by ``dotted`` as seen from ``module``."""
        head = dotted.split(".")[0]
        if head in module.classes and dotted == head:
            return self.classes.get(module.classes[head])
        expanded = self._expand(module, dotted)
        if expanded is not None and expanded in self.classes:
            return self.classes[expanded]
        return None

    def _expand(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Expand a dotted name through ``module``'s import aliases."""
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if head in module.imports:
            return ".".join([module.imports[head]] + rest)
        if head in module.functions:
            return module.functions[head] if not rest else None
        if head in module.classes:
            return ".".join([module.classes[head]] + rest)
        return None

    def method_on(self, cls: ClassInfo, name: str) -> Optional[str]:
        """Look ``name`` up on a class and its in-package bases."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop(0)
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            if name in c.methods:
                return c.methods[name]
            mod = self.modules.get(c.module)
            if mod is None:
                continue
            for base in c.bases:
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    stack.append(resolved)
        return None


class _CallCollector(ast.NodeVisitor):
    """Second pass: resolve the calls and function references of one function."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.module = graph.modules[fn.module]
        self.sites: List[CallSite] = []
        self.externals: List[ExternalRef] = []
        self._seen_edges: Set[Tuple[str, int]] = set()

    # nested defs are their own functions; don't descend into their bodies
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.fn.node:
            self._edge(f"{self.fn.qualname}.{node.name}", node.lineno)
            return
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is not self.fn.node:
            self._edge(f"{self.fn.qualname}.{node.name}", node.lineno)
            return
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # a class defined inside a function: out of scope

    def _edge(self, callee: str, lineno: int) -> None:
        key = (callee, lineno)
        if key not in self._seen_edges:
            self._seen_edges.add(key)
            self.sites.append(CallSite(callee=callee, lineno=lineno))

    def _class_ctor_edges(self, cls: ClassInfo, lineno: int) -> None:
        for ctor in ("__new__", "__init__"):
            method = self.graph.method_on(cls, ctor)
            if method is not None:
                self._edge(method, lineno)

    def _resolve_call(self, node: ast.Call) -> None:
        lineno = node.lineno
        dotted = _dotted(node.func)
        if dotted is None:
            # a computed callee (subscript, call result): dynamic join on
            # nothing — the Name loads inside were already turned into
            # reference edges by visit_Name
            return
        parts = dotted.split(".")
        head = parts[0]

        # self.method() / cls.method() through the enclosing class
        if head in _SELF_NAMES and len(parts) == 2 and self.fn.cls:
            cls = self.graph.classes.get(self.fn.cls)
            if cls is not None:
                target = self.graph.method_on(cls, parts[1])
                if target is not None:
                    self._edge(target, lineno)
                    return
            self._dynamic_join(parts[1], lineno)
            return

        # plain name: local function, local class, or import alias
        if len(parts) == 1:
            if head in self.module.functions:
                self._edge(self.module.functions[head], lineno)
                return
            if head in self.module.classes:
                cls = self.graph.classes.get(self.module.classes[head])
                if cls is not None:
                    self._class_ctor_edges(cls, lineno)
                return
            if head in self.module.imports:
                self._route_expanded(self.module.imports[head], node)
                return
            self._external(dotted, node)
            return

        # dotted: expand the head through imports, then route
        if head in self.module.imports:
            expanded = ".".join([self.module.imports[head]] + parts[1:])
            self._route_expanded(expanded, node)
            return
        if head in self.module.classes:
            expanded = ".".join([self.module.classes[head]] + parts[1:])
            self._route_expanded(expanded, node)
            return

        # unknown receiver: conservative dynamic-dispatch join on the
        # method name (package methods only)
        self._dynamic_join(parts[-1], lineno)
        self._external(dotted, node)

    def _route_expanded(self, expanded: str, node: ast.Call) -> None:
        """Route a fully expanded dotted name to package symbols."""
        lineno = node.lineno
        if expanded in self.graph.functions:
            self._edge(expanded, lineno)
            return
        if expanded in self.graph.classes:
            self._class_ctor_edges(self.graph.classes[expanded], lineno)
            return
        # module alias + attribute chain: repro.topology.diskstore.store
        if expanded.startswith(PACKAGE + "."):
            mod_path, _, attr = expanded.rpartition(".")
            target_mod = self.graph.modules.get(mod_path)
            if target_mod is not None:
                if attr in target_mod.functions:
                    self._edge(target_mod.functions[attr], node.lineno)
                    return
                if attr in target_mod.classes:
                    cls = self.graph.classes.get(target_mod.classes[attr])
                    if cls is not None:
                        self._class_ctor_edges(cls, node.lineno)
                    return
                if attr in target_mod.imports:
                    self._route_expanded(target_mod.imports[attr], node)
                    return
            # something inside the package we cannot see (re-export):
            # join on the attribute name
            self._dynamic_join(expanded.rsplit(".", 1)[-1], node.lineno)
            return
        self._external(expanded, node)

    def _dynamic_join(self, method_name: str, lineno: int) -> None:
        if method_name in _NO_JOIN or method_name.startswith("__"):
            return
        for qual in self.graph.methods_by_name.get(method_name, ()):
            self._edge(qual, lineno)

    def _external(self, dotted: str, node: ast.Call) -> None:
        self.externals.append(
            ExternalRef(
                dotted=dotted,
                lineno=node.lineno,
                n_args=len(node.args),
                n_keywords=len(node.keywords),
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        self._resolve_call(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # loading a known function as a value: a callback / dispatch-table
        # reference, treated as a potential call (conservative)
        if isinstance(node.ctx, ast.Load):
            if node.id in self.module.functions:
                self._edge(self.module.functions[node.id], node.lineno)
            elif node.id in self.module.imports:
                expanded = self.module.imports[node.id]
                if expanded in self.graph.functions:
                    self._edge(expanded, node.lineno)
            elif node.id in self.module.global_fn_refs:
                # a module-level dispatch table: edge to every function its
                # value expression references
                for ref in self.module.global_fn_refs[node.id]:
                    if ref in self.module.functions:
                        self._edge(self.module.functions[ref], node.lineno)
                    elif ref in self.module.imports:
                        expanded = self.module.imports[ref]
                        if expanded in self.graph.functions:
                            self._edge(expanded, node.lineno)
        self.generic_visit(node)


def build_call_graph(root: Optional[str] = None) -> CallGraph:
    """Build the package call graph for the tree under ``root``.

    ``root`` defaults to the live ``src/repro`` package; tests point it at
    fixture trees laid out with the same relative paths.
    """
    base = root or package_root()
    graph = CallGraph(root=base)

    # pass 1: symbols
    for full, rel in iter_python_files(base):
        with open(full, "r", encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source, filename=full)
        info = ModuleInfo(
            relpath=rel,
            filename=full,
            module=module_name(rel),
            tree=tree,
            source=source,
        )
        graph.modules[info.module] = info
        _SymbolCollector(info, graph).visit(tree)

    # keep only dispatch-table refs that actually name functions
    for info in graph.modules.values():
        pruned: Dict[str, Tuple[str, ...]] = {}
        for name, refs in info.global_fn_refs.items():
            fn_refs = tuple(
                r
                for r in refs
                if r in info.functions
                or (r in info.imports and info.imports[r] in graph.functions)
            )
            if fn_refs:
                pruned[name] = fn_refs
        info.global_fn_refs = pruned

    # method-name join table
    for cls in graph.classes.values():
        for name, qual in cls.methods.items():
            graph.methods_by_name.setdefault(name, []).append(qual)
    for name in graph.methods_by_name:
        graph.methods_by_name[name].sort()

    # pass 2: edges
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        collector = _CallCollector(graph, fn)
        collector.visit(fn.node)
        if collector.sites:
            graph.edges[qual] = collector.sites
        if collector.externals:
            graph.external[qual] = collector.externals

    return graph


def iter_reachable(graph: CallGraph, entry: str) -> Iterator[str]:
    """BFS over call edges from ``entry`` (deterministic order, entry first)."""
    seen: Set[str] = {entry}
    queue: List[str] = [entry]
    while queue:
        current = queue.pop(0)
        yield current
        for site in graph.callees(current):
            if site.callee not in seen and site.callee in graph.functions:
                seen.add(site.callee)
                queue.append(site.callee)


def find_path(graph: CallGraph, entry: str, target: str) -> Optional[List[str]]:
    """A shortest call path ``entry → … → target``, or ``None``."""
    if entry == target:
        return [entry]
    seen: Set[str] = {entry}
    queue: List[Tuple[str, List[str]]] = [(entry, [entry])]
    while queue:
        current, path = queue.pop(0)
        for site in graph.callees(current):
            if site.callee in seen or site.callee not in graph.functions:
                continue
            next_path = path + [site.callee]
            if site.callee == target:
                return next_path
            seen.add(site.callee)
            queue.append((site.callee, next_path))
    return None


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "ExternalRef",
    "FunctionInfo",
    "ModuleInfo",
    "build_call_graph",
    "find_path",
    "iter_reachable",
    "module_name",
]
