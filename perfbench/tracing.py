"""Out-of-program tracing: wrappers around each layer's public entry points.

The benchmark never adds tracing inside ``src/``.  A traced round installs
a wrapper around every layer entry point (:func:`install`), records one
span (name, start, end, parent) per call in memory, and restores the
original callables afterwards.  Self time per layer is then folded from
the span list by :func:`self_times`.

Each wrapper replaces the binding the caller actually reads at call time:
``decision.link_connected_form`` rather than ``pipeline.link_connected_form``
because the decision module imported the name, ``corpus.GENERATORS[...]``
entries because ``run_shard`` looks the generator up per call, and so on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, ``None`` at a root."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    info: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def open(self, name: str, **info: Any) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, info=info))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def children(self, index: int) -> Iterable[Span]:
        return (s for s in self.spans[index + 1:] if s.parent == index)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[["Tracer", int, Any, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span named ``name``.

        ``before(*args, **kwargs)`` runs ahead of the call and its value is
        handed to ``after(tracer, span_index, state, result)``.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before is not None else None
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, index, state, result)
            return result

        return traced


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds per span name, each span less the part its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children never drive a self
    time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - covered
    return out


def total_times(spans: List[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name, counting only outermost occurrences."""
    out: Dict[str, float] = {}
    for span in spans:
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
    return out


class Patches:
    """Attribute and dict-entry replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set_attr(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps a class attribute's raw descriptor for the restore
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original, False))
        setattr(owner, attr, value)

    def set_item(self, owner: Dict[Any, Any], key: Any, value: Any) -> None:
        self._undo.append((owner, key, owner[key], True))
        owner[key] = value

    def restore(self) -> None:
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def _search_nodes_before(*args: Any, **kwargs: Any) -> Tuple[Any, int]:
    stats = kwargs.get("stats")
    return stats, (stats.nodes if stats is not None else 0)


def _search_nodes_after(tracer: Tracer, index: int, state: Any, result: Any) -> None:
    stats, before = state
    if stats is not None:
        tracer.count("search_nodes", stats.nodes - before)


def _load_after(tracer: Tracer, index: int, state: Any, result: Any) -> None:
    namespace = state
    tracer.spans[index].info["namespace"] = namespace
    tracer.spans[index].info["hit"] = result is not None
    tracer.count("diskstore_loads")
    if result is not None:
        tracer.count("diskstore_hits")


def _transform_after(tracer: Tracer, index: int, state: Any, result: Any) -> None:
    loaded = any(
        child.name == "topology.diskstore_load" and child.info.get("hit")
        for child in tracer.children(index)
    )
    if not loaded:
        tracer.count("splits", result.n_splits)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point; ``restore()`` on the result undoes it."""
    from repro.analysis import census, corpus
    from repro.service import execution, protocol
    from repro.solvability import decision
    from repro.topology import diskstore, subdivision

    patches = Patches()
    for name, ctor in list(execution.ZOO.items()):
        patches.set_item(execution.ZOO, name, tracer.wrap("tasks.build", ctor))
    patches.set_attr(
        protocol, "task_from_json", tracer.wrap("tasks.build", protocol.task_from_json)
    )
    patches.set_attr(
        decision,
        "link_connected_form",
        tracer.wrap(
            "splitting.transform", decision.link_connected_form, after=_transform_after
        ),
    )
    patches.set_attr(
        decision,
        "OBSTRUCTION_CHECKS",
        tuple(
            (
                kind,
                tracer.wrap(
                    "solvability.homological"
                    if kind == "homological"
                    else "solvability.obstructions",
                    check,
                ),
            )
            for kind, check in decision.OBSTRUCTION_CHECKS
        ),
    )
    patches.set_attr(
        subdivision.SubdivisionTower,
        "level",
        tracer.wrap("topology.subdivision", subdivision.SubdivisionTower.level),
    )
    patches.set_attr(
        decision,
        "find_map",
        tracer.wrap(
            "solvability.search",
            decision.find_map,
            before=_search_nodes_before,
            after=_search_nodes_after,
        ),
    )
    patches.set_attr(
        decision, "verify_map", tracer.wrap("solvability.search", decision.verify_map)
    )
    patches.set_attr(
        diskstore,
        "load",
        tracer.wrap(
            "topology.diskstore_load",
            diskstore.load,
            before=lambda namespace, *a, **k: namespace,
            after=_load_after,
        ),
    )
    patches.set_attr(
        diskstore, "store", tracer.wrap("topology.diskstore_store", diskstore.store)
    )
    for attr in ("request_key", "verdict_to_json"):
        patches.set_attr(
            execution, attr, tracer.wrap("service.protocol", getattr(execution, attr))
        )
    for name, generator in list(corpus.GENERATORS.items()):
        patches.set_item(
            corpus.GENERATORS, name, tracer.wrap("tasks.generate", generator)
        )
    patches.set_attr(
        corpus, "canon_hash", tracer.wrap("tasks.canon_hash", corpus.canon_hash)
    )
    patches.set_attr(
        census,
        "decide_solvability",
        tracer.wrap("analysis.decide", census.decide_solvability),
    )
    patches.set_attr(
        corpus, "run_shard", tracer.wrap("analysis.shard_io", corpus.run_shard)
    )
    return patches


#: span name -> per-layer metric reported as self milliseconds per round
SELF_TIME_METRICS = {
    "tasks.build": "tasks.build_ms",
    "splitting.transform": "splitting.transform_ms",
    "solvability.obstructions": "solvability.obstructions_ms",
    "solvability.homological": "solvability.homological_ms",
    "topology.subdivision": "topology.subdivision_ms",
    "solvability.search": "solvability.search_ms",
    "topology.diskstore_load": "topology.diskstore_load_ms",
    "topology.diskstore_store": "topology.diskstore_store_ms",
    "service.protocol": "service.protocol_ms",
    "tasks.generate": "tasks.generate_ms",
    "tasks.canon_hash": "tasks.canon_hash_ms",
    "analysis.shard_io": "analysis.shard_io_ms",
}

#: the benchmark's own span around each op; its self time is unattributed
ROOT = "op"

#: the host-speed reference chunk, when it runs inside an op; no layer's time
REFERENCE = "reference"


def layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """Fold one traced round's spans into its layer metrics.

    Every layer metric is present (zero where the workload never entered
    the layer); ``unattributed_share`` is the traced wall not covered by
    any layer's self time; ``traced_wall`` excludes reference chunks.
    """
    selfs = self_times(tracer.spans)
    totals = total_times(tracer.spans)
    out = {metric: 1000.0 * selfs.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out["analysis.decide_ms"] = 1000.0 * totals.get("analysis.decide", 0.0)
    out["splitting.splits"] = tracer.counts.get("splits", 0.0)
    out["solvability.search_nodes"] = tracer.counts.get("search_nodes", 0.0)
    loads = tracer.counts.get("diskstore_loads", 0.0)
    out["topology.diskstore_hit_share"] = (
        tracer.counts.get("diskstore_hits", 0.0) / loads if loads else 0.0
    )
    attributed = sum(t for name, t in selfs.items() if name not in (ROOT, REFERENCE))
    out["unattributed_share"] = (
        max(traced_wall - attributed, 0.0) / traced_wall if traced_wall > 0 else 0.0
    )
    return out


def self_times_by(tracer: Tracer, key: str) -> Dict[Any, Dict[str, float]]:
    """Self seconds per span name, grouped by a root span's ``info[key]``."""
    groups: Dict[Any, List[int]] = {}
    root_of: List[Optional[int]] = []
    for index, span in enumerate(tracer.spans):
        root = index if span.parent is None else root_of[span.parent]
        root_of.append(root)
        if root is not None:
            groups.setdefault(tracer.spans[root].info.get(key), []).append(index)
    out: Dict[Any, Dict[str, float]] = {}
    for value, indices in groups.items():
        remap = {old: new for new, old in enumerate(indices)}
        subset = [
            Span(
                s.name,
                s.start,
                s.end,
                remap.get(s.parent) if s.parent is not None else None,
            )
            for s in (tracer.spans[i] for i in indices)
        ]
        out[value] = self_times(subset)
    return out
