"""Human-readable rendering of ``repro-trace/1`` payloads.

Backs ``python -m repro trace summary``: the span tree with wall/CPU
milliseconds and attributes, the top counters, the gauges, and a
per-worker skew line for parallel runs.  Pure formatting — the
payload is assumed to have passed :func:`repro.obs.validate_trace`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.2f}ms"


def _fmt_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = [f"{k}={attrs[k]!r}" for k in sorted(attrs)]
    text = " ".join(parts)
    if len(text) > 72:
        text = text[:69] + "..."
    return f"  [{text}]"


def _span_lines(
    span: Dict[str, Any],
    depth: int,
    max_depth: Optional[int],
    min_ms: float,
    lines: List[str],
    hidden: List[int],
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    if span["wall_seconds"] * 1e3 < min_ms:
        # children can only be faster than their parent: prune the subtree
        hidden[0] += _subtree_size(span)
        return
    lines.append(
        f"  {_fmt_ms(span['wall_seconds'])} wall {_fmt_ms(span['cpu_seconds'])} cpu"
        f"  {'  ' * depth}{span['name']}{_fmt_attrs(span['attrs'])}"
    )
    for child in span["children"]:
        _span_lines(child, depth + 1, max_depth, min_ms, lines, hidden)


def _subtree_size(span: Dict[str, Any]) -> int:
    return 1 + sum(_subtree_size(child) for child in span["children"])


def _aggregate_by_name(payload: Dict[str, Any]) -> Dict[str, List[float]]:
    """``name -> [count, total wall, total cpu]`` over parent AND worker
    spans — the worker trees are where census/conformance bulk lives."""
    totals: Dict[str, List[float]] = {}

    def visit(span: Dict[str, Any]) -> None:
        entry = totals.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["wall_seconds"]
        entry[2] += span["cpu_seconds"]
        for child in span["children"]:
            visit(child)

    for span in payload.get("spans", []):
        visit(span)
    for snap in payload.get("workers", []):
        for span in snap.get("spans", []):
            visit(span)
    return totals


#: ``--sort`` key -> index into the ``[count, wall, cpu]`` aggregate rows
SORT_KEYS = {"wall": 1, "cpu": 2, "count": 0}


def format_trace_summary(
    payload: Dict[str, Any],
    max_depth: Optional[int] = None,
    max_counters: int = 20,
    top: Optional[int] = None,
    sort: str = "wall",
    min_ms: float = 0.0,
) -> str:
    """Render one trace payload as an indented text report.

    Census/conformance traces carry thousands of spans, which made the
    unfiltered tree useless for them; three filters fix that:

    * ``min_ms`` prunes tree nodes (and their subtrees) whose wall time
      is below the threshold, reporting how many spans were hidden;
    * ``top`` replaces the span tree with a flat per-name profile table
      (count, total wall, total cpu — parent *and* worker spans) limited
      to the ``top`` busiest names;
    * ``sort`` (``wall`` | ``cpu`` | ``count``) orders that table.
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {sorted(SORT_KEYS)}, got {sort!r}")
    lines: List[str] = []
    meta = payload.get("meta", {})
    machine = payload.get("machine", {})
    header = f"trace {payload.get('schema', '?')}"
    if meta.get("command"):
        header += f" — {meta['command']}"
    lines.append(header)
    lines.append(
        f"machine: python {machine.get('python', '?')}, "
        f"{machine.get('cpu_count', '?')} cpus"
    )

    spans = payload.get("spans", [])
    if top is not None:
        totals = _aggregate_by_name(payload)
        rows = [
            (name, entry)
            for name, entry in totals.items()
            if entry[1] * 1e3 >= min_ms
        ]
        rows.sort(key=lambda kv: (-kv[1][SORT_KEYS[sort]], kv[0]))
        if rows:
            lines.append("")
            lines.append(f"top spans by name (sorted by {sort}):")
            lines.append(
                f"  {'calls':>8}  {'total wall':>11} {'total cpu':>11}  name"
            )
            for name, (count, wall, cpu) in rows[:top]:
                lines.append(
                    f"  {int(count):>8}  {_fmt_ms(wall)} {_fmt_ms(cpu)}  {name}"
                )
            if len(rows) > top:
                lines.append(f"  … {len(rows) - top} more span names")
    elif spans:
        shown: List[str] = []
        hidden = [0]
        for span in spans:
            _span_lines(span, 0, max_depth, min_ms, shown, hidden)
        if shown:
            lines.append("")
            lines.append("spans (wall / cpu):")
            lines.extend(shown)
        if hidden[0]:
            lines.append(f"  … {hidden[0]} span(s) under {min_ms:g}ms hidden")

    aggregate = payload.get("aggregate", {})
    counters = aggregate.get("counters") or payload.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters (aggregate):")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, value in ranked[:max_counters]:
            text = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
            lines.append(f"  {text:>12}  {name}")
        if len(ranked) > max_counters:
            lines.append(f"  … {len(ranked) - max_counters} more")

    gauges = payload.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {gauges[name]:>12g}  {name}")

    workers = payload.get("workers", [])
    if workers:
        lines.append("")
        totals = [
            sum(s["wall_seconds"] for s in snap.get("spans", []))
            for snap in workers
        ]
        pids = sorted({snap.get("worker") for snap in workers})
        lines.append(
            f"workers: {len(workers)} work item(s) across {len(pids)} process(es); "
            f"per-item wall {min(totals):.3f}s–{max(totals):.3f}s"
            if totals
            else f"workers: {len(workers)} work item(s)"
        )
    return "\n".join(lines)
