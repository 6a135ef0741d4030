"""Per-metric history and the perf-regression sentinel.

Operates on ``repro-run/1`` records from :mod:`repro.obs.store`:

* :func:`format_trend` renders each metric's trajectory across runs —
  span wall times, counters, gauges — with an ASCII
  bar per run so drift is visible in a terminal;
* :func:`diff_records` compares two runs metric-by-metric under a
  **noise-tolerant threshold model** and classifies every delta, which
  is what lets ``python -m repro obs diff`` gate CI without flaking.

The threshold model (:class:`Thresholds`):

* **min-runtime floor** — a span must exceed ``min_seconds`` in the new
  run before its growth can count as a regression; micro-spans are pure
  scheduler noise and the decision pipeline's interesting stages are
  milliseconds-to-seconds;
* **relative tolerance** — a floored span regresses only when its wall
  time grows beyond ``rel_tolerance`` (for example ``0.25`` = +25 %);
  CPU time is reported but never gates, since wall is what users feel
  and CPU skews under pool parallelism;
* **counter tolerance** — counters (search nodes, split steps, runs)
  are deterministic for a fixed workload, so they get a separate,
  usually tighter, relative tolerance; growth beyond it means the
  *algorithm* did more work, the strongest regression signal there is.

Metrics present on only one side classify as ``new`` / ``gone`` and
never gate — a renamed span must not masquerade as a perf win.

**Forward compatibility:** newer producers put richer entries into run
records — ``repro-soak/1`` ingestion attaches histogram payloads, and
future metric kinds will add shapes this module has never seen.  Both
:func:`diff_records` and :func:`format_trend` therefore *skip* any
entry they don't recognize (a span without a numeric ``wall_seconds``,
a non-numeric counter/gauge, an unknown top-level section such as the
``cache`` map older records carry) instead of raising: an old CLI
reading a newer store must keep rendering and gating what it
understands.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import localtime, strftime
from typing import Any, Dict, List, Optional

#: Delta classifications that make ``obs diff`` exit non-zero.
GATING = ("regression",)


@dataclass(frozen=True, slots=True)
class Thresholds:
    """The noise-tolerance knobs for :func:`diff_records`."""

    min_seconds: float = 0.05
    rel_tolerance: float = 0.25
    counter_tolerance: float = 0.10


@dataclass(frozen=True, slots=True)
class Delta:
    """One metric compared across two runs."""

    kind: str  # "span" | "counter" | "gauge"
    name: str
    before: Optional[float]
    after: Optional[float]
    status: str  # "ok" | "regression" | "improvement" | "new" | "gone"
    reason: str

    @property
    def ratio(self) -> Optional[float]:
        if self.before and self.after is not None and self.before > 0:
            return self.after / self.before
        return None


def _span_delta(name: str, before: float, after: float, t: Thresholds) -> Delta:
    if after < t.min_seconds and before < t.min_seconds:
        return Delta("span", name, before, after, "ok", "below min-runtime floor")
    if before <= 0 and after >= t.min_seconds:
        return Delta(
            "span", name, before, after, "regression",
            f"wall ~0s -> {after:.3f}s (baseline did no measurable work)",
        )
    if before > 0 and after > before * (1 + t.rel_tolerance) and after >= t.min_seconds:
        return Delta(
            "span",
            name,
            before,
            after,
            "regression",
            f"wall {before:.3f}s -> {after:.3f}s "
            f"(+{(after / before - 1) * 100:.0f}% > {t.rel_tolerance * 100:.0f}% tolerance)",
        )
    if before > 0 and after < before * (1 - t.rel_tolerance):
        return Delta(
            "span",
            name,
            before,
            after,
            "improvement",
            f"wall {before:.3f}s -> {after:.3f}s",
        )
    return Delta("span", name, before, after, "ok", "within tolerance")


def _counter_delta(name: str, before: float, after: float, t: Thresholds) -> Delta:
    if before > 0 and after > before * (1 + t.counter_tolerance) + 1e-9:
        return Delta(
            "counter",
            name,
            before,
            after,
            "regression",
            f"{before:g} -> {after:g} "
            f"(+{(after / before - 1) * 100:.0f}% > {t.counter_tolerance * 100:.0f}% tolerance)",
        )
    if before == 0 and after > 0:
        return Delta("counter", name, before, after, "regression", f"0 -> {after:g}")
    if after < before * (1 - t.counter_tolerance) - 1e-9:
        return Delta(
            "counter", name, before, after, "improvement", f"{before:g} -> {after:g}"
        )
    return Delta("counter", name, before, after, "ok", "within tolerance")


def _presence(kind: str, name: str, before, after) -> Delta:
    if before is None:
        return Delta(kind, name, None, after, "new", "not in the baseline run")
    return Delta(kind, name, before, None, "gone", "not in the new run")


def _number(value: Any) -> Optional[float]:
    """A plain number, or ``None`` for any shape this module predates."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _span_wall(entry: Any) -> Optional[float]:
    """A span entry's wall seconds, or ``None`` for an unknown kind."""
    if not isinstance(entry, dict):
        return None
    return _number(entry.get("wall_seconds"))


def diff_records(
    before: Dict[str, Any],
    after: Dict[str, Any],
    thresholds: Optional[Thresholds] = None,
) -> List[Delta]:
    """Compare two run records; returns one :class:`Delta` per metric.

    Gauges are informational only (no gating: a gauge's direction has no
    universal "worse").  Use :func:`regressions` to extract the gating
    subset; ``diff_records(r, r)`` is all-``ok`` by construction, which
    the test suite pins (self-vs-self must exit zero).
    """
    t = thresholds or Thresholds()
    deltas: List[Delta] = []

    # Sections that aren't dicts (or are missing) read as empty, and any
    # *entry* whose shape this module doesn't recognize — a span without
    # numeric wall_seconds, a histogram smuggled into a counter slot — is
    # skipped on both sides rather than raised on or mis-gated: an entry
    # present-but-unreadable must not classify as new/gone either, since
    # downgrade-then-upgrade would then flap every unknown metric.
    def section(record: Dict[str, Any], key: str) -> Dict[str, Any]:
        value = record.get(key)
        return value if isinstance(value, dict) else {}

    b_spans, a_spans = section(before, "spans"), section(after, "spans")
    for name in sorted(set(b_spans) | set(a_spans)):
        b_wall = _span_wall(b_spans[name]) if name in b_spans else None
        a_wall = _span_wall(a_spans[name]) if name in a_spans else None
        if (name in b_spans and b_wall is None) or (
            name in a_spans and a_wall is None
        ):
            continue  # unrecognized span kind
        if name not in b_spans or name not in a_spans:
            deltas.append(_presence("span", name, b_wall, a_wall))
            continue
        assert b_wall is not None and a_wall is not None
        deltas.append(_span_delta(name, b_wall, a_wall, t))

    b_counters, a_counters = section(before, "counters"), section(after, "counters")
    for name in sorted(set(b_counters) | set(a_counters)):
        b_val = _number(b_counters[name]) if name in b_counters else None
        a_val = _number(a_counters[name]) if name in a_counters else None
        if (name in b_counters and b_val is None) or (
            name in a_counters and a_val is None
        ):
            continue  # unrecognized counter kind
        if name not in b_counters or name not in a_counters:
            deltas.append(_presence("counter", name, b_val, a_val))
            continue
        assert b_val is not None and a_val is not None
        deltas.append(_counter_delta(name, b_val, a_val, t))

    b_gauges, a_gauges = section(before, "gauges"), section(after, "gauges")
    for name in sorted(set(b_gauges) | set(a_gauges)):
        b_val = _number(b_gauges[name]) if name in b_gauges else None
        a_val = _number(a_gauges[name]) if name in a_gauges else None
        if (name in b_gauges and b_val is None) or (
            name in a_gauges and a_val is None
        ):
            continue  # unrecognized gauge kind
        if name not in b_gauges or name not in a_gauges:
            deltas.append(_presence("gauge", name, b_val, a_val))
            continue
        deltas.append(
            Delta("gauge", name, b_val, a_val, "ok", "informational")
        )

    return deltas


def regressions(deltas: List[Delta]) -> List[Delta]:
    """The gating subset of a diff (what makes ``obs diff`` exit 1)."""
    return [d for d in deltas if d.status in GATING]


def _describe_run(record: Dict[str, Any]) -> str:
    when = strftime("%Y-%m-%d %H:%M", localtime(record["created_unix"]))
    sha = (record.get("git_sha") or "")[:9]
    parts = [record["run_id"], when, record["command"]]
    if record.get("task"):
        parts.append(record["task"])
    if sha:
        parts.append(f"@{sha}")
    return "  ".join(parts)


def format_diff(
    before: Dict[str, Any],
    after: Dict[str, Any],
    deltas: List[Delta],
    show_ok: bool = False,
) -> str:
    """Render a diff as text: header, notable deltas, gating verdict."""
    lines = [
        f"baseline: {_describe_run(before)}",
        f"current:  {_describe_run(after)}",
        "",
    ]
    notable = [d for d in deltas if show_ok or d.status != "ok"]
    if not notable:
        lines.append(f"no notable deltas across {len(deltas)} metrics")
    for delta in notable:
        marker = {
            "regression": "REGRESSION",
            "improvement": "improved",
            "new": "new",
            "gone": "gone",
            "ok": "ok",
        }[delta.status]
        lines.append(f"  [{marker:>10}] {delta.kind} {delta.name}: {delta.reason}")
    bad = regressions(deltas)
    lines.append("")
    lines.append(
        f"verdict: {len(bad)} regression(s) across {len(deltas)} metrics"
        + ("" if bad else " — clean")
    )
    return "\n".join(lines)


def _metric_series(records: List[Dict[str, Any]]) -> Dict[str, List[Optional[float]]]:
    """``metric -> one value per run (None where absent)``, stable order."""
    series: Dict[str, List[Optional[float]]] = {}
    keys: List[str] = []

    def touch(key: str) -> List[Optional[float]]:
        if key not in series:
            series[key] = [None] * len(records)
            keys.append(key)
        return series[key]

    def section(record: Dict[str, Any], key: str) -> Dict[str, Any]:
        value = record.get(key)
        return value if isinstance(value, dict) else {}

    # Unrecognized entry shapes are skipped (left None for that run)
    # rather than raised on — see the module docstring on forward
    # compatibility with future record kinds.
    for i, record in enumerate(records):
        for name, entry in section(record, "spans").items():
            wall = _span_wall(entry)
            if wall is not None:
                touch(f"span {name}.wall_seconds")[i] = wall
        for name, value in section(record, "counters").items():
            num = _number(value)
            if num is not None:
                touch(f"counter {name}")[i] = num
        for name, value in section(record, "gauges").items():
            num = _number(value)
            if num is not None:
                touch(f"gauge {name}")[i] = num
    return {key: series[key] for key in keys}


def _bar(value: float, maximum: float, width: int = 20) -> str:
    if maximum <= 0:
        return ""
    return "#" * max(1, round(width * value / maximum))


def format_trend(
    records: List[Dict[str, Any]],
    metric: Optional[str] = None,
    last: Optional[int] = 10,
    command: Optional[str] = None,
) -> str:
    """Per-metric history across the store's runs, newest runs last.

    ``metric`` filters by case-insensitive substring; ``command``
    restricts to one subcommand's runs (mixing ``decide`` and ``census``
    histories in one series would chart apples against oranges);
    ``last`` keeps the newest N runs per series (``None`` = all).
    """
    pool = [r for r in records if command is None or r["command"] == command]
    pool.sort(key=lambda r: r["created_unix"])
    if last is not None and last > 0:
        pool = pool[-last:]
    if not pool:
        return "telemetry store is empty (record runs with --trace/--store first)"
    lines = [f"{len(pool)} run(s):"]
    for record in pool:
        lines.append(f"  {_describe_run(record)}")
    series = _metric_series(pool)
    if metric:
        needle = metric.lower()
        series = {k: v for k, v in series.items() if needle in k.lower()}
        if not series:
            lines.append("")
            lines.append(f"no metric matches {metric!r}")
            return "\n".join(lines)
    for key, values in series.items():
        present = [v for v in values if v is not None]
        maximum = max(present) if present else 0.0
        lines.append("")
        lines.append(f"{key}:")
        for record, value in zip(pool, values):
            if value is None:
                lines.append(f"  {record['run_id']}           —")
                continue
            lines.append(
                f"  {record['run_id']}  {value:>12.6g}  {_bar(value, maximum)}"
            )
    return "\n".join(lines)


__all__ = [
    "Delta",
    "GATING",
    "Thresholds",
    "diff_records",
    "format_diff",
    "format_trend",
    "regressions",
]
