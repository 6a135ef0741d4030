"""Live service metrics: latency histograms, rate meters, exposition.

The tracing layer (:mod:`repro.obs.recorder`) answers *post-hoc*
questions — export a span tree after the run, diff it against a
baseline.  A long-running service needs the complementary *live* view:
latency **distributions** (a mean hides the bimodal cache-hit/miss
split entirely), short-window request **rates**, and a snapshot you can
scrape at any moment without stopping the world.  This module provides
the primitives the verdict server's ``/metrics`` endpoint serves:

* :class:`LatencyHistogram` — log-bucketed (geometric bounds, base 2)
  observation counts.  Buckets make histograms **mergeable** across
  workers and scrapes the way Recorder counters are: two histograms sum
  bucket-by-bucket with no loss, which a stored list of percentiles can
  never do.  Recording is a dict increment under a lock — cheap enough
  for the request path — and quantiles are estimated conservatively
  (upper bucket bound) at read time.
* :class:`RateMeter` — a sliding window of per-second event buckets
  ("requests/s over the last 60 s"), the live complement of a monotonic
  counter.
* :func:`build_metrics` — one snapshot of every instrument a
  :class:`repro.obs.recorder.Recorder` holds.  The recorder is the one
  instrument registry; this module only renders it.

Snapshots export as schema-validated ``repro-metrics/1`` JSON
(:func:`build_metrics` / :func:`validate_metrics`) and render to the
Prometheus text exposition format (:func:`prometheus_text`); the
bundled :func:`parse_prometheus_text` is what the soak harness and the
round-trip tests read scrapes back with, keeping the format honest
without an external client library.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # the recorder imports this module's instruments
    from .recorder import Recorder

#: metrics snapshot format identifier; bump the suffix on breaking changes
SCHEMA = "repro-metrics/1"

#: smallest histogram bucket bound, in seconds (100 µs — below that is
#: pure event-loop noise for an HTTP request)
BUCKET_BASE = 1e-4

#: geometric growth factor between consecutive bucket bounds
BUCKET_GROWTH = 2.0

#: number of finite bucket bounds; the last finite bound is
#: ``BUCKET_BASE * BUCKET_GROWTH**(N_BUCKETS - 1)`` (~14 minutes), and
#: anything beyond lands in the ``+Inf`` overflow bucket
N_BUCKETS = 24

#: the finite bucket upper bounds, in seconds, ascending
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    BUCKET_BASE * BUCKET_GROWTH**i for i in range(N_BUCKETS)
)

#: JSON-safe spelling of the overflow bucket bound (Prometheus' ``+Inf``;
#: ``float("inf")`` is not valid strict JSON, so the export uses a string)
INF_LABEL = "+Inf"


def bucket_index(seconds: float) -> int:
    """The bucket an observation falls in: 0..N_BUCKETS (overflow last)."""
    if seconds <= 0:
        return 0
    return bisect_left(BUCKET_BOUNDS, seconds)


class LatencyHistogram:
    """Log-bucketed, mergeable, thread-safe observation histogram."""

    __slots__ = ("_lock", "_counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Fold one observation (in seconds) into the distribution."""
        value = float(seconds)
        index = bucket_index(value)
        with self._lock:
            self._counts[index] = self._counts.get(index, 0) + 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket counts sum exactly — the property that makes per-worker
        histograms aggregate without loss, mirroring how Recorder
        counters merge across pool workers.
        """
        with self._lock:
            for le, n in snapshot.get("buckets", []):
                index = N_BUCKETS if le == INF_LABEL else bucket_index(float(le))
                self._counts[index] = self._counts.get(index, 0) + int(n)
            self.count += int(snapshot.get("count", 0))
            self.sum += float(snapshot.get("sum", 0.0))
            if snapshot.get("count"):
                self.min = min(self.min, float(snapshot.get("min", self.min)))
                self.max = max(self.max, float(snapshot.get("max", self.max)))

    def quantile(self, q: float) -> float:
        """A conservative quantile estimate (upper bound of the bucket).

        ``q`` is in ``[0, 1]``.  Returns 0.0 on an empty histogram.  The
        estimate never understates: the true value is at most the
        returned bucket bound (exactly the guarantee soak gates want).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return quantile_from_snapshot(self.snapshot(), q)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe, mergeable state dump (per-bucket counts, not
        cumulative; the exposition layer cumulates)."""
        with self._lock:
            buckets: List[List[Any]] = [
                [
                    INF_LABEL if index >= N_BUCKETS else BUCKET_BOUNDS[index],
                    n,
                ]
                for index, n in sorted(self._counts.items())
            ]
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else 0.0,
                "max": self.max,
                "buckets": buckets,
            }


class RateMeter:
    """Sliding-window event rate: per-second buckets over ``window`` s."""

    __slots__ = ("_lock", "_window", "_buckets", "count", "_clock", "_started")

    def __init__(
        self, window: float = 60.0, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._lock = threading.Lock()
        self._window = float(window)
        self._buckets: Dict[int, int] = {}  # whole second -> event count
        self.count = 0
        self._clock = clock
        self._started = clock()

    def record(self, n: int = 1) -> None:
        now = self._clock()
        second = int(now)
        with self._lock:
            self._buckets[second] = self._buckets.get(second, 0) + n
            self.count += n
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = int(now - self._window)
        if len(self._buckets) > self._window + 2:
            for second in [s for s in self._buckets if s < horizon]:
                del self._buckets[second]

    def rate(self) -> float:
        """Events per second over the window (or since creation if newer)."""
        now = self._clock()
        horizon = now - self._window
        with self._lock:
            in_window = sum(
                n for second, n in self._buckets.items() if second >= horizon
            )
        span = min(self._window, max(now - self._started, 1.0))
        return in_window / span

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "rate_per_s": self.rate(),
            "window_seconds": self._window,
        }


def build_metrics(
    recorder: "Recorder", resources: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One ``repro-metrics/1`` snapshot of a recorder's instruments.

    One entry per labelled series; gauges are the set values plus the
    export-time callbacks, where a raising callback is skipped so a
    broken gauge never breaks the scrape.
    """

    def entries(instruments: Dict[str, Any], body: Callable[[Any], Dict[str, Any]]):
        rows = [(recorder.split(key), body(inst)) for key, inst in instruments.items()]
        rows.sort(key=lambda row: (row[0][0], sorted(row[0][1].items())))
        return [{"name": n, "labels": dict(labels), **fields} for (n, labels), fields in rows]

    gauges = dict(recorder.gauges)
    for name, fn in dict(recorder.gauge_fns).items():
        try:
            gauges[name] = float(fn())
        except Exception:  # a broken gauge must not break the scrape
            continue
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "histograms": entries(dict(recorder.histograms), LatencyHistogram.snapshot),
        "meters": entries(dict(recorder.meters), RateMeter.snapshot),
        "counters": entries(dict(recorder.counters), lambda v: {"value": v}),
        "gauges": [
            {"name": name, "labels": {}, "value": value}
            for name, value in sorted(gauges.items())
        ],
    }
    if resources is not None:
        payload["resources"] = resources
    return payload


def _validate_entry(entry: Any, where: str, fields: Dict[str, type]) -> List[str]:
    errors: List[str] = []
    if not isinstance(entry, dict):
        return [f"{where} must be an object"]
    if not (isinstance(entry.get("name"), str) and entry["name"]):
        errors.append(f"{where}.name must be a non-empty string")
    labels = entry.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append(f"{where}.labels must map strings to strings")
    for field, want in fields.items():
        value = entry.get(field)
        if not isinstance(value, want) or isinstance(value, bool):
            errors.append(f"{where}.{field} must be {want}")
    return errors


def validate_metrics(payload: Any) -> List[str]:
    """Check one snapshot against ``repro-metrics/1``; returns problems.

    Dependency-free and strict, in the style of
    :func:`repro.obs.store.validate_run_record` — the soak harness
    validates every scrape, so exposition drift fails fast.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["metrics snapshot must be an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    if not isinstance(payload.get("created_unix"), (int, float)):
        errors.append("created_unix must be a number")
    for section in ("histograms", "meters", "counters", "gauges"):
        entries = payload.get(section)
        if not isinstance(entries, list):
            errors.append(f"{section} must be a list")
            continue
        for i, entry in enumerate(entries):
            where = f"{section}[{i}]"
            if section == "histograms":
                errors.extend(
                    _validate_entry(
                        entry, where, {"count": int, "sum": (int, float)}
                    )
                )
                buckets = entry.get("buckets") if isinstance(entry, dict) else None
                if not isinstance(buckets, list):
                    errors.append(f"{where}.buckets must be a list")
                    continue
                total = 0
                for j, pair in enumerate(buckets):
                    if (
                        not isinstance(pair, (list, tuple))
                        or len(pair) != 2
                        or not (
                            pair[0] == INF_LABEL
                            or isinstance(pair[0], (int, float))
                        )
                        or not isinstance(pair[1], int)
                        or pair[1] < 0
                    ):
                        errors.append(
                            f"{where}.buckets[{j}] must be [bound, count]"
                        )
                        continue
                    total += pair[1]
                if (
                    isinstance(entry, dict)
                    and isinstance(entry.get("count"), int)
                    and total != entry["count"]
                ):
                    errors.append(
                        f"{where}: bucket counts sum to {total}, "
                        f"count says {entry['count']}"
                    )
            elif section == "meters":
                errors.extend(
                    _validate_entry(
                        entry,
                        where,
                        {
                            "count": int,
                            "rate_per_s": (int, float),
                            "window_seconds": (int, float),
                        },
                    )
                )
            else:
                errors.extend(
                    _validate_entry(entry, where, {"value": (int, float)})
                )
    resources = payload.get("resources")
    if resources is not None:
        if not isinstance(resources, dict):
            errors.append("resources must be an object")
        elif not isinstance(resources.get("samples"), list):
            errors.append("resources.samples must be a list")
        else:
            for i, sample in enumerate(resources["samples"]):
                if (
                    not isinstance(sample, dict)
                    or not isinstance(sample.get("t"), (int, float))
                    or not isinstance(sample.get("values"), dict)
                ):
                    errors.append(
                        f"resources.samples[{i}] must be "
                        "{'t': number, 'values': object}"
                    )
    return errors


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ---------------------------------------------------------------------------


def _prom_name(*parts: str) -> str:
    """A legal Prometheus metric name from dotted/dashed fragments."""
    joined = "_".join(p for p in parts if p)
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in joined)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def prometheus_text(payload: Dict[str, Any], prefix: str = "repro") -> str:
    """Render one ``repro-metrics/1`` snapshot as Prometheus exposition.

    Histograms become the standard ``_bucket``/``_sum``/``_count``
    triplet with cumulative ``le`` buckets, meters a ``_total`` counter
    plus a ``_rate_per_s`` gauge, counters a ``_total``, gauges a bare
    sample; the newest resource sample (when present) exports each value
    as a ``<prefix>_resource_<name>`` gauge.  Deterministic output for a
    fixed payload — the JSON variant and the text variant are two
    renderings of one snapshot, pinned by the round-trip tests.
    """
    lines: List[str] = []
    seen_types: set = set()

    def header(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in payload.get("histograms", []):
        name = _prom_name(prefix, entry["name"])
        header(name, "histogram")
        labels = entry.get("labels", {})
        cumulative = 0
        for le, n in entry.get("buckets", []):
            cumulative += n
            bound = INF_LABEL if le == INF_LABEL else _prom_value(le)
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': bound})} {cumulative}"
            )
        if entry.get("buckets") and entry["buckets"][-1][0] != INF_LABEL:
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': INF_LABEL})} "
                f"{cumulative}"
            )
        lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
    for entry in payload.get("meters", []):
        name = _prom_name(prefix, entry["name"])
        header(f"{name}_total", "counter")
        lines.append(f"{name}_total{_prom_labels(entry.get('labels', {}))} "
                     f"{entry['count']}")
        header(f"{name}_rate_per_s", "gauge")
        lines.append(
            f"{name}_rate_per_s{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_value(entry['rate_per_s'])}"
        )
    for entry in payload.get("counters", []):
        name = _prom_name(prefix, entry["name"]) + "_total"
        header(name, "counter")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_value(entry['value'])}"
        )
    for entry in payload.get("gauges", []):
        name = _prom_name(prefix, entry["name"])
        header(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_value(entry['value'])}"
        )
    samples = (payload.get("resources") or {}).get("samples") or []
    if samples:
        latest = samples[-1]
        for key, value in sorted(latest.get("values", {}).items()):
            name = _prom_name(prefix, "resource", key)
            header(name, "gauge")
            lines.append(f"{name} {_prom_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{'name{labels}': value}``.

    A deliberately small parser for the subset :func:`prometheus_text`
    emits (no timestamps, no escaped newlines in label values) — enough
    for the soak scraper and the round-trip tests to read scrapes back
    without an external client library.  Raises :class:`ValueError` on a
    malformed sample line, which is exactly what "parses as Prometheus
    text format" means for the acceptance gate.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, raw_value = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"line {lineno}: not a sample: {line!r}") from None
        series = series.strip()
        name = series.split("{", 1)[0]
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ValueError(f"line {lineno}: bad metric name in {line!r}")
        if "{" in series and not series.endswith("}"):
            raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
        value = float(raw_value)  # "+Inf"/"NaN" parse fine via float()
        samples[series] = value
    return samples


def metrics_from_json(text: str) -> Dict[str, Any]:
    """Parse and validate one JSON-variant scrape; raises on problems."""
    payload = json.loads(text)
    problems = validate_metrics(payload)
    if problems:
        raise ValueError(f"invalid {SCHEMA} snapshot: {problems}")
    return payload


def quantile_from_snapshot(entry: Dict[str, Any], q: float) -> float:
    """Conservative quantile from one exported histogram entry."""
    count = int(entry.get("count", 0))
    if count == 0:
        return 0.0
    rank = max(1, int(round(q * count)))
    seen = 0
    for le, n in entry.get("buckets", []):
        seen += int(n)
        if seen >= rank:
            return float(entry.get("max", 0.0)) if le == INF_LABEL else float(le)
    return float(entry.get("max", 0.0))


__all__ = [
    "BUCKET_BASE",
    "BUCKET_BOUNDS",
    "BUCKET_GROWTH",
    "INF_LABEL",
    "LatencyHistogram",
    "N_BUCKETS",
    "RateMeter",
    "SCHEMA",
    "bucket_index",
    "build_metrics",
    "metrics_from_json",
    "parse_prometheus_text",
    "prometheus_text",
    "quantile_from_snapshot",
    "validate_metrics",
]
