"""Order statistics and the host-speed yardstick shared by every workload.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes.  Every reported time is therefore divided by the host's
slowness at the moment it was measured: :func:`reference_chunk` (a fixed
pure-Python chunk) is timed between rounds, or between single ops where
the workload makes them, and a round measured while the chunk took
``1.2 * REFERENCE_S`` counts its wall time as ``wall / 1.2``.
The raw wall-clock figures are printed beside the normalised ones.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import List, Sequence, Tuple

#: the percentiles a tail may be reported at, lowest first.  p99.9 is left
#: out: a 20 s service run puts only ~25 samples beyond it, so single host
#: stalls, not the program, decide it
LADDER = (50.0, 90.0, 99.0)

#: samples that must lie beyond a percentile before it may be reported
MIN_BEYOND = 10

#: seconds :func:`reference_chunk` takes on the host normalised times refer to
REFERENCE_S = 0.008

#: reference chunks timed at each boundary between rounds or segments
CHUNKS_PER_BOUNDARY = 6


def reference_chunk() -> float:
    """Seconds for a fixed pure-Python chunk of work.

    Half integer arithmetic, half allocation-heavy dict, tuple, frozenset
    and sort work, which tracks the program's own slowdowns far better than
    arithmetic alone.  Never change it: every normalised figure, across
    commits, is relative to it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
    table = {}
    for i in range(3_000):
        table[(i % 97, str(i))] = frozenset((i, i >> 1, i >> 2))
    union: set = set()
    for _key, value in sorted(table.items(), key=lambda kv: kv[0]):
        union |= value
    return time.perf_counter() - start


def reference_boundary() -> List[float]:
    """Chunks timed on every CPU this process may use, in turn.

    A workload of two processes (the service and its client) runs on more
    than one CPU, and a neighbour may slow one CPU and not the other.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = max(1, CHUNKS_PER_BOUNDARY // len(cpus))
    chunks = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            chunks += [reference_chunk() for _ in range(per_cpu)]
    finally:
        os.sched_setaffinity(0, cpus)
    return chunks


def slowness(chunks: Sequence[float]) -> float:
    """Host slowness while ``chunks`` were timed (1.0 = the nominal host)."""
    return statistics.median(chunks) / REFERENCE_S


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of ``pct`` in ``n`` sorted samples."""
    return max(1, min(n, math.ceil(round(pct * n / 100.0, 9))))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the reported tail.

    The tail is the highest percentile of :data:`LADDER` with at least
    :data:`MIN_BEYOND` samples above its nearest rank.  When no rung has
    that many (a short batch run), the maximum is reported as ``p100``
    with zero samples beyond, so the reader sees how thin it is.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    for pct in reversed(LADDER):
        rank = nearest_rank(n, pct)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def tail_class(values: Sequence[float], labels: Sequence[str]) -> str:
    """The label of the sample the tail lands on (ties: first in sorted order)."""
    if len(values) != len(labels):
        raise ValueError("one label per sample")
    order = sorted(range(len(values)), key=lambda i: values[i])
    pct, _value, _beyond = tail(values)
    return labels[order[nearest_rank(len(values), pct) - 1]]
