"""Response accounting: ``/metrics`` and ``/v1/stats`` after a fixed script.

The server binds each response's instruments once per label value
(``http_responses{status}``, ``request_latency_seconds{op}``,
``tier_latency_seconds{tier}`` and the meters) instead of looking them
up by name and labels per response.  What it exports must not change:
``response_accounting.golden.json`` holds the three reads as the
per-response lookups produced them for :data:`SCRIPT`, less what depends
on the clock (timestamps, latency sums and buckets, rates, uptime, RSS).

To see what the current code exports for the script::

    PYTHONPATH=src python tests/service/test_response_accounting.py
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import tempfile
from typing import Any, Dict, List, Tuple

import repro.service.server as server_mod
from repro.service.server import ServerConfig, ServerThread
from repro.topology import diskstore

GOLDEN = os.path.join(os.path.dirname(__file__), "response_accounting.golden.json")


def _solve(op: str, task: str) -> Tuple[str, str, bytes]:
    return "POST", "/v1/solve", json.dumps({"op": op, "task": task}).encode()


#: one keep-alive connection's requests, in order: misses, hits, a
#: second spelling, an uncached failure, a 500, every 4xx and every route
SCRIPT: List[Tuple[str, str, bytes]] = [
    ("GET", "/healthz", b""),
    _solve("decide", "consensus"),
    _solve("decide", "consensus"),
    ("POST", "/v1/solve", b'{"task": "consensus", "op": "decide"}'),
    _solve("synthesize", "consensus"),
    _solve("synthesize", "consensus"),
    _solve("analyze", "figure3"),
    ("POST", "/v1/solve", b"{not json"),
    _solve("decide", "no-such-task"),
    ("GET", "/v1/solve", b""),
    ("GET", "/nowhere", b""),
    ("POST", "/healthz", b""),
    ("GET", "/v1/stats", b""),
    ("GET", "/metrics", b""),
    ("GET", "/metrics?format=json", b""),
    _solve("decide", "majority"),
    _solve("synthesize", "identity"),
    _solve("decide", "majority"),
]

#: gauges whose value the script fixes (the rest follow the clock or RSS)
STEADY_GAUGES = {"cache_memory_bytes", "cache_memory_entries", "keymap_entries", "queue_depth"}


def _text(raw: str) -> List[str]:
    """Prometheus text with clock-dependent values masked and buckets dropped."""
    out = []
    for line in raw.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        if name.endswith("_bucket"):
            continue
        steady = name.endswith(("_total", "_count")) or name in {
            f"repro_{gauge}" for gauge in STEADY_GAUGES
        }
        out.append(f"{series} {value if steady else '*'}")
    return out


def _snapshot(raw: Dict[str, Any]) -> Dict[str, Any]:
    """A ``repro-metrics/1`` snapshot less its clock-dependent fields."""
    return {
        "schema": raw["schema"],
        "counters": raw["counters"],
        "histograms": [
            {"name": h["name"], "labels": h["labels"], "count": h["count"]}
            for h in raw["histograms"]
        ],
        "meters": [
            {"name": m["name"], "labels": m["labels"], "count": m["count"]}
            for m in raw["meters"]
        ],
        "gauges": [
            {"name": g["name"], "value": g["value"] if g["name"] in STEADY_GAUGES else "*"}
            for g in raw["gauges"]
        ],
    }


def observed(store: str) -> Dict[str, Any]:
    """Run :data:`SCRIPT` (plus one malformed request line) against a
    fresh inline-pool server; return its masked stats and metrics."""
    original = server_mod.run_request_batch

    def figure3_raises(payloads):
        if any(p["op"] == "analyze" for p in payloads):
            raise RuntimeError("analyze is broken on purpose")
        return original(payloads)

    server_mod.run_request_batch = figure3_raises
    try:
        with diskstore.store_at(store), ServerThread(ServerConfig(pool="inline")) as st:
            conn = http.client.HTTPConnection("127.0.0.1", st.port, timeout=60)
            statuses = []
            for method, path, body in SCRIPT:
                conn.request(method, path, body=body or None)
                reply = conn.getresponse()
                reply.read()
                statuses.append(reply.status)
            with socket.create_connection(("127.0.0.1", st.port), timeout=60) as sock:
                sock.sendall(b"BROKEN\r\n\r\n")
                assert sock.makefile("rb").readline().startswith(b"HTTP/1.1 400")
            reads = []
            for path in ("/v1/stats", "/metrics", "/metrics?format=json"):
                conn.request("GET", path)
                reads.append(conn.getresponse().read().decode("utf-8"))
            conn.close()
    finally:
        server_mod.run_request_batch = original
    stats = json.loads(reads[0])
    del stats["uptime_seconds"]
    return {
        "statuses": statuses,
        "stats": stats,
        "metrics_text": _text(reads[1]),
        "metrics_json": _snapshot(json.loads(reads[2])),
    }


def test_exports_match_the_per_response_lookups(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert observed(str(tmp_path / "store")) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(observed(os.path.join(tmp, "store")), sys.stdout, indent=1, sort_keys=True)
    print()
