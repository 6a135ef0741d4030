"""End-to-end tests for ``GET /metrics`` on the verdict server.

Pins the acceptance gates: the text variant parses as Prometheus
exposition, the JSON variant validates as ``repro-metrics/1`` and both
are renderings of the same instruments; per-op and per-cache-tier
histograms appear after traffic; and concurrent scrapes during load
never fail while their counters stay monotone and bracket the load.
"""

import threading

import pytest

from repro.obs.metrics import (
    metrics_from_json,
    parse_prometheus_text,
    prometheus_text,
    validate_metrics,
)
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, ServerThread


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServerConfig(sample_interval=0.2)) as st:
        yield st


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as c:
        yield c


class TestMetricsEndpoint:
    def test_text_variant_parses_as_prometheus(self, client):
        client.decide("consensus")
        samples = parse_prometheus_text(client.metrics_text())
        assert samples  # non-empty and every line well-formed
        assert any(k.startswith("repro_uptime_seconds") for k in samples)

    def test_json_variant_validates_and_matches_the_text(self, client):
        client.decide("consensus")
        snapshot = client.metrics()  # client validates repro-metrics/1
        # the JSON variant renders to legal exposition too: same
        # instruments, one snapshot apart
        rendered = parse_prometheus_text(prometheus_text(snapshot))
        assert set(rendered) <= set(parse_prometheus_text(client.metrics_text()))

    def test_per_op_histogram_appears_after_traffic(self, client):
        client.decide("consensus")
        snapshot = client.metrics()
        ops = {
            h["labels"].get("op")
            for h in snapshot["histograms"]
            if h["name"] == "request_latency_seconds"
        }
        assert "decide" in ops
        assert "metrics" in ops  # the scrape itself is observed
        assert not any(op and "?" in op for op in ops)  # no query leakage

    def test_cache_tier_histogram_distinguishes_hit_from_miss(self, client):
        payload = {"op": "decide", "task": "hourglass"}
        client.solve(payload)  # miss (or coalesced)
        client.solve(payload)  # memory hit
        snapshot = client.metrics()
        tiers = {
            h["labels"].get("tier"): h["count"]
            for h in snapshot["histograms"]
            if h["name"] == "tier_latency_seconds"
        }
        assert tiers.get("memory", 0) >= 1
        assert tiers.get("miss", 0) >= 1

    def test_gauges_report_live_server_state(self, client):
        client.decide("consensus")
        gauges = {g["name"]: g["value"] for g in client.metrics()["gauges"]}
        assert gauges["uptime_seconds"] > 0.0
        assert gauges["keymap_entries"] >= 1.0
        assert gauges["cache_memory_entries"] >= 1.0
        assert gauges["rss_bytes"] > 1 << 20

    def test_resource_ring_rides_in_the_snapshot(self, client, server):
        # sample_interval=0.2 -> the t=0 anchor is always there
        resources = client.metrics().get("resources")
        assert resources is not None
        assert resources["samples"]
        assert "rss_bytes" in resources["samples"][0]["values"]
        assert "cache_memory_bytes" in resources["names"]

    def test_post_is_405(self, client):
        status, payload = client._request("POST", "/metrics", {})
        assert status == 405
        assert "error" in payload

    def test_error_responses_are_counted(self, client):
        client._request("GET", "/nope")
        snapshot = client.metrics()
        statuses = {
            c["labels"].get("status"): c["value"]
            for c in snapshot["counters"]
            if c["name"] == "http_responses"
        }
        assert statuses.get("404", 0) >= 1


class TestConcurrentScrapes:
    def test_scrapes_during_load_never_fail_and_counts_bracket(self, server):
        """The satellite gate: thread-safe recording under concurrency.

        Scrapers hammer both /metrics variants while solvers drive
        load.  No scrape may 500 or fail validation, every scraper's
        request-count sequence must be monotone, and the final count
        must bracket the load (>= before + solves issued).
        """
        with ServiceClient(server.url) as probe:
            probe.decide("consensus")  # warm the cache so load is fast
            before = self._request_count(probe.metrics())
        n_solves = 40
        errors = []
        counts_per_scraper = [[] for _ in range(3)]
        stop = threading.Event()

        def solver():
            with ServiceClient(server.url) as c:
                for _ in range(n_solves // 2):
                    response = c.decide("consensus")
                    if not response.get("ok"):
                        errors.append("solve not ok")

        def scraper(slot):
            with ServiceClient(server.url) as c:
                while not stop.is_set():
                    try:
                        snapshot = c.metrics()  # validates, raises on 500
                        parse_prometheus_text(c.metrics_text())
                    except Exception as exc:
                        errors.append(f"scrape failed: {exc!r}")
                        return
                    counts_per_scraper[slot].append(
                        self._request_count(snapshot)
                    )

        solvers = [threading.Thread(target=solver) for _ in range(2)]
        scrapers = [
            threading.Thread(target=scraper, args=(slot,)) for slot in range(3)
        ]
        for t in scrapers + solvers:
            t.start()
        for t in solvers:
            t.join()
        stop.set()
        for t in scrapers:
            t.join()

        assert errors == []
        for counts in counts_per_scraper:
            assert counts, "scraper never completed a scrape"
            assert counts == sorted(counts)  # monotone under concurrency
        with ServiceClient(server.url) as probe:
            after = self._request_count(probe.metrics())
        assert after >= before + n_solves

    @staticmethod
    def _request_count(snapshot):
        assert validate_metrics(snapshot) == []
        for meter in snapshot["meters"]:
            if meter["name"] == "requests":
                return meter["count"]
        return 0

    def test_json_snapshot_round_trips_under_load(self, server):
        import json

        with ServiceClient(server.url) as c:
            c.decide("consensus")
            snapshot = c.metrics()
        assert prometheus_text(
            metrics_from_json(json.dumps(snapshot))
        ) == prometheus_text(snapshot)
