"""Unit tests for the live metrics primitives (``repro.obs.metrics``).

Pins the properties the service wiring and the soak harness lean on:
histograms merge losslessly bucket-by-bucket, quantile estimates are
conservative (never understate), snapshots validate as
``repro-metrics/1``, and the Prometheus text rendering round-trips
through the bundled parser — the "parses as Prometheus text format"
acceptance gate.
"""

import json
import threading

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    INF_LABEL,
    N_BUCKETS,
    SCHEMA,
    LatencyHistogram,
    RateMeter,
    bucket_index,
    build_metrics,
    metrics_from_json,
    parse_prometheus_text,
    prometheus_text,
    quantile_from_snapshot,
    validate_metrics,
)
from repro.obs.recorder import Recorder


class TestBucketing:
    def test_bounds_are_geometric_and_ascending(self):
        assert len(BUCKET_BOUNDS) == N_BUCKETS
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == pytest.approx(lo * 2.0)

    def test_zero_and_negative_land_in_the_first_bucket(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0

    def test_exact_bound_lands_in_that_bucket(self):
        # bisect_left: an observation equal to a bound is <= that bound
        assert bucket_index(BUCKET_BOUNDS[3]) == 3

    def test_huge_values_overflow(self):
        assert bucket_index(1e9) == N_BUCKETS


class TestLatencyHistogram:
    def test_record_updates_count_sum_min_max(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.record(0.004)
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.005)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.004)

    def test_snapshot_buckets_sum_to_count(self):
        hist = LatencyHistogram()
        for value in (1e-5, 1e-3, 1e-3, 0.1, 1e6):
            hist.record(value)
        snap = hist.snapshot()
        assert sum(n for _, n in snap["buckets"]) == snap["count"] == 5
        assert snap["buckets"][-1][0] == INF_LABEL  # the 1e6 overflow

    def test_empty_snapshot_is_well_formed(self):
        snap = LatencyHistogram().snapshot()
        assert snap == {
            "count": 0,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "buckets": [],
        }

    def test_merge_is_lossless_bucket_addition(self):
        a, b, direct = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for value in (0.001, 0.002, 0.5):
            a.record(value)
            direct.record(value)
        for value in (0.004, 1e7):
            b.record(value)
            direct.record(value)
        a.merge(b.snapshot())
        merged, expected = a.snapshot(), direct.snapshot()
        assert merged["sum"] == pytest.approx(expected["sum"])
        del merged["sum"], expected["sum"]
        assert merged == expected  # buckets/count/min/max are exact

    def test_quantile_is_conservative(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(0.001)
        hist.record(0.256)
        p50, p99 = hist.quantile(0.50), hist.quantile(0.99)
        assert p50 >= 0.001  # never understates
        assert p50 <= 0.002  # ...but stays within one bucket
        assert p99 >= 0.001
        assert hist.quantile(1.0) >= 0.256

    def test_quantile_of_overflow_returns_observed_max(self):
        hist = LatencyHistogram()
        hist.record(1e6)
        assert hist.quantile(0.99) == pytest.approx(1e6)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_quantile_of_empty_is_zero(self):
        assert LatencyHistogram().quantile(0.99) == 0.0

    def test_concurrent_recording_drops_nothing(self):
        hist = LatencyHistogram()

        def pound():
            for _ in range(1000):
                hist.record(0.001)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap["count"] == 4000
        assert sum(n for _, n in snap["buckets"]) == 4000

    def test_quantile_from_snapshot_matches_live_quantile(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.1):
            hist.record(value)
        snap = hist.snapshot()
        for q in (0.5, 0.9, 0.99):
            assert quantile_from_snapshot(snap, q) == pytest.approx(
                hist.quantile(q)
            )
        assert quantile_from_snapshot({"count": 0, "buckets": []}, 0.5) == 0.0


class TestRateMeter:
    def test_rate_over_injected_clock(self):
        now = [100.0]
        meter = RateMeter(window=10.0, clock=lambda: now[0])
        for _ in range(20):
            meter.record()
        now[0] = 105.0
        # 20 events over a 5s lifetime (< window) -> 4/s
        assert meter.rate() == pytest.approx(4.0)
        assert meter.count == 20

    def test_events_age_out_of_the_window(self):
        now = [100.0]
        meter = RateMeter(window=10.0, clock=lambda: now[0])
        meter.record(5)
        now[0] = 200.0  # far beyond the window
        assert meter.rate() == 0.0
        assert meter.count == 5  # the lifetime total is monotonic

    def test_snapshot_shape(self):
        snap = RateMeter(window=30.0).snapshot()
        assert set(snap) == {"count", "rate_per_s", "window_seconds"}
        assert snap["window_seconds"] == 30.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            RateMeter(window=0.0)


class TestMetricsRegistry:
    """The recorder is the one metrics registry."""

    def test_same_name_and_labels_share_one_instrument(self):
        reg = Recorder()
        assert reg.histogram("lat", op="decide") is reg.histogram(
            "lat", op="decide"
        )
        assert reg.histogram("lat", op="decide") is not reg.histogram(
            "lat", op="verify"
        )

    def test_build_validates_and_carries_everything(self):
        reg = Recorder()
        reg.histogram("latency", op="decide").record(0.01)
        reg.meter("requests").record()
        reg.add_counter("responses", status="200")
        reg.gauge_fn("uptime", lambda: 12.5)
        payload = build_metrics(reg)
        assert validate_metrics(payload) == []
        assert payload["schema"] == SCHEMA
        assert payload["histograms"][0]["labels"] == {"op": "decide"}
        assert payload["gauges"][0] == {
            "name": "uptime",
            "labels": {},
            "value": 12.5,
        }

    def test_broken_gauge_never_breaks_the_scrape(self):
        reg = Recorder()
        reg.gauge_fn("ok", lambda: 1.0)
        reg.gauge_fn("broken", lambda: 1 / 0)
        payload = build_metrics(reg)
        assert validate_metrics(payload) == []
        assert [g["name"] for g in payload["gauges"]] == ["ok"]

    def test_labelled_counters_share_the_trace_counter_map(self):
        reg = Recorder()
        reg.add_counter("http_responses", status="200")
        reg.add_counter("http_responses", 2, status="404")
        reg.add_counter("plain")
        assert reg.counters == {
            'http_responses{status="200"}': 1.0,
            'http_responses{status="404"}': 2.0,
            "plain": 1.0,
        }
        assert reg.counter_by("http_responses", "status") == {
            "200": 1.0,
            "404": 2.0,
        }
        exported = {
            (c["name"], tuple(c["labels"].items())): c["value"]
            for c in build_metrics(reg)["counters"]
        }
        assert exported[("http_responses", (("status", "404"),))] == 2.0
        assert exported[("plain", ())] == 1.0

    def test_merge_counters_adds_series_and_keeps_labels(self):
        server, process = Recorder(), Recorder()
        server.add_counter("service.batches", 2)
        server.add_counter("http_responses", status="200")
        server.histogram("latency").record(0.01)
        process.add_counter("service.batches")
        process.merge_counters(server)
        assert process.counters["service.batches"] == 3.0
        assert process.counter_by("http_responses", "status") == {"200": 1.0}
        assert process.histograms == {}  # counters only

    def test_resources_ride_in_the_snapshot(self):
        reg = Recorder()
        resources = {"samples": [{"t": 0.0, "values": {"rss_bytes": 1.0}}]}
        payload = build_metrics(reg, resources=resources)
        assert validate_metrics(payload) == []
        assert payload["resources"] == resources


class TestValidateMetrics:
    def _minimal(self):
        return build_metrics(Recorder())

    def test_rejects_non_object(self):
        assert validate_metrics([]) != []

    def test_rejects_wrong_schema(self):
        bad = dict(self._minimal(), schema="repro-metrics/0")
        assert any("schema" in p for p in validate_metrics(bad))

    def test_rejects_bucket_count_mismatch(self):
        payload = self._minimal()
        payload["histograms"] = [
            {
                "name": "h",
                "labels": {},
                "count": 3,
                "sum": 1.0,
                "buckets": [[0.001, 1]],  # sums to 1, count says 3
            }
        ]
        assert any("bucket counts" in p for p in validate_metrics(payload))

    def test_rejects_malformed_bucket_pair(self):
        payload = self._minimal()
        payload["histograms"] = [
            {
                "name": "h",
                "labels": {},
                "count": 0,
                "sum": 0.0,
                "buckets": [["what", "no"]],
            }
        ]
        assert any("buckets[0]" in p for p in validate_metrics(payload))


class TestPrometheusExposition:
    def _payload(self):
        reg = Recorder()
        hist = reg.histogram("request_latency_seconds", op="decide")
        for value in (0.001, 0.002, 0.5, 1e6):
            hist.record(value)
        reg.meter("requests").record(3)
        reg.add_counter("http_responses", 7, status="200")
        reg.gauge_fn("uptime_seconds", lambda: 42.0)
        return build_metrics(
            reg,
            resources={"samples": [{"t": 1.0, "values": {"rss_bytes": 1024.0}}]},
        )

    def test_text_parses_and_buckets_cumulate(self):
        payload = self._payload()
        text = prometheus_text(payload)
        samples = parse_prometheus_text(text)
        count_key = 'repro_request_latency_seconds_count{op="decide"}'
        inf_key = 'repro_request_latency_seconds_bucket{le="+Inf",op="decide"}'
        assert samples[count_key] == 4.0
        assert samples[inf_key] == 4.0  # the trailing bucket is cumulative
        assert samples["repro_requests_total"] == 3.0
        assert samples['repro_http_responses_total{status="200"}'] == 7.0
        assert samples["repro_uptime_seconds"] == 42.0
        assert samples["repro_resource_rss_bytes"] == 1024.0

    def test_bucket_series_is_monotone(self):
        samples = parse_prometheus_text(prometheus_text(self._payload()))
        buckets = [
            value
            for key, value in samples.items()
            if key.startswith("repro_request_latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)

    def test_type_headers_precede_samples(self):
        text = prometheus_text(self._payload())
        lines = text.splitlines()
        first_histogram_line = next(
            i for i, l in enumerate(lines) if "request_latency" in l
        )
        assert lines[first_histogram_line].startswith("# TYPE")

    def test_json_variant_round_trips(self):
        payload = self._payload()
        recovered = metrics_from_json(json.dumps(payload))
        assert prometheus_text(recovered) == prometheus_text(payload)

    def test_metric_names_are_sanitized(self):
        reg = Recorder()
        reg.add_counter("service.op/decide-now")
        text = prometheus_text(build_metrics(reg))
        assert "repro_service_op_decide_now_total" in text
        parse_prometheus_text(text)  # and the result is legal

    def test_label_values_are_escaped(self):
        reg = Recorder()
        reg.add_counter("c", path='we"ird\\label')
        samples = parse_prometheus_text(prometheus_text(build_metrics(reg)))
        assert len(samples) == 1

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("justonetoken\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("bad name{} 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text('unterminated{le="0.1 1\n')

    def test_parser_skips_comments_and_blanks(self):
        assert parse_prometheus_text("# HELP x\n\nx_total 1\n") == {
            "x_total": 1.0
        }

    def test_metrics_from_json_raises_on_invalid(self):
        with pytest.raises(ValueError):
            metrics_from_json('{"schema": "nope"}')
