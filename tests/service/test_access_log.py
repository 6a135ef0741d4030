"""The structured access log, request ids, and the log/trace join.

Covers :mod:`repro.service.accesslog` as a unit (line shape, strict
reader) and wired into the server: every completed request logs one
line, solve lines carry the content-derived request id whose prefix is
the cache key, and — the satellite gate — the same id appears on the
``service.batch`` span's ``request_ids`` attribute, making access-log
lines joinable to the trace that computed them.
"""

import json

import pytest

from repro import obs
from repro.service.accesslog import (
    ACCESS_LOG_FIELDS,
    AccessLog,
    read_access_log,
    validate_access_line,
)
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, ServerThread


class TestAccessLogUnit:
    def test_write_emits_every_field(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with AccessLog(path) as log:
            log.write(
                request_id="abc.000001",
                method="POST",
                path="/v1/solve",
                status=200,
                latency_seconds=0.0021,
                op="decide",
                key_prefix="abc",
                cache_tier="memory",
                coalesced=False,
            )
        (line,) = read_access_log(path)
        assert set(line) == set(ACCESS_LOG_FIELDS)
        assert line["ok"] is True
        assert line["latency_ms"] == pytest.approx(2.1)
        assert line["queue_wait_ms"] is None  # absent facts stay null

    def test_error_status_logs_ok_false(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with AccessLog(path) as log:
            log.write(
                request_id="x.000001",
                method="GET",
                path="/nope",
                status=404,
                latency_seconds=0.001,
            )
        (line,) = read_access_log(path)
        assert line["ok"] is False and line["status"] == 404

    def test_validate_rejects_malformed_lines(self):
        assert validate_access_line("not a dict")
        assert any(
            "request_id" in p for p in validate_access_line({"t": 1.0})
        )
        full = {field: 1 for field in ACCESS_LOG_FIELDS}
        full.update(status=True, latency_ms="slow")
        problems = validate_access_line(full)
        assert any("status" in p for p in problems)
        assert any("latency_ms" in p for p in problems)

    def test_strict_reader_raises_on_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_access_log(str(path))
        path.write_text('{"t": 1.0}\n')
        with pytest.raises(ValueError, match="request_id"):
            read_access_log(str(path))
        assert read_access_log(str(path), strict=False) == []


@pytest.fixture()
def logged_server(tmp_path):
    path = str(tmp_path / "access.jsonl")
    config = ServerConfig(
        pool="inline", shards=1, access_log=path
    )
    with ServerThread(config) as st:
        yield st, path


class TestServerAccessLog:
    def test_every_request_logs_one_valid_line(self, logged_server):
        server, path = logged_server
        with ServiceClient(server.url) as client:
            client.health()
            client.decide("consensus")
            client._request("GET", "/nope")
        lines = read_access_log(path)  # strict: every line validates
        assert [l["path"] for l in lines] == ["/healthz", "/v1/solve", "/nope"]
        assert [l["status"] for l in lines] == [200, 200, 404]
        assert len({l["request_id"] for l in lines}) == 3

    def test_solve_lines_carry_the_dispatch_facts(self, logged_server):
        server, path = logged_server
        payload = {"op": "decide", "task": "hourglass"}
        with ServiceClient(server.url) as client:
            client.solve(payload)
            client.solve(payload)
        miss, hit = read_access_log(path)
        assert miss["op"] == hit["op"] == "decide"
        # the id prefix IS the cache key prefix — greppable into the store
        assert miss["key_prefix"] == hit["key_prefix"]
        assert len(miss["key_prefix"]) == 12
        assert miss["request_id"].startswith(miss["key_prefix"] + ".")
        assert miss["request_id"] != hit["request_id"]
        # miss went through the batch queue; hit never did
        assert miss["cache_tier"] is None
        assert miss["batch_size"] == 1
        assert miss["queue_wait_ms"] >= 0.0
        assert miss["coalesced"] is False
        assert hit["cache_tier"] == "memory"
        assert hit["batch_size"] is None

    def test_non_solve_lines_leave_solve_fields_null(self, logged_server):
        server, path = logged_server
        with ServiceClient(server.url) as client:
            client.health()
        (line,) = read_access_log(path)
        assert line["op"] is None
        assert line["key_prefix"] is None
        assert line["cache_tier"] is None


class TestLogTraceJoin:
    def test_request_id_appears_in_both_access_log_and_span(self, tmp_path):
        """The satellite gate: one id joins the log line to the span tree."""
        path = str(tmp_path / "access.jsonl")
        config = ServerConfig(
            pool="inline", shards=1, access_log=path
        )
        obs.reset_recorder()
        obs.set_tracing(True)
        try:
            with ServerThread(config) as server:
                with ServiceClient(server.url) as client:
                    client.decide("2-set-agreement")
            trace = obs.build_trace()
        finally:
            obs.set_tracing(False)
            obs.reset_recorder()

        (line,) = [
            l for l in read_access_log(path) if l["path"] == "/v1/solve"
        ]
        spans = self._flatten(trace["spans"])
        batch_ids = [
            s["attrs"]["request_ids"]
            for s in spans
            if s["name"] == "service.batch"
        ]
        assert batch_ids, "no service.batch span was recorded"
        joined = ",".join(batch_ids).split(",")
        assert line["request_id"] in joined

    @staticmethod
    def _flatten(spans):
        flat = []
        for span in spans:
            flat.append(span)
            flat.extend(TestLogTraceJoin._flatten(span.get("children", [])))
        return flat
