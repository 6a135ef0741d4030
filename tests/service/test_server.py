"""End-to-end: the asyncio HTTP server, the client, CLI parity."""

from __future__ import annotations

import json
import socket

import pytest

from repro import obs
from repro.service.client import ServiceClient, run_load
from repro.service.keys import canonical_dumps
from repro.service.protocol import validate_response
from repro.service.server import ServerConfig, ServerThread
from repro.topology import diskstore


@pytest.fixture(scope="module")
def server():
    """One shared in-process server (default config: a process pool)."""
    with ServerThread(ServerConfig()) as st:
        yield st


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as c:
        yield c


class TestRoutes:
    def test_healthz(self, client):
        assert client.health() is True

    def test_unknown_route_is_404(self, client):
        status, payload = client._request("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_is_405(self, client):
        status, _ = client._request("GET", "/v1/solve")
        assert status == 405

    def test_non_json_body_is_400(self, client):
        client._conn.request(
            "POST", "/v1/solve", body=b"{not json", headers={}
        )
        response = client._conn.getresponse()
        assert response.status == 400
        response.read()

    def test_protocol_error_is_400(self, client):
        status, payload = client._request(
            "POST", "/v1/solve", {"op": "meditate", "task": "consensus"}
        )
        assert status == 400
        assert "op" in payload["error"]

    def test_unknown_task_is_400(self, client):
        status, payload = client._request(
            "POST", "/v1/solve", {"op": "decide", "task": "not-a-task"}
        )
        assert status == 400
        assert "unknown task" in payload["error"]

    def test_stats_shape(self, client):
        client.health()  # a response is counted once it is sent
        stats = client.stats()
        assert stats["requests"] >= 1
        assert "cache" in stats and "batch" in stats


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes on a fresh connection; read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedRequests:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_a_counted_400(self, length):
        with ServerThread(ServerConfig()) as st:
            reply = _raw_exchange(
                st.port,
                b"POST /v1/solve HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n{}",
            )
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Content-Length" in reply.partition(b"\r\n\r\n")[2]
            stats = st.server.stats()
        assert stats["requests"] == 1
        assert stats["errors"] == 1

    def test_unknown_paths_share_one_latency_series(self, server, client):
        def series():
            return {
                h["labels"]["op"]
                for h in server.server.metrics_snapshot()["histograms"]
                if h["name"] == "request_latency_seconds"
            }

        before = series()
        for i in range(20):
            status, _ = client._request("GET", f"/no/such/path/{i}")
            assert status == 404
        after = series()
        assert len(after - before) <= 1
        assert "not_found" in after


class TestOneRegistry:
    def test_stats_and_metrics_read_the_same_counters(self, tmp_path):
        """/v1/stats and /metrics are two views of one recorder."""
        from repro.topology import diskstore

        with diskstore.store_at(str(tmp_path / "store")):
            with ServerThread(ServerConfig(pool="inline", shards=1)) as st:
                with ServiceClient(st.url) as client:
                    for task in ("consensus", "hourglass", "consensus"):
                        assert client.decide(task)["ok"] is True
                    client.decide("hourglass")
                    client._conn.request("POST", "/v1/solve", body=b"{nope")
                    client._conn.getresponse().read()
                    assert client._request("GET", "/nowhere")[0] == 404
                assert _raw_exchange(st.port, b"GARBAGE\r\n\r\n").startswith(
                    b"HTTP/1.1 400 "
                )
                stats = st.server.stats()
                snapshot = st.server.metrics_snapshot()

        responses = {
            int(c["labels"]["status"]): c["value"]
            for c in snapshot["counters"]
            if c["name"] == "http_responses"
        }
        assert stats["requests"] == sum(responses.values()) == 7
        assert stats["errors"] == sum(
            n for status, n in responses.items() if status >= 400
        ) == 3
        tiers = {
            h["labels"]["tier"]: h["count"]
            for h in snapshot["histograms"]
            if h["name"] == "tier_latency_seconds"
        }
        cache = stats["cache"]
        assert cache["hits_memory"] == tiers.get("memory", 0) == 2
        assert cache["hits_disk"] == tiers.get("disk", 0)
        assert cache["misses"] == tiers.get("miss", 0) == 2


class TestSolve:
    def test_decide_envelope_validates(self, client):
        response = client.decide("consensus")
        assert validate_response(response) == []
        assert response["verdict"]["status"] == "unsolvable"

    def test_second_request_is_served_from_cache(self, client):
        payload = {"op": "decide", "task": "2-set-agreement"}
        first = client.solve(payload)
        second = client.solve(payload)
        assert second["cached"] is True
        # identical modulo the cached flag
        assert dict(second, cached=False) == dict(first, cached=False)

    def test_spellings_converge_on_one_key(self, client):
        from repro.io import task_to_json
        from repro.service.execution import resolve_task

        by_name = client.decide("hourglass")
        by_json = client.decide(task_to_json(resolve_task("hourglass")))
        assert by_json["key"] == by_name["key"]
        assert by_json["cached"] is True
        assert by_json["verdict"] == by_name["verdict"]

    def test_keymap_miss_builds_the_canonical_body_once(self, client, monkeypatch):
        from repro.service import protocol, server as server_mod
        from repro.service.execution import resolve_task

        calls = []

        def counted(req, task):
            calls.append(req.op)
            return protocol.canonical_body(req, task)

        monkeypatch.setattr(server_mod, "canonical_body", counted)
        payload = {"op": "decide", "task": "pinwheel", "params": {"max_rounds": 1}}
        response = client.solve(payload)
        assert calls == ["decide"]
        req = protocol.parse_request(payload)
        assert response["key"] == protocol.request_key(req, resolve_task(req.task))
        client.solve(payload)  # a keymap hit builds nothing
        assert calls == ["decide"]

    def test_expected_failure_is_an_ok_false_envelope_not_a_500(self, client):
        response = client.solve({"op": "synthesize", "task": "consensus"})
        assert response["ok"] is False
        assert response["error"]["kind"] == "synthesis-error"
        assert validate_response(response) == []

    def test_concurrent_duplicate_load(self, server):
        stream = [{"op": "decide", "task": "twisted-fan"}] * 20
        result = run_load(server.url, stream, concurrency=4)
        assert result.n_requests == 20
        assert result.error_count == 0
        # everything after the first computation is a hit or coalesced
        assert result.hit_rate >= 0.5

    def test_load_counts_a_request_without_an_envelope_and_goes_on(self, server):
        good = {"op": "decide", "task": "fork"}
        stream = [good, {"op": "decide", "task": "not-a-task"}, good]
        result = run_load(server.url, stream, concurrency=1)
        assert (result.n_requests, result.ok_count, result.error_count) == (2, 2, 1)

    def test_load_against_a_closed_port_is_all_errors(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        result = run_load(f"http://127.0.0.1:{port}", [{"task": "fork"}] * 5, concurrency=2)
        assert (result.n_requests, result.ok_count, result.error_count) == (0, 0, 5)


class TestRestart:
    def test_restart_redecides_from_the_decide_stores(self, tmp_path):
        """A restarted server has an empty response cache, but its decide
        loads the transform the first server's decide stored."""
        store = tmp_path / "store"
        # a thread pool: the store hit is counted on the worker side
        config = ServerConfig(pool="thread")
        with diskstore.store_at(str(store)):
            with ServerThread(config) as st, ServiceClient(st.url) as client:
                first = client.decide("majority")
            with obs.tracing() as rec:
                with ServerThread(config) as st, ServiceClient(st.url) as client:
                    second = client.decide("majority")
        assert first["cached"] is False and second["cached"] is False
        assert second["verdict"] == first["verdict"]
        assert rec.counters.get("diskstore.transform.hit", 0) == 1
        assert not (store / "service").exists()


class TestCliParity:
    def test_cli_and_service_verdicts_are_bit_identical(
        self, server, tmp_path, capsys
    ):
        from repro.__main__ import main

        out = tmp_path / "verdict.json"
        assert main(["decide", "consensus", "--json", str(out)]) == 0
        capsys.readouterr()
        cli_verdict = json.loads(out.read_text())

        with ServiceClient(server.url) as client:
            served = client.decide("consensus")["verdict"]
        assert canonical_dumps(cli_verdict) == canonical_dumps(served)


class TestServerThread:
    def test_port_is_unavailable_before_start(self):
        st = ServerThread(ServerConfig())
        with pytest.raises(RuntimeError):
            st.port

    def test_inline_pool_serves_requests(self):
        config = ServerConfig(pool="inline", shards=1)
        with ServerThread(config) as st:
            with ServiceClient(st.url) as client:
                response = client.decide("fork")
                assert response["ok"] is True
