"""End-to-end: the asyncio HTTP server, the client, CLI parity."""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.service import server as server_mod
from repro.service.client import ServiceClient, run_load
from repro.service.execution import ZOO, resolve_task
from repro.service.keys import canonical_dumps
from repro.service.protocol import parse_request, request_key, validate_response
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    ServerConfig,
    ServerThread,
)
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


# -- the HTTP front end, byte by byte ------------------------------------------


def _post(body: bytes, connection: str = "keep-alive") -> bytes:
    return (
        b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nConnection: " + connection.encode()
        + b"\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def _read_response(reader):
    """``(status, headers, body)`` of one response from a socket file."""
    status_line = reader.readline()
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _decide_body(task: str) -> bytes:
    return json.dumps({"op": "decide", "task": task}).encode()


def _key_of(body: bytes) -> str:
    req = parse_request(json.loads(body))
    return request_key(req, resolve_task(req.task))


@pytest.fixture()
def thread_server():
    """A fresh server whose misses run on a thread of this process."""
    with ServerThread(ServerConfig(pool="thread", shards=1)) as st:
        yield st


class TestHttpFrontEnd:
    def test_pipelined_hit_waits_for_the_miss_before_it(self, thread_server):
        hit, miss = _decide_body("fork"), _decide_body("majority")
        with socket.create_connection(("127.0.0.1", thread_server.port), timeout=60) as sock:
            reader = sock.makefile("rb")
            sock.sendall(_post(hit))
            assert json.loads(_read_response(reader)[2])["cached"] is False
            sock.sendall(_post(miss) + _post(hit))  # one write, two requests
            first, second = _read_response(reader), _read_response(reader)
        assert json.loads(first[2])["key"] == _key_of(miss)
        assert json.loads(first[2])["cached"] is False
        assert json.loads(second[2])["key"] == _key_of(hit)
        assert json.loads(second[2])["cached"] is True
        assert first[1]["connection"] == second[1]["connection"] == "keep-alive"

    def test_two_pipelined_hits_are_answered_in_order(self, thread_server):
        bodies = [_decide_body("fork"), _decide_body("hourglass")]
        with socket.create_connection(("127.0.0.1", thread_server.port), timeout=60) as sock:
            reader = sock.makefile("rb")
            for body in bodies:
                sock.sendall(_post(body))
                _read_response(reader)
            sock.sendall(_post(bodies[1]) + _post(bodies[0]))
            keys = [json.loads(_read_response(reader)[2])["key"] for _ in bodies]
        assert keys == [_key_of(bodies[1]), _key_of(bodies[0])]

    def test_hits_pipelined_past_the_write_high_water_mark(
        self, thread_server, monkeypatch
    ):
        """A client that sends before it reads fills the server's write
        buffer: the connection stops reading, then goes on in order."""
        paused = []
        pause = server_mod._Connection.pause_writing
        monkeypatch.setattr(
            server_mod._Connection,
            "pause_writing",
            lambda conn: (paused.append(1), pause(conn)),
        )
        request = _post(_decide_body("fork"))
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(60)
            sock.connect(("127.0.0.1", thread_server.port))
            reader = sock.makefile("rb")
            sock.sendall(request)
            # twice the most a loopback socket's send buffer grows to
            n = (8 << 20) // len(_read_response(reader)[2])
            sender = threading.Thread(target=sock.sendall, args=(request * n,))
            sender.start()
            time.sleep(0.5)
            replies = [_read_response(reader) for _ in range(n)]
            sender.join(60)
        assert paused and not sender.is_alive()
        assert all(json.loads(body)["cached"] for _, _, body in replies)

    def test_request_sent_one_byte_at_a_time(self, thread_server):
        with socket.create_connection(("127.0.0.1", thread_server.port), timeout=60) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            for _ in range(2):  # a miss, then a hit
                for byte in _post(_decide_body("fork")):
                    sock.send(bytes([byte]))
                    time.sleep(0.0005)
                status, _, body = _read_response(reader)
                assert status == 200 and json.loads(body)["ok"] is True
        assert json.loads(body)["cached"] is True

    def test_oversized_header_block_is_a_400_and_a_close(self, thread_server):
        head = b"POST /v1/solve HTTP/1.1\r\nX-Filler: "
        reply = _raw_exchange(
            thread_server.port, head + b"a" * (MAX_HEAD_BYTES + 1 - len(head))
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"exceeds 65536 bytes" in reply
        assert thread_server.server.stats()["errors"] == 1

    def test_body_longer_than_the_limit_is_a_400(self, thread_server):
        reply = _raw_exchange(
            thread_server.port,
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"is too large" in reply

    @pytest.mark.parametrize(
        "line", [b"GARBAGE", b"GET /healthz", b"GET /healthz HTTP/1.1 extra"]
    )
    def test_malformed_request_line_is_a_400(self, thread_server, line):
        request_line = line + b"\r\n"
        reply = _raw_exchange(thread_server.port, request_line + b"\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": f"malformed request line {request_line!r}"}

    def test_connection_close_is_honoured(self, thread_server):
        reply = _raw_exchange(
            thread_server.port, _post(_decide_body("fork"), connection="close")
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)["ok"] is True  # and the server closed after it

    def test_client_gone_mid_miss_still_caches_and_logs_nothing(
        self, thread_server, caplog
    ):
        body = _decide_body("majority")
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with socket.create_connection(("127.0.0.1", thread_server.port)) as sock:
                sock.sendall(_post(body))
            deadline = time.monotonic() + 60
            while thread_server.server.stats()["cache"]["entries"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with ServiceClient(thread_server.url) as client:
                again = client.solve(json.loads(body))
        assert again["cached"] is True and again["key"] == _key_of(body)
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


class TestCountsOncePerRequest:
    """Every solve request probes the cache once and counts one hit or
    miss, plus one keymap hit when its body bytes were seen before."""

    NAMES = ("service.cache.hit.memory", "service.cache.miss", "service.keymap.hit")

    def _counts(self, st):
        return [int(st.server.recorder.counters.get(name, 0)) for name in self.NAMES]

    def _delta(self, st, action):
        before = self._counts(st)
        action()
        return [b - a for a, b in zip(before, self._counts(st))]

    def test_hit_miss_and_uncached_failure(self, thread_server):
        with ServiceClient(thread_server.url) as client:
            def solve(payload):
                return lambda: client.solve(payload)

            fork = {"op": "decide", "task": "fork"}
            assert self._delta(thread_server, solve(fork)) == [0, 1, 0]
            assert self._delta(thread_server, solve(fork)) == [1, 0, 1]
            fails = {"op": "synthesize", "task": "consensus"}
            assert self._delta(thread_server, solve(fails)) == [0, 1, 0]
            # known bytes, nothing cached: the fast path hands the request
            # on without a second probe
            assert self._delta(thread_server, solve(fails)) == [0, 1, 1]

    def test_coalesced_duplicate(self, monkeypatch):
        release = threading.Event()

        def gated(payloads):
            release.wait(60)
            return server_mod.run_request_batch(payloads)

        monkeypatch.setattr(server_mod, "run_request_batch", gated)
        body = _decide_body("hourglass")
        replies = []

        def send():
            with socket.create_connection(("127.0.0.1", st.port), timeout=60) as sock:
                sock.sendall(_post(body))
                replies.append(json.loads(_read_response(sock.makefile("rb"))[2]))

        with ServerThread(ServerConfig(pool="thread", shards=1)) as st:
            before = self._counts(st)
            senders = [threading.Thread(target=send) for _ in range(2)]
            for sender in senders:
                sender.start()
            deadline = time.monotonic() + 60
            while st.server.recorder.counters.get("service.coalesced", 0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            release.set()
            for sender in senders:
                sender.join(60)
            delta = [b - a for a, b in zip(before, self._counts(st))]
        assert delta == [0, 2, 1]
        assert [r["cached"] for r in replies] == [False, False]
        assert replies[0] == replies[1]


class TestRawByteKeymap:
    def test_two_spellings_two_entries_one_key(self, thread_server):
        spellings = [
            b'{"op": "decide", "task": "pinwheel"}',
            b'{ "task":"pinwheel","op":"decide" }',
        ]
        with socket.create_connection(("127.0.0.1", thread_server.port), timeout=60) as sock:
            reader = sock.makefile("rb")
            replies = []
            for body in spellings:
                sock.sendall(_post(body))
                replies.append(json.loads(_read_response(reader)[2]))
        assert thread_server.server.stats()["keymap"]["entries"] == 2
        assert replies[0]["key"] == replies[1]["key"]
        assert [r["cached"] for r in replies] == [False, True]

    def test_zoo_hit_bodies_are_the_rendered_envelopes(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=120) as sock:
            reader = sock.makefile("rb")
            for name in sorted(ZOO):
                body = _decide_body(name)
                sock.sendall(_post(body) + _post(body))
                first, hit = _read_response(reader)[2], _read_response(reader)[2]
                expected = json.dumps(
                    dict(json.loads(first), cached=True), sort_keys=True
                ).encode()
                assert hit == expected, name


class TestShutdown:
    def test_sigint_after_a_closed_keep_alive_connection(self, tmp_path):
        """SIGINT right after a client closes: exit 0, nothing on stderr."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.path.abspath(src),
            REPRO_TOWER_CACHE=str(tmp_path / "store"),
        )
        for attempt in range(10):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                cwd=tmp_path,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            try:
                line = proc.stdout.readline().decode()
                port = int(line.split()[2].rsplit(":", 1)[1])
                with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert _read_response(sock.makefile("rb"))[0] == 200
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert (attempt, proc.returncode, err) == (attempt, 0, b"")
