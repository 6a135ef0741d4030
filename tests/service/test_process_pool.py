"""The process pool, the server's default: parity, fork order, shutdown.

Decides run in fork-started worker processes.  A response must not
depend on which process computed it; the workers must be forked before
the server starts a thread of its own; and no worker may outlive a
server that is killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import urllib.request

import pytest

from repro.io import task_to_json
from repro.service.client import ServiceClient
from repro.service.execution import ZOO, execute_request
from repro.service.protocol import ServiceRequest
from repro.service.server import ServerConfig, ServerThread
from repro.tasks.zoo.random_tasks import random_single_input_task
from repro.topology import diskstore

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _env(tmp_path) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=os.path.abspath(SRC),
        REPRO_TOWER_CACHE=str(tmp_path / "store"),
    )


def test_default_pool_is_process():
    assert ServerConfig().pool == "process"


def test_process_pool_responses_match_in_process_execution(tmp_path):
    specs = sorted(ZOO) + [
        task_to_json(random_single_input_task(seed)) for seed in (1, 2, 3)
    ]
    with diskstore.store_at(str(tmp_path / "store")):
        # the worker decides cold; the in-process decides then read its stores
        with ServerThread(ServerConfig(pool="process")) as st:
            with ServiceClient(st.url) as client:
                served = [client.decide(spec) for spec in specs]
        expected = [
            execute_request(ServiceRequest(op="decide", task=spec)).response
            for spec in specs
        ]
    for spec, want, got in zip(specs, expected, served):
        name = spec if isinstance(spec, str) else "random task"
        assert got["cached"] is False, name
        assert (got["key"], got["verdict"]) == (want["key"], want["verdict"]), name


def test_workers_fork_before_the_server_starts_a_thread(tmp_path):
    script = textwrap.dedent(
        """
        import asyncio, json, os, threading
        from repro.service.server import ServerConfig, SolvabilityServer

        at_fork = []
        os.register_at_fork(
            before=lambda: at_fork.append(sorted(t.name for t in threading.enumerate()))
        )

        async def main():
            server = SolvabilityServer(ServerConfig(port=0, workers=2))
            await server.start()
            await server.stop()

        asyncio.run(main())
        print(json.dumps(at_fork))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [["MainThread"], ["MainThread"]]


def _session_pids(sid: int) -> list:
    """Live (non-zombie) processes in session ``sid``."""
    out = subprocess.run(
        ["ps", "-o", "pid=,stat=", "-s", str(sid)], capture_output=True, text=True
    ).stdout
    return [
        int(pid) for pid, stat in (line.split() for line in out.splitlines())
        if not stat.startswith("Z")
    ]


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["kill", "term"])
def test_no_worker_outlives_a_killed_server(tmp_path, sig):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        cwd=tmp_path,
        env=_env(tmp_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline().decode()
        assert "pool=process" in line, line
        url = line.split()[2]
        request = urllib.request.Request(
            url + "/v1/solve",
            data=json.dumps({"op": "decide", "task": "consensus"}).encode(),
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            assert json.load(reply)["ok"] is True
        assert len(_session_pids(proc.pid)) == 3  # the server and 2 workers
        proc.send_signal(sig)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_pids(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
