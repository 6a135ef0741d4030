"""One workload in one fresh process; writes a JSON result file.

Started by ``run.py``::

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --result FILE [--probe]

The current directory must be an empty scratch directory: every store,
corpus root and server working directory of the run is created under it.
``--probe`` performs only the set-up (imports, server boot, warm-fill) and
records when the first timed op would start.

Set-up timestamps are ``time.monotonic()``, one clock for every process
on the host, so the parent can subtract its own spawn time.  Timed work is
split into rounds (batch workloads) or segments (the service) with the
host-speed reference chunk timed at every boundary; see :mod:`stats`.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import tracing  # noqa: E402

#: random multi-facet tasks added to the 19 zoo tasks in decide-zoo; their
#: cost varies with the seed, so few keep the zoo the bulk of each round
DECIDE_RANDOM_TASKS = 4
#: seeds and shards of one corpus-census round
CORPUS_SEEDS = 1000
CORPUS_SHARDS = 4
#: corpus seeds between two timings of the host-speed reference chunk
CHUNK_EVERY = 20
#: service-zipf traffic: one never-seen inline task in every MISS_EVERY
#: requests (evenly spaced, so every segment carries the same share), zipf
#: exponent, keep-alive connections, and the length of a load segment
#: between two host-speed boundaries
MISS_EVERY = 20
ZIPF_S = 1.1
CONNECTIONS = 2
SEGMENT_S = 2.0
#: requests sent per measured second: a run sends a fixed count, which takes
#: about --seconds at the nominal host speed, so every run caches the same
#: never-seen tasks and the server's peak memory does not follow host speed
SERVICE_RATE = 1400
#: a run that takes this many times --seconds stops early
SERVICE_OVERRUN = 3


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def verdict_key(verdict: Dict[str, Any]) -> Tuple[Any, ...]:
    """(status, obstruction kind, witness rounds, split count) of a verdict."""
    cert = verdict.get("certificate", {})
    return (
        verdict.get("status"),
        cert.get("obstruction"),
        cert.get("rounds"),
        verdict.get("splits"),
    )


def run_rounds(
    seconds: float, trace: bool, one_round: Callable[[int, Optional[tracing.Tracer]], Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Whole rounds until ``seconds`` of round time have passed.

    The reference chunk is timed at every boundary, and each round gets
    the host slowness of the chunks around and inside it.  In a traced run rounds
    alternate untraced/traced, so both sides see the same host drift;
    wrappers are installed only around traced rounds.
    """
    rounds: List[Dict[str, Any]] = []
    boundary = stats.reference_boundary()
    spent = 0.0
    for index in itertools.count():
        kinds = {r["traced"] for r in rounds}
        if spent >= seconds and (not trace or kinds == {True, False}):
            break
        traced = trace and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        patches = tracing.install(tracer) if tracer is not None else None
        try:
            result = one_round(index, tracer)
        finally:
            if patches is not None:
                patches.restore()
        after = stats.reference_boundary()
        chunks = boundary + result.pop("chunks", []) + after
        result.update(traced=traced, tracer=tracer, slow=stats.slowness(chunks))
        boundary = after
        spent += result["wall"]
        rounds.append(result)
    return rounds


def batch_result(
    rounds: List[Dict[str, Any]], p50_samples: List[float], tail_samples: List[float]
) -> Dict[str, Any]:
    """End-to-end and per-layer numbers shared by the two batch workloads.

    The latency samples are already normalised; round walls are normalised
    here.
    """
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    out: Dict[str, Any] = {
        "rounds": len(rounds),
        "raw": {
            "throughput_per_s": sum(r["ops"] for r in plain) / sum(r["wall"] for r in plain),
            "round_wall_s": [r["wall"] for r in plain],
        },
        "slowness": [r["slow"] for r in rounds],
        "throughput_per_s": sum(r["ops"] for r in plain) / sum(r["wall"] / r["slow"] for r in plain),
        "latency_p50_ms": statistics.median(p50_samples),
    }
    pct, value, beyond = stats.tail(tail_samples)
    out.update(latency_tail_ms=value, tail_percentile=pct, tail_beyond=beyond, tail_samples=len(tail_samples))
    if traced:
        layers: Dict[str, float] = {}
        for r in traced:
            for name, value in tracing.layer_metrics(r["tracer"], r["wall"]).items():
                layers[name] = layers.get(name, 0.0) + value / len(traced)
        plain_wall = statistics.median([r["wall"] / r["slow"] for r in plain])
        layers["tracing_overhead"] = statistics.median([r["wall"] / r["slow"] for r in traced]) / plain_wall - 1.0
        out["layers"] = layers
    return out


# ---------------------------------------------------------------------------
# decide-zoo
# ---------------------------------------------------------------------------


def decide_zoo(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    from repro.io import task_to_json
    from repro.service.execution import ZOO, execute_request
    from repro.service.protocol import ServiceRequest
    from repro.tasks.zoo.random_tasks import random_multi_facet_task
    from repro.topology import diskstore

    if args.probe:
        report["first_op"] = time.monotonic()
        return
    t0 = time.monotonic()
    rng = random.Random(args.seed)
    specs: List[Any] = sorted(ZOO) + [
        task_to_json(random_multi_facet_task(s))
        for s in rng.sample(range(1_000_000), DECIDE_RANDOM_TASKS)
    ]
    report["gen_seconds"] = time.monotonic() - t0
    seen: Counter = Counter()

    def one_round(index: int, tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
        store = os.path.abspath(f"store-{index}")
        latencies = []
        chunks = []
        with diskstore.store_at(store):
            for pass_name in ("cold", "warm"):
                for i, spec in enumerate(specs):
                    chunks.append(stats.reference_chunk())
                    t = time.perf_counter()
                    span = tracer.open(tracing.ROOT, **{"pass": pass_name}) if tracer else None
                    response = execute_request(ServiceRequest(op="decide", task=spec)).response
                    if span is not None:
                        tracer.close(span)
                    latencies.append(1000.0 * (time.perf_counter() - t))
                    ok = response.get("ok") is True
                    seen[(i, ok, verdict_key(response.get("verdict", {})))] += 1
        shutil.rmtree(store, ignore_errors=True)
        wall = sum(latencies) / 1000.0
        return {"wall": wall, "ops": 2 * len(specs), "latencies": latencies, "chunks": chunks}

    report["first_op"] = time.monotonic()
    rounds = run_rounds(args.seconds, args.trace, one_round)
    report["peak_rss_mb"] = peak_rss_mb()
    latencies = [ms / r["slow"] for r in rounds if not r["traced"] for ms in r["latencies"]]
    # decides of different tasks differ by 100x, so the median single
    # decide falls between task classes; the p50 is the round's mean decide
    means = [1000.0 * r["wall"] / r["slow"] / r["ops"] for r in rounds if not r["traced"]]
    report.update(batch_result(rounds, means, latencies))
    if args.trace:
        by_pass: Dict[str, Dict[str, float]] = {}
        traced = [r for r in rounds if r["traced"]]
        for r in traced:
            for pass_name, selfs in tracing.self_times_by(r["tracer"], "pass").items():
                row = by_pass.setdefault(pass_name, {})
                for name, secs in selfs.items():
                    row[name] = row.get(name, 0.0) + 1000.0 * secs / len(traced)
        report["self_ms_by_pass"] = by_pass

    # correctness gate, outside the timed phase: every op against a
    # reference decide made with the store off
    with diskstore.store_disabled():
        reference = [
            verdict_key(execute_request(ServiceRequest(op="decide", task=spec)).response["verdict"])
            for spec in specs
        ]
    problems = []
    majority = reference[specs.index("majority")]
    if majority != ("unsolvable", "corollary-5.5", None, 42):
        problems.append(f"majority decided as {majority}, expected corollary-5.5 with 42 splits")
    failed = 0
    for (i, ok, key), count in seen.items():
        if not ok or key != reference[i]:
            failed += count
            name = specs[i] if isinstance(specs[i], str) else f"random task {i}"
            problems.append(f"{name}: {key} != reference {reference[i]}")
    report.update(attempted=sum(seen.values()), failed=failed, problems=problems)


# ---------------------------------------------------------------------------
# corpus-census
# ---------------------------------------------------------------------------


def corpus_census(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    from repro.analysis.corpus import GENERATORS, CorpusConfig, run_corpus
    from repro.service.protocol import verdict_to_json
    from repro.solvability import decide_solvability
    from repro.topology import diskstore

    if args.probe:
        report["first_op"] = time.monotonic()
        return
    base = random.Random(args.seed).randrange(1_000_000) * 100

    def config_for(index: int) -> CorpusConfig:
        # each round a fresh seed range, so a run averages over many tasks
        start = base + index * CORPUS_SEEDS
        return CorpusConfig(
            start, start + CORPUS_SEEDS, shards=CORPUS_SHARDS, generator="single", max_rounds=1
        )

    # the verdict fields sit between canon_hash and dedup, as the gate unpacks them
    fields = ("seed", "canon_hash", "status", "certificate", "witness_rounds", "n_splits", "dedup")
    outputs: List[List[Tuple[Any, ...]]] = []

    def one_round(index: int, tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
        root = os.path.abspath(f"corpus-{index}")
        store = os.path.abspath(f"store-{index}")
        generator = GENERATORS["single"]
        calls: List[Tuple[float, float]] = []  # (call start, reference time before it)

        def paced(seed: int) -> Any:
            # time every seed from the outside and sample the host speed
            # every CHUNK_EVERY seeds; the chunk is taken out of the timings
            chunk = 0.0
            if len(calls) % CHUNK_EVERY == 0:
                span = tracer.open(tracing.REFERENCE) if tracer else None
                chunk = stats.reference_chunk()
                if span is not None:
                    tracer.close(span)
            calls.append((time.perf_counter(), chunk))
            return generator(seed)

        patches = tracing.Patches()
        patches.set_item(GENERATORS, "single", paced)
        try:
            start = time.perf_counter()
            with diskstore.store_at(store):
                span = tracer.open(tracing.ROOT) if tracer else None
                result = run_corpus(config_for(index), root, workers=1)
                if span is not None:
                    tracer.close(span)
            end = time.perf_counter()
        finally:
            patches.restore()
        outputs.append([tuple(r[f] for f in fields) for r in result.records])
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(store, ignore_errors=True)
        chunks = [c for _t, c in calls if c]
        seeds = [
            1000.0 * (t1 - c1 - t0)
            for (t0, _c0), (t1, c1) in zip(calls, calls[1:])
        ]
        return {"wall": end - start - sum(chunks), "ops": CORPUS_SEEDS, "latencies": seeds, "chunks": chunks}

    report["first_op"] = time.monotonic()
    rounds = run_rounds(args.seconds, args.trace, one_round)
    report["peak_rss_mb"] = peak_rss_mb()
    latencies = [ms / r["slow"] for r in rounds if not r["traced"] for ms in r["latencies"]]
    report.update(batch_result(rounds, latencies, latencies))
    records = [r for out in outputs for r in out]
    if args.trace:
        report["layers"]["analysis.dedup_share"] = sum(r[-1] for r in records) / len(records)

    # correctness gate: every representative re-decided with the store
    # off, and every dedup record carries its representative's verdict
    generator = GENERATORS["single"]
    verdict_of: Dict[str, Tuple[Any, ...]] = {}
    wrong = []
    with diskstore.store_disabled():
        for seed, canon, *verdict, dedup in records:
            if dedup:
                continue
            v = verdict_to_json(decide_solvability(generator(seed), max_rounds=1))
            cert = v["certificate"]
            expected = (
                v["status"],
                cert.get("obstruction") or ("witness-map" if v["status"] == "solvable" else "unknown"),
                cert.get("rounds"),
                v["splits"],
            )
            verdict_of.setdefault(canon, expected)
            if tuple(verdict) != expected:
                wrong.append(seed)
    wrong += [
        seed
        for seed, canon, *verdict, dedup in records
        if dedup and verdict_of.get(canon) != tuple(verdict)
    ]
    problems = [f"seed {seed}: record disagrees with the reference" for seed in wrong[:20]]
    report.update(attempted=len(records), failed=len(wrong), problems=problems)


# ---------------------------------------------------------------------------
# service-zipf
# ---------------------------------------------------------------------------


class Server:
    """``python -m repro serve --port 0`` in a fresh directory and store."""

    def __init__(self, workdir: str, access_log: bool) -> None:
        os.makedirs(workdir)
        self.access_log = os.path.join(workdir, "access.jsonl") if access_log else None
        env = dict(os.environ, REPRO_TOWER_CACHE=os.path.join(workdir, "store"))
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.access_log:
            cmd += ["--access-log", self.access_log]
        self._stderr = open(os.path.join(workdir, "server.err"), "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class Connection:
    """One keep-alive HTTP connection with Nagle off."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def boot_and_fill(workdir: str, access_log: bool, zoo_bodies: List[bytes]) -> Server:
    """Start a server and decide every zoo task once through it."""
    server = Server(workdir, access_log)
    try:
        conn = Connection(server.port)
        for body in zoo_bodies:
            status, raw = conn.call("POST", "/v1/solve", body)
            if status != 200 or not json.loads(raw).get("ok"):
                raise RuntimeError(f"warm-fill failed: {status} {raw[:200]!r}")
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server


#: one completed request: (completion time, latency s, body index, HTTP status, raw body)
Record = Tuple[float, float, int, int, bytes]


def drive(port: int, bodies: List[bytes], sequence: List[int], limit_s: float) -> Dict[str, Any]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections, in segments,
    until ``sequence`` is sent or ``limit_s`` have passed.

    Between segments the clients pause while the reference chunk is timed;
    a segment's slowness divides the latencies measured in it and
    multiplies its request rate.
    """
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    cursor = itertools.count()
    errors: List[BaseException] = []
    segments: List[Dict[str, Any]] = []
    boundary = stats.reference_boundary()
    spent = 0.0
    try:
        while spent < limit_s:
            start = time.perf_counter()
            deadline = start + SEGMENT_S
            records: List[List[Record]] = [[] for _ in conns]

            def client(conn: Connection, out: List[Record]) -> None:
                try:
                    while time.perf_counter() < deadline:
                        i = next(cursor)
                        if i >= len(sequence):
                            break
                        t = time.perf_counter()
                        status, raw = conn.call("POST", "/v1/solve", bodies[sequence[i]])
                        done = time.perf_counter()
                        out.append((done, done - t, sequence[i], status, raw))
                except (OSError, http.client.HTTPException) as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=pair) for pair in zip(conns, records)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            flat = sorted(r for out in records for r in out)
            if not flat:
                break
            wall = flat[-1][0] - start
            after = stats.reference_boundary()
            segments.append({"records": flat, "wall": wall, "slow": stats.slowness(boundary + after)})
            boundary = after
            spent += wall
            if errors:
                break
    finally:
        for conn in conns:
            conn.close()
    return {"segments": segments, "errors": errors}


def rate(segments: List[Dict[str, Any]]) -> float:
    """Requests per normalised second over a run's segments."""
    return sum(len(s["records"]) for s in segments) / sum(s["wall"] / s["slow"] for s in segments)


def service_zipf(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    from repro.io import task_to_json
    from repro.service.execution import ZOO, execute_request
    from repro.service.protocol import parse_request
    from repro.tasks.zoo.random_tasks import random_single_input_task
    from repro.topology import diskstore

    zoo = sorted(ZOO)
    zoo_bodies = [json.dumps({"op": "decide", "task": name}).encode() for name in zoo]
    if args.probe:
        server = boot_and_fill(os.path.abspath("probe"), False, zoo_bodies)
        report["first_op"] = time.monotonic()
        server.stop()
        return

    t0 = time.monotonic()
    rng = random.Random(args.seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(zoo))]
    order = list(range(len(zoo)))
    rng.shuffle(order)
    bodies = list(zoo_bodies)
    sequence: List[int] = []
    sent = set()
    miss_seed = itertools.count(rng.randrange(1_000_000) * 100)
    offset = rng.randrange(MISS_EVERY)
    for i in range(int(SERVICE_RATE * args.seconds)):
        if i % MISS_EVERY != offset:
            sequence.append(order[rng.choices(range(len(zoo)), weights)[0]])
            continue
        body = None
        while body is None or body in sent:
            task = task_to_json(random_single_input_task(next(miss_seed)))
            body = json.dumps({"op": "decide", "task": task}, sort_keys=True).encode()
        sent.add(body)
        sequence.append(len(bodies))
        bodies.append(body)
    report["gen_seconds"] = time.monotonic() - t0

    phases = [("plain", False, sequence)]
    if args.trace:
        half = sequence[: len(sequence) // 2]
        phases = [("plain", False, half), ("traced", True, half)]
    runs: Dict[str, Dict[str, Any]] = {}
    for name, access_log, requests in phases:
        server = boot_and_fill(os.path.abspath(f"server-{name}"), access_log, zoo_bodies)
        try:
            report.setdefault("first_op", time.monotonic())
            cpu0 = cpu_seconds(server.proc.pid)
            run = drive(server.port, bodies, requests, SERVICE_OVERRUN * args.seconds)
            run["cpu_s"] = cpu_seconds(server.proc.pid) - cpu0
            conn = Connection(server.port)
            run["stats"] = json.loads(conn.call("GET", "/v1/stats")[1])
            conn.close()
            run["peak_rss_mb"] = peak_rss_mb(str(server.proc.pid))
        finally:
            server.stop()
        run["access_log"] = server.access_log
        run["records"] = [r for seg in run["segments"] for r in seg["records"]]
        runs[name] = run

    # correctness gate: every distinct payload's verdict against in-process
    # execute_request with the store off
    reference: Dict[int, Dict[str, Any]] = {}
    with diskstore.store_disabled():
        for index in sorted({r[2] for run in runs.values() for r in run["records"]}):
            reference[index] = execute_request(parse_request(json.loads(bodies[index]))).response
    failed = 0
    problems: List[str] = []
    for run in runs.values():
        run["cached"] = []
        for _done, _lat, index, status, raw in run["records"]:
            response = json.loads(raw) if status == 200 else {}
            run["cached"].append(bool(response.get("cached")))
            ref = reference[index]
            if status != 200 or response.get("key") != ref["key"] or response.get("verdict") != ref["verdict"]:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"payload {index}: HTTP {status}, verdict differs from in-process")
        failed += len(run["errors"])
        problems += [f"client error: {exc!r}" for exc in run["errors"]]
    attempted = sum(len(run["records"]) + len(run["errors"]) for run in runs.values())
    report.update(attempted=attempted, failed=failed, problems=problems)

    plain = runs["plain"]
    segments = plain["segments"]
    lat = [1000.0 * r[1] / seg["slow"] for seg in segments for r in seg["records"]]
    labels = ["hit" if c else "miss" for c in plain["cached"]]
    pct, value, beyond = stats.tail(lat)
    report.update(
        throughput_per_s=rate(segments),
        latency_p50_ms=statistics.median(lat),
        latency_tail_ms=value,
        tail_percentile=pct,
        tail_beyond=beyond,
        tail_samples=len(lat),
        tail_class=stats.tail_class(lat, labels),
        peak_rss_mb=plain["peak_rss_mb"],
        misses_sent=labels.count("miss"),
        slowness=[s["slow"] for s in segments],
        segment_rates=[len(s["records"]) / s["wall"] for s in segments],
        raw={
            "throughput_per_s": len(plain["records"]) / sum(s["wall"] for s in segments),
            "latency_p50_ms": 1000.0 * statistics.median([r[1] for r in plain["records"]]),
        },
    )
    if args.trace:
        report["layers"] = service_layers(runs["plain"], runs["traced"])


def service_layers(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer service numbers from the traced server's access log."""
    from repro.service.accesslog import read_access_log

    solves = [line for line in read_access_log(traced["access_log"]) if line["op"] == "decide"]
    # the warm-fill's zoo decides precede the timed phase in the log
    solves = solves[len(solves) - len(traced["records"]):]
    hits = [line for line in solves if line["cache_tier"] is not None]
    misses = [line for line in solves if line["cache_tier"] is None]
    client_hits = [1000.0 * r[1] for r, c in zip(traced["records"], traced["cached"]) if c]
    server_hit = statistics.median([line["latency_ms"] for line in hits]) if hits else 0.0
    cache = traced["stats"]["cache"]
    lookups = cache["hits_memory"] + cache["hits_disk"] + cache["misses"]
    client_total = sum(r[1] for r in traced["records"])
    server_total = sum(line["latency_ms"] for line in solves) / 1000.0

    return {
        "service.cache_hit_share": (cache["hits_memory"] + cache["hits_disk"]) / lookups if lookups else 0.0,
        "service.keymap_entries": float(traced["stats"]["keymap"]["entries"]),
        "service.server_hit_ms": server_hit,
        "service.transport_ms": (statistics.median(client_hits) - server_hit) if client_hits else 0.0,
        "service.miss_ms": statistics.median([line["latency_ms"] for line in misses]) if misses else 0.0,
        "service.queue_wait_ms": (
            statistics.median([line["queue_wait_ms"] for line in misses]) if misses else 0.0
        ),
        "service.batch_size_mean": (
            sum(line["batch_size"] for line in misses) / len(misses) if misses else 0.0
        ),
        "service.coalesced_share": (
            sum(1 for line in misses if line["coalesced"]) / len(misses) if misses else 0.0
        ),
        "service.server_cpu_ms_per_req": 1000.0 * traced["cpu_s"] / max(len(traced["records"]), 1),
        "unattributed_share": max(client_total - server_total, 0.0) / client_total if client_total else 0.0,
        "tracing_overhead": rate(plain["segments"]) / rate(traced["segments"]) - 1.0,
    }


WORKLOADS = {
    "decide-zoo": decide_zoo,
    "corpus-census": corpus_census,
    "service-zipf": service_zipf,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    report: Dict[str, Any] = {"workload": args.workload}
    WORKLOADS[args.workload](args, report)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
