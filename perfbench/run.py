"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide-zoo --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``decide-zoo``     one closed-loop caller of ``execute_request`` (op
  ``decide``) over the 19 zoo tasks plus seeded random multi-facet tasks;
  each round is a cold pass on an empty store and a warm pass on it;
* ``corpus-census``  serial ``run_corpus`` (generator ``single``, 4 shards)
  over a seeded seed range, each round in a fresh corpus root and store;
* ``service-zipf``   ``python -m repro serve --port 0`` driven by two
  keep-alive connections in a closed loop: 95% zipf-weighted zoo names,
  5% never-seen inline tasks.

Every workload runs in fresh processes with its stores, corpus roots and
server working directory under a scratch directory that is removed
afterwards, so nothing is read from or written to the checkout's
``.repro/`` tree; the run fails if that tree changed.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is the result object; the
lines before it are diagnostics (host drift, tail percentile, per-pass
self times) that no gate reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: set-up samples per run: the measured run plus this many probes
SETUP_PROBES = {"decide-zoo": 4, "corpus-census": 4, "service-zipf": 2}

#: scratch root inside the checkout (listed in .gitignore)
WORK_ROOT = ".perfbench-work"

#: a worker that outlives this is killed and the run fails
WORKER_TIMEOUT_S = 150


def tree_digest(path: str) -> Optional[str]:
    """Digest of every file name and byte under ``path`` (``None`` if absent)."""
    if not os.path.isdir(path):
        return None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def spawn_worker(
    root: str, scratch: str, workload: str, seed: int, seconds: float, trace: int, probe: bool
) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh process and directory; returns its report."""
    workdir = tempfile.mkdtemp(prefix="probe-" if probe else "run-", dir=scratch)
    result = os.path.join(workdir, "result.json")
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_TOWER_CACHE=os.path.join(workdir, "default-store"),
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--result",
        result,
    ] + (["--probe"] if probe else [])
    before = stats.reference_boundary()
    spawned = time.monotonic()
    # a session of its own, so a timeout also takes down a server it started
    proc = subprocess.Popen(
        cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        _out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{err.decode(errors='replace')[-3000:]}")
    with open(result, encoding="utf-8") as fh:
        report = json.load(fh)
    raw_setup = report["first_op"] - spawned - report.get("gen_seconds", 0.0)
    report["raw_setup_s"] = raw_setup
    report["setup_s"] = raw_setup / stats.slowness(before + stats.reference_boundary())
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def measure(root: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up probes, the measured run, and the result object."""
    scratch_root = os.path.join(root, WORK_ROOT)
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES[args.workload]):
                probes.append(spawn_worker(root, scratch, args.workload, args.seed, args.seconds, 0, True))
        report = spawn_worker(
            root, scratch, args.workload, args.seed, args.seconds, args.trace, False
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    setups = [p["setup_s"] for p in probes + [report]]
    report["setup_samples_s"] = setups
    report.setdefault("raw", {})["setup_s"] = statistics.median(p["raw_setup_s"] for p in probes + [report])
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.trace:
        # a layer the workload never enters reads 0
        values = report.get("layers", {})
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared["per_layer"]}
    else:
        report["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    report["metrics"] = metrics
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    repro_tree = os.path.join(root, ".repro")
    before = tree_digest(repro_tree)
    drift_before = statistics.median(stats.reference_boundary())
    report = measure(root, args)
    drift_after = statistics.median(stats.reference_boundary())
    problems = list(report.get("problems", []))
    if tree_digest(repro_tree) != before:
        problems.append("the checkout's .repro/ tree changed during the run")
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reference_chunk_s": {"before": drift_before, "after": drift_after, "nominal": stats.REFERENCE_S},
        "error_share": failed / attempted,
        "setup_samples_s": report["setup_samples_s"],
        "problems": problems,
    }
    for key in (
        "raw",
        "slowness",
        "segment_rates",
        "rounds",
        "tail_percentile",
        "tail_beyond",
        "tail_samples",
        "tail_class",
        "misses_sent",
        "self_ms_by_pass",
    ):
        if key in report:
            diagnostics[key] = report[key]
    print(json.dumps(diagnostics, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
