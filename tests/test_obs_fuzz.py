"""Round-trip fuzz: random recorders must export schema-valid traces.

Drive the recorder with randomized span trees, counters, gauges (random
merge policies) and worker snapshots, then check that every
``build_trace`` payload (a) passes ``validate_trace`` and (b) survives a
JSON dump/load unchanged.  The validator recomputes
aggregates, so any drift between the recorder's merge logic and the
schema's would surface here as a seed-numbered failure.
"""

import json
import random

import pytest

from repro import obs
from repro.obs import GAUGE_POLICIES


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.set_tracing(False)
    obs.reset_recorder()
    yield
    obs.set_tracing(False)
    obs.reset_recorder()


NAMES = ["decide", "transform", "split", "search", "obstruction", "conform"]


def _random_spans(rng: random.Random, depth: int = 0) -> None:
    for _ in range(rng.randint(1, 3)):
        with obs.span(rng.choice(NAMES), seed=rng.randint(0, 99)):
            if rng.random() < 0.5:
                obs.counter_add(rng.choice(NAMES) + ".count", rng.randint(1, 9))
            if rng.random() < 0.3:
                obs.gauge_set(rng.choice(NAMES) + ".gauge", rng.uniform(0, 100))
            if depth < 3 and rng.random() < 0.6:
                _random_spans(rng, depth + 1)


def _random_recorder(rng: random.Random) -> None:
    # random explicit merge policies for a few gauge names
    for name in rng.sample(NAMES, rng.randint(0, 3)):
        obs.get_recorder().set_gauge_policy(
            name + ".gauge", rng.choice(sorted(GAUGE_POLICIES))
        )
    with obs.tracing():
        _random_spans(rng)
        for _ in range(rng.randint(0, 4)):
            obs.gauge_set(rng.choice(NAMES) + ".gauge", rng.uniform(0, 100))
    for _ in range(rng.randint(0, 2)):
        with obs.capture_worker() as capture:
            with obs.tracing():
                _random_spans(rng)
                if rng.random() < 0.5:
                    obs.gauge_set(rng.choice(NAMES) + ".gauge", rng.uniform(0, 100))
        obs.merge_worker_snapshot(capture.snapshot)


@pytest.mark.parametrize("seed", range(25))
def test_random_recorders_roundtrip(seed):
    rng = random.Random(seed)
    _random_recorder(rng)
    payload = obs.build_trace(meta={"command": f"fuzz-{seed}"})

    problems = obs.validate_trace(payload)
    assert problems == [], f"seed {seed}: {problems}"

    reloaded = json.loads(json.dumps(payload))
    assert reloaded == payload, f"seed {seed}: JSON round-trip changed the payload"
    assert obs.validate_trace(reloaded) == []


@pytest.mark.parametrize("seed", range(10))
def test_random_traces_export_profiles(seed):
    """The profiling exports must accept anything the recorder produces."""
    rng = random.Random(1000 + seed)
    _random_recorder(rng)
    payload = obs.build_trace()
    for line in obs.folded_stacks(payload):
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) >= 0
    trace = obs.chrome_trace(payload)
    assert all(e["dur"] >= 0 for e in trace["traceEvents"] if e["ph"] == "X")
