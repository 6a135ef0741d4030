"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import obs
from repro.tasks.zoo import (
    consensus_task,
    figure3_task,
    hourglass_task,
    identity_task,
    majority_consensus_task,
    pinwheel_task,
)
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex, chrom


@pytest.fixture(autouse=True)
def _isolated_tower_store(tmp_path, monkeypatch):
    """Point $REPRO_TOWER_CACHE at a per-test directory.

    The persistent subdivision-tower/transform store resolves to
    ``.repro/towers`` by default; without this, any test that decides a
    task would seed cross-test (and cross-run) warm state in the repo
    checkout, making timings and counter assertions order-dependent.
    """
    monkeypatch.setenv("REPRO_TOWER_CACHE", str(tmp_path / "towers"))


@pytest.fixture(autouse=True)
def _isolated_recorder():
    """Give each test a fresh process-global recorder.

    ``obs.tracing()`` records into the process recorder; without this a
    test asserting an absolute counter (``diskstore.transform.hit == 1``)
    would see what earlier traced tests left there.
    """
    obs.reset_recorder()


@pytest.fixture
def triangle() -> Simplex:
    """A chromatic 2-simplex with three distinct colors."""
    return chrom((0, "a"), (1, "b"), (2, "c"))


@pytest.fixture
def triangle_complex(triangle) -> ChromaticComplex:
    return ChromaticComplex([triangle], name="T")


@pytest.fixture
def circle() -> SimplicialComplex:
    """A hollow triangle (homotopy circle)."""
    return SimplicialComplex([("a", "b"), ("b", "c"), ("c", "a")], name="S1")


@pytest.fixture
def disk() -> SimplicialComplex:
    """A filled triangle (contractible)."""
    return SimplicialComplex([("a", "b", "c")], name="D2")


@pytest.fixture
def two_triangles() -> SimplicialComplex:
    """Two triangles glued along an edge."""
    return SimplicialComplex([("a", "b", "c"), ("b", "c", "d")])


@pytest.fixture
def bowtie() -> SimplicialComplex:
    """Two triangles glued at a single vertex — the minimal non-link-connected
    pure 2-complex (the hourglass shape)."""
    return SimplicialComplex([("a", "b", "w"), ("c", "d", "w")])


@pytest.fixture(scope="session")
def hourglass():
    return hourglass_task()


@pytest.fixture(scope="session")
def pinwheel():
    return pinwheel_task()


@pytest.fixture(scope="session")
def majority():
    return majority_consensus_task()


@pytest.fixture(scope="session")
def figure3():
    return figure3_task()


@pytest.fixture(scope="session")
def identity3():
    return identity_task(3)


@pytest.fixture(scope="session")
def consensus3():
    return consensus_task(3)
