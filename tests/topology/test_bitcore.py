"""Parity suite for the bit-packed topology kernels.

:mod:`repro.topology.bitcore` answers the pipeline's hot queries —
connectivity, components, link components, GF(2) linear algebra, cycle
bases, shortest paths — with packed-integer arithmetic, and is the only
engine behind :class:`SimplicialComplex` and :mod:`repro.topology.homology`.
This suite checks it answer for answer against the brute-force oracle in
:mod:`tests.topology.reference` on a seeded random population.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import decide_solvability
from repro.solvability import Status
from repro.tasks.zoo.random_tasks import (
    random_single_input_task,
    random_sparse_task,
)
from repro.topology import cache_clear
from repro.topology.bitcore import BitComplex, gf2_rank, gf2_solve, pack_rows
from repro.topology.complexes import SimplicialComplex
from repro.topology.homology import (
    ChainBasis,
    boundary_matrix,
    cycle_space_generators,
    rank_mod2,
    solve_mod2,
)

from . import reference

SEEDS = range(30)  # >= 25 seeds per property, per the perf-layer contract


def random_complex(seed: int, n_vertices: int = 8, n_facets: int = 7) -> SimplicialComplex:
    """A random mixed-dimension complex (facet sizes 1-4, closed down)."""
    rng = random.Random(seed)
    universe = [f"v{i}" for i in range(n_vertices)]
    facets = []
    for _ in range(n_facets):
        size = rng.choice((1, 2, 2, 3, 3, 4))
        facets.append(tuple(rng.sample(universe, size)))
    return SimplicialComplex(facets)


# -- structural queries: bit kernels vs the oracle ----------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_connectivity_parity(seed):
    k = random_complex(seed)
    bits = k._bits()
    assert bits.is_connected() == reference.is_connected(k)
    assert bits.connected_components() == reference.components(k)
    assert k.connected_components() == reference.components(k)


@pytest.mark.parametrize("seed", SEEDS)
def test_link_parity(seed):
    k = random_complex(seed)
    bits = k._bits()
    assert bits.is_link_connected() == all(
        len(reference.link_components(k, v)) <= 1 for v in k.vertices
    )
    for v in k.vertices:
        assert bits.link_components(v) == reference.link_components(k, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_path_parity(seed):
    k = random_complex(seed)
    bits = k._bits()
    edges = {frozenset(e.vertices) for e in k.simplices(1)}
    rng = random.Random(seed ^ 0xBEEF)
    verts = list(k.vertices)
    for _ in range(10):
        a, b = rng.choice(verts), rng.choice(verts)
        path = bits.shortest_path(a, b)
        want = reference.bfs_distances(k, a).get(b)
        if want is None:
            assert path is None
            continue
        # a genuine edge path of minimal length with the right endpoints
        assert path is not None
        assert (path[0], path[-1]) == (a, b)
        assert len(path) - 1 == want
        for u, w in zip(path, path[1:]):
            assert frozenset((u, w)) in edges


def test_shortest_path_degenerate_cases():
    k = SimplicialComplex([("a", "b"), ("c",)])
    bits = k._bits()
    assert bits.shortest_path("a", "a") == ["a"]
    assert bits.shortest_path("a", "c") is None  # disconnected
    assert bits.shortest_path("a", "zz") is None  # absent endpoint
    assert bits.shortest_path("zz", "a") is None


def test_empty_complex_is_connected():
    bits = BitComplex.from_complex(SimplicialComplex.empty())
    assert bits.is_connected()
    assert bits.connected_components() == ()


# -- GF(2) linear algebra ------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_gf2_rank_parity(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 9)))
    assert gf2_rank(pack_rows(a)) == reference.rank_mod2(a)
    assert rank_mod2(a) == reference.rank_mod2(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_gf2_solve_parity(seed):
    rng = np.random.default_rng(seed ^ 0xF00D)
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    a = rng.integers(0, 2, size=(rows, cols))
    b = rng.integers(0, 2, size=rows)
    packed = gf2_solve(pack_rows(a), [int(v) for v in b], cols)
    unpacked = solve_mod2(a, b)
    oracle = reference.solve_mod2(a, b)
    # solvability must agree; the witnesses may differ, so each one is
    # checked against the system instead of against the oracle's
    assert (packed is None) == (unpacked is None) == (oracle is None)
    if packed is not None:
        x = np.array([(packed >> c) & 1 for c in range(cols)])
        assert np.array_equal((a @ x) % 2, b % 2)
        assert np.array_equal((a @ unpacked) % 2, b % 2)
        assert np.array_equal((a @ oracle) % 2, b % 2)


# -- cycle space generators ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_cycle_generators_span_parity(seed):
    k = random_complex(seed)
    gens = cycle_space_generators(k)
    # one fundamental cycle per non-forest edge: E - V + C, the dimension
    # of the cycle space
    n_edges = len(k.simplices(dim=1))
    assert len(gens) == n_edges - len(k.vertices) + len(reference.components(k))
    if not gens:
        return
    # independent over GF(2), so they span the whole cycle space
    assert reference.rank_mod2(np.array(gens)) == len(gens)
    # and every generator is an actual cycle: d1 . z = 0
    basis = ChainBasis.of(k)
    d1 = boundary_matrix(basis, 1)
    for z in gens:
        assert not np.any(d1 @ z)


# -- end-to-end verdict parity -------------------------------------------------


def _verdict_fingerprint(task, max_rounds=1):
    verdict = decide_solvability(task, max_rounds=max_rounds)
    return (
        verdict.status,
        verdict.witness_rounds,
        None if verdict.obstruction is None else verdict.obstruction.kind,
    )


@pytest.mark.parametrize("generator", [random_single_input_task, random_sparse_task])
@pytest.mark.parametrize("seed", range(13))
def test_decision_verdict_parity(generator, seed):
    # the verdict every one of these tasks got while a second, object-based
    # engine still cross-checked the packed kernels
    cache_clear()
    assert _verdict_fingerprint(generator(seed)) == (Status.SOLVABLE, 0, None)
