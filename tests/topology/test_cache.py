"""The caching layer: interning, memoized queries, and the control surface.

The invariant under test everywhere: caching is an implementation detail —
every query answers identically with the layer on, off, or cleared
mid-stream.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.tasks.zoo import hourglass_task, majority_consensus_task
from repro.topology import (
    SimplicialComplex,
    cache_clear,
    cache_info,
    caching_disabled,
    caching_enabled,
    chromatic_subdivision,
    set_caching,
)
from repro.topology.simplex import Simplex, Vertex, chrom


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from a cleared cache and restores the global flag."""
    cache_clear()
    was = caching_enabled()
    yield
    set_caching(was)
    cache_clear()


def _example_complexes():
    """A small but structurally varied pool of complexes."""
    hourglass = hourglass_task().output_complex
    majority = majority_consensus_task().input_complex
    sub = chromatic_subdivision(SimplicialComplex([chrom((0, 0), (1, 0), (2, 0))]))
    path = SimplicialComplex([("a", "b"), ("b", "c"), ("d",)], name="path")
    return [hourglass, majority, sub.complex, path]


# -- interning ----------------------------------------------------------------


def test_interning_returns_identical_objects():
    a = Simplex([Vertex(0, "x"), Vertex(1, "y")])
    b = Simplex([Vertex(1, "y"), Vertex(0, "x")])  # order-insensitive
    assert a is b


def test_interning_disabled_gives_fresh_objects():
    with caching_disabled():
        a = Simplex([Vertex(0, "x")])
        b = Simplex([Vertex(0, "x")])
        assert a == b and a is not b


def test_pickle_roundtrip_reinterns():
    s = chrom((0, "x"), (1, "y"), (2, "z"))
    clone = pickle.loads(pickle.dumps(s))
    assert clone is s  # same process => same intern table

    k = SimplicialComplex([s], name="K")
    k2 = pickle.loads(pickle.dumps(k))
    assert k2 == k and k2.name == "K"
    assert k2.facets == k.facets


def test_vertex_copy_identity():
    v = Vertex(2, ("composite", 7))
    assert copy.copy(v) is v
    assert copy.deepcopy(v) is v
    assert pickle.loads(pickle.dumps(v)) == v


# -- memoized queries answer exactly like the uncached layer -------------------


def _query_snapshot(k: SimplicialComplex):
    return {
        "simplices": k.simplices(),
        "edges": k.simplices(dim=1),
        "f_vector": k.f_vector(),
        "is_pure": k.is_pure(),
        "is_chromatic": k.is_chromatic(),
        "colors": k.colors(),
        "skeleton1_facets": k.skeleton(1).facets,
        "stars": {v: k.star(v).facets for v in k.vertices},
        "links": {v: k.link(v).facets for v in k.vertices},
        "adjacency": k.adjacency(),
        "is_connected": k.is_connected(),
        "components": k.connected_components(),
        "is_link_connected": k.is_link_connected(),
    }


@pytest.mark.parametrize("idx", range(4))
def test_memoized_queries_match_uncached(idx):
    k = _example_complexes()[idx]
    cached_first = _query_snapshot(k)
    cached_second = _query_snapshot(k)  # answered from the cache
    with caching_disabled():
        uncached = _query_snapshot(k)
    assert cached_first == cached_second == uncached


def test_queries_survive_cache_clear():
    k = hourglass_task().output_complex
    before = _query_snapshot(k)
    cache_clear()
    assert _query_snapshot(k) == before


# -- the control surface -------------------------------------------------------


FV = "SimplicialComplex.f_vector"


def test_cache_info_reports_hits_and_misses():
    cache_clear()
    k = _example_complexes()[3]
    k.f_vector()
    info = cache_info()
    assert info[FV]["misses"] == 1
    assert info[FV]["hits"] == 0
    k.f_vector()
    k.f_vector()
    info = cache_info()
    assert info[FV]["hits"] == 2
    assert 0.0 < info[FV]["hit_rate"] < 1.0


def test_cache_clear_resets_stats_and_invalidates():
    k = _example_complexes()[3]
    k.is_pure()
    k.is_pure()
    assert cache_info()["SimplicialComplex.is_pure"]["hits"] >= 1
    cache_clear()
    assert cache_info() == {}  # unexercised queries are omitted
    k.is_pure()  # epoch bumped: recomputed, not served stale
    assert cache_info()["SimplicialComplex.is_pure"]["misses"] == 1


def test_per_instance_caches_are_isolated():
    a = SimplicialComplex([("a", "b")])
    b = SimplicialComplex([("a", "b")])
    assert a == b
    a.f_vector()
    info = cache_info()
    b.f_vector()  # equal but distinct instance: its own miss
    assert cache_info()[FV]["misses"] == info[FV]["misses"] + 1


def test_caching_disabled_is_reentrant_and_restores():
    assert caching_enabled()
    with caching_disabled():
        assert not caching_enabled()
        with caching_disabled():
            assert not caching_enabled()
        assert not caching_enabled()
    assert caching_enabled()
