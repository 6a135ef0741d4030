"""The in-process caching of the topology core: interning and lazy slots.

Simplices are interned, and a complex keeps two answers in lazy slots: its
sorted simplex tuple (``simplices()``) and its bit-packed view
(``_bits()``).  The invariant under test: both are implementation details —
every query answers exactly as a from-scratch computation would, on a
fresh complex and on an unpickled one.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.tasks.zoo import hourglass_task, majority_consensus_task
from repro.topology import BitComplex, SimplicialComplex, chromatic_subdivision
from repro.topology.simplex import Simplex, Vertex, chrom


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


# -- the lazy slots answer exactly like a from-scratch computation --------------


def _query_snapshot(k: SimplicialComplex):
    return {
        "simplices": k.simplices(),
        "by_dim": tuple(k.simplices(d) for d in range(-1, k.dim + 2)),
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
        "link_components": {v: k.link_components(v) for v in k.vertices},
    }


@pytest.mark.parametrize("idx", range(4))
def test_memoized_queries_match_uncached(idx):
    k = _example_complexes()[idx]
    fresh = tuple(sorted(k._simplices, key=Simplex.sort_key))
    assert k.simplices() == fresh
    assert k.simplices() is k.simplices()  # the second call reads the slot
    for d in range(-1, k.dim + 2):
        assert k.simplices(d) == tuple(s for s in fresh if s.dim == d)
        assert k.simplices(dim=d) == tuple(
            sorted((s for s in k._simplices if s.dim == d), key=Simplex.sort_key)
        )
    bits = BitComplex.from_complex(k)
    assert k.connected_components() == bits.connected_components()
    assert k.is_connected() == bits.is_connected()
    assert k.is_link_connected() == bits.is_link_connected()


def test_per_instance_caches_are_isolated():
    a = SimplicialComplex([("a", "b"), ("b", "c")])
    b = SimplicialComplex([("a", "b"), ("b", "c")])
    assert a == b
    assert a._bits() is a._bits()  # built once, then read from the slot
    assert b._bits() is not a._bits()  # an equal instance keeps its own view
    assert a.simplices() == b.simplices()
    assert a.simplices() is not b.simplices()


@pytest.mark.parametrize("idx", range(4))
def test_unpickled_complex_answers_every_query_alike(idx):
    k = _example_complexes()[idx]
    before = _query_snapshot(k)  # fills k's slots before it is pickled
    clone = pickle.loads(pickle.dumps(k))
    assert clone._sorted is None and clone._bitview is None  # slots start empty
    assert _query_snapshot(clone) == before
