"""Property-based tests (hypothesis) for the topology substrate."""


import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.complexes import SimplicialComplex
from repro.topology.homology import (
    betti_numbers,
    integer_rank,
    rank_mod2,
    smith_normal_form,
    solve_integer,
    solve_mod2,
)
from repro.topology.simplex import Simplex, Vertex
from repro.topology.subdivision import (
    chromatic_subdivision,
    ordered_partitions,
)

# -- strategies -------------------------------------------------------------

vertices = st.sampled_from(list("abcdefgh"))
raw_simplices = st.sets(vertices, min_size=1, max_size=4).map(Simplex)
complexes = st.lists(raw_simplices, min_size=1, max_size=8).map(SimplicialComplex)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: np.array(rows, dtype=np.int64))
    )
)

chromatic_facets = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=4,
).map(
    lambda combos: SimplicialComplex(
        Simplex(Vertex(i, v) for i, v in enumerate(c)) for c in combos
    )
)


class TestComplexProperties:
    @given(complexes)
    @settings(max_examples=60, deadline=None)
    def test_closure_is_downward_closed(self, k):
        for s in k.simplices():
            for f in s.faces():
                assert f in k

    @given(complexes)
    @settings(max_examples=60, deadline=None)
    def test_facets_are_maximal_and_cover(self, k):
        facets = set(k.facets)
        for s in k.simplices():
            assert any(s <= f for f in facets)
        for f in facets:
            assert not any(f < g for g in facets if g != f)

    @given(complexes)
    @settings(max_examples=40, deadline=None)
    def test_euler_equals_alternating_betti(self, k):
        # Euler–Poincaré: χ = Σ (-1)^k b_k
        chi = k.euler_characteristic()
        betti = betti_numbers(k)
        assert chi == sum((-1) ** d * b for d, b in enumerate(betti))

    @given(complexes, vertices)
    @settings(max_examples=60, deadline=None)
    def test_link_star_relation(self, k, v):
        if v not in set(k.vertices):
            return
        lk = k.link(v)
        for s in lk.simplices():
            assert s.with_vertex(v) in k

    @given(complexes)
    @settings(max_examples=40, deadline=None)
    def test_skeleton_subcomplex(self, k):
        for d in range(k.dim + 1):
            assert k.skeleton(d).is_subcomplex_of(k)


class TestOrderedPartitionProperties:
    @given(st.sets(st.integers(0, 4), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, items):
        count = 0
        seen = set()
        for blocks in ordered_partitions(items):
            count += 1
            assert blocks not in seen
            seen.add(blocks)
            flat = [x for b in blocks for x in b]
            assert len(flat) == len(items)
            assert set(flat) == items
        fubini = {1: 1, 2: 3, 3: 13, 4: 75}
        assert count == fubini[len(items)]


class TestSubdivisionProperties:
    @given(chromatic_facets)
    @settings(max_examples=25, deadline=None)
    def test_chromatic_subdivision_invariants(self, k):
        from repro.topology.chromatic import ChromaticComplex

        ck = ChromaticComplex(k.facets)
        sub = chromatic_subdivision(ck)
        assert sub.complex.is_chromatic()
        assert sub.complex.is_pure()
        assert sub.complex.dim == ck.dim
        # Euler characteristic is a homeomorphism invariant
        assert sub.complex.euler_characteristic() == ck.euler_characteristic()

    @given(chromatic_facets)
    @settings(max_examples=20, deadline=None)
    def test_carrier_monotone(self, k):
        from repro.topology.chromatic import ChromaticComplex

        sub = chromatic_subdivision(ChromaticComplex(k.facets))
        assert sub.carrier.is_monotonic()


class TestLinearAlgebraProperties:
    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_snf_is_valid_decomposition(self, a):
        s, u, v = smith_normal_form(a)
        lhs = np.array(u, dtype=object) @ np.array(a, dtype=object) @ np.array(
            v, dtype=object
        )
        assert (lhs == s).all()
        # diagonal with divisibility chain
        r = min(s.shape)
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                if i != j:
                    assert s[i, j] == 0
        diag = [int(s[i, i]) for i in range(r)]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_integer_rank_matches_float_rank(self, a):
        assert integer_rank(a) == np.linalg.matrix_rank(a.astype(float))

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve_integer_roundtrip(self, a, data):
        x = np.array(
            data.draw(
                st.lists(st.integers(-3, 3), min_size=a.shape[1], max_size=a.shape[1])
            ),
            dtype=np.int64,
        )
        b = a @ x
        sol = solve_integer(a, b)
        assert sol is not None
        assert (a @ np.array(sol, dtype=np.int64) == b).all()

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve_mod2_roundtrip(self, a, data):
        x = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=a.shape[1], max_size=a.shape[1])
            ),
            dtype=np.int64,
        )
        b = (a @ x) % 2
        sol = solve_mod2(a, b)
        assert sol is not None
        assert ((a @ sol) % 2 == b).all()

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_mod2_at_most_integer_rank(self, a):
        assert rank_mod2(a) <= integer_rank(a)
