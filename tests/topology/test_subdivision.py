"""Unit tests for subdivisions (chromatic and barycentric)."""

import pytest

from repro.topology.chromatic import ChromaticComplex
from repro.topology.simplex import Simplex, chrom
from repro.topology.subdivision import (
    Barycenter,
    barycentric_subdivision,
    chromatic_subdivision,
    chromatic_subdivision_of_simplex,
    iterated_barycentric_subdivision,
    iterated_chromatic_subdivision,
    ordered_partitions,
)


class TestOrderedPartitions:
    @pytest.mark.parametrize(
        "n,count", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]
    )
    def test_fubini_numbers(self, n, count):
        assert sum(1 for _ in ordered_partitions(range(n))) == count

    def test_blocks_partition_the_set(self):
        for blocks in ordered_partitions({1, 2, 3}):
            union = set()
            for b in blocks:
                assert b, "blocks must be nonempty"
                assert not (union & b), "blocks must be disjoint"
                union |= b
            assert union == {1, 2, 3}

    def test_all_distinct(self):
        parts = list(ordered_partitions({1, 2, 3}))
        assert len(parts) == len(set(parts))


class TestChromaticSubdivision:
    def test_triangle_counts(self, triangle_complex):
        sub = chromatic_subdivision(triangle_complex)
        assert len(sub.complex.facets) == 13
        assert len(sub.complex.vertices) == 12
        assert sub.complex.is_pure()
        assert sub.complex.is_chromatic()

    def test_edge_counts(self):
        k = ChromaticComplex([chrom((0, "x"), (1, "y"))])
        sub = chromatic_subdivision(k)
        assert len(sub.complex.facets) == 3
        assert len(sub.complex.vertices) == 4

    def test_single_vertex(self):
        k = ChromaticComplex([chrom((0, "x"))])
        sub = chromatic_subdivision(k)
        assert len(sub.complex.vertices) == 1

    def test_of_simplex_helper(self, triangle):
        assert len(chromatic_subdivision_of_simplex(triangle).facets) == 13

    def test_of_simplex_rejects_colorless(self):
        with pytest.raises(ValueError):
            chromatic_subdivision_of_simplex(Simplex(["a", "b"]))

    def test_preserves_euler_characteristic(self, triangle_complex):
        sub = chromatic_subdivision(triangle_complex)
        assert sub.complex.euler_characteristic() == 1

    def test_is_link_connected(self, triangle_complex):
        assert chromatic_subdivision(triangle_complex).complex.is_link_connected()

    def test_glues_across_shared_edge(self):
        shared = ChromaticComplex(
            [
                chrom((0, "a"), (1, "b"), (2, "c")),
                chrom((0, "a"), (1, "b"), (2, "c'")),
            ]
        )
        sub = chromatic_subdivision(shared)
        assert len(sub.complex.facets) == 26
        # the shared edge's subdivision vertices appear once, not twice
        assert sub.complex.is_connected()

    def test_carrier_images(self, triangle_complex, triangle):
        sub = chromatic_subdivision(triangle_complex)
        edge = Simplex(list(triangle.sorted_vertices())[:2])
        img = sub.carrier(edge)
        assert len(img.facets) == 3
        assert img.is_subcomplex_of(sub.complex)

    def test_carrier_is_monotonic_and_chromatic(self, triangle_complex):
        sub = chromatic_subdivision(triangle_complex)
        assert sub.carrier.is_monotonic()
        assert sub.carrier.is_chromatic()

    def test_vertex_views_are_faces_of_base(self, triangle_complex, triangle):
        sub = chromatic_subdivision(triangle_complex)
        for w in sub.complex.vertices:
            assert w.value <= triangle
            assert w.color in w.value.colors()


class TestIteratedChromatic:
    def test_zero_rounds_identity(self, triangle_complex):
        sub = iterated_chromatic_subdivision(triangle_complex, 0)
        assert sub.complex == triangle_complex
        assert sub.carrier_of_vertex(triangle_complex.vertices[0]) == Simplex(
            [triangle_complex.vertices[0]]
        )

    def test_negative_rejected(self, triangle_complex):
        with pytest.raises(ValueError):
            iterated_chromatic_subdivision(triangle_complex, -1)

    def test_two_rounds_facets(self, triangle_complex):
        sub = iterated_chromatic_subdivision(triangle_complex, 2)
        assert len(sub.complex.facets) == 169

    def test_carrier_composition(self, triangle_complex, triangle):
        sub = iterated_chromatic_subdivision(triangle_complex, 2)
        edge = Simplex(list(triangle.sorted_vertices())[:2])
        assert len(sub.carrier(edge).facets) == 9  # Ch^2 of an edge

    def test_carrier_of_vertex_resolves_to_base(self, triangle_complex, triangle):
        sub = iterated_chromatic_subdivision(triangle_complex, 2)
        for w in sub.complex.vertices:
            carrier = sub.carrier_of_vertex(w)
            assert carrier <= triangle


class TestBarycentric:
    def test_triangle_counts(self, triangle_complex):
        sub = barycentric_subdivision(triangle_complex)
        assert len(sub.complex.facets) == 6
        assert len(sub.complex.vertices) == 7

    def test_vertices_are_barycenters(self, triangle_complex):
        sub = barycentric_subdivision(triangle_complex)
        assert all(isinstance(v, Barycenter) for v in sub.complex.vertices)

    def test_carrier_of_vertex(self, triangle_complex, triangle):
        sub = barycentric_subdivision(triangle_complex)
        center = Barycenter(triangle)
        assert sub.carrier_of_vertex(center) == triangle

    def test_carrier_images(self, triangle_complex, triangle):
        sub = barycentric_subdivision(triangle_complex)
        edge = Simplex(list(triangle.sorted_vertices())[:2])
        img = sub.carrier(edge)
        assert len(img.facets) == 2  # an edge splits in two

    def test_iterated(self, triangle_complex):
        sub = iterated_barycentric_subdivision(triangle_complex, 2)
        assert len(sub.complex.facets) == 36
        with pytest.raises(ValueError):
            iterated_barycentric_subdivision(triangle_complex, -2)

    def test_euler_preserved(self, triangle_complex):
        sub = iterated_barycentric_subdivision(triangle_complex, 2)
        assert sub.complex.euler_characteristic() == 1

    def test_colorless_domain_ok(self, disk):
        sub = barycentric_subdivision(disk)
        assert len(sub.complex.facets) == 6
