"""Unit tests for simplicial complexes."""

import pytest

from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex, chrom


class TestConstruction:
    def test_closure_taken(self, disk):
        assert Simplex(["a", "b"]) in disk
        assert Simplex(["a"]) in disk
        assert len(disk) == 7

    def test_empty_complex(self):
        k = SimplicialComplex.empty()
        assert k.dim == -1
        assert len(k) == 0
        assert not k
        assert k.is_connected()  # vacuously

    def test_accepts_raw_iterables(self):
        k = SimplicialComplex([("x", "y")])
        assert Simplex(["x", "y"]) in k

    def test_from_facets_alias(self):
        k = SimplicialComplex.from_facets([("a", "b")])
        assert k.dim == 1

    def test_name_in_repr(self):
        k = SimplicialComplex([("a",)], name="K")
        assert "K" in repr(k)


class TestFacets:
    def test_facets_are_maximal(self, two_triangles):
        assert len(two_triangles.facets) == 2
        assert all(f.dim == 2 for f in two_triangles.facets)

    def test_redundant_faces_not_facets(self):
        k = SimplicialComplex([("a", "b", "c"), ("a", "b")])
        assert len(k.facets) == 1

    def test_mixed_dimension_facets(self):
        k = SimplicialComplex([("a", "b", "c"), ("d", "e")])
        assert {f.dim for f in k.facets} == {1, 2}
        assert not k.is_pure()

    def test_pure(self, disk, circle):
        assert disk.is_pure()
        assert circle.is_pure()

    def test_facets_deterministic_order(self):
        k1 = SimplicialComplex([("b", "c"), ("a", "b")])
        k2 = SimplicialComplex([("a", "b"), ("b", "c")])
        assert k1.facets == k2.facets


class TestAccessors:
    def test_dim(self, disk, circle):
        assert disk.dim == 2
        assert circle.dim == 1

    def test_vertices_sorted(self, circle):
        assert list(circle.vertices) == ["a", "b", "c"]

    def test_simplices_by_dim(self, disk):
        assert len(disk.simplices(dim=0)) == 3
        assert len(disk.simplices(dim=1)) == 3
        assert len(disk.simplices(dim=2)) == 1
        assert disk.simplices(dim=5) == ()

    def test_f_vector(self, disk):
        assert disk.f_vector() == (3, 3, 1)

    def test_euler_characteristic(self, disk, circle):
        assert disk.euler_characteristic() == 1
        assert circle.euler_characteristic() == 0

    def test_len_counts_all_simplices(self, circle):
        assert len(circle) == 6

    def test_contains_raw(self, disk):
        assert ("a", "b") in disk


class TestEquality:
    def test_equal_by_simplices(self):
        a = SimplicialComplex([("x", "y")])
        b = SimplicialComplex([("y", "x")])
        assert a == b
        assert hash(a) == hash(b)

    def test_name_irrelevant_for_equality(self):
        a = SimplicialComplex([("x",)], name="A")
        b = SimplicialComplex([("x",)], name="B")
        assert a == b

    def test_not_equal(self, disk, circle):
        assert disk != circle


class TestSubcomplexes:
    def test_skeleton(self, disk):
        skel = disk.skeleton(1)
        assert skel.dim == 1
        assert len(skel.simplices(dim=1)) == 3

    def test_skeleton_zero(self, disk):
        assert disk.skeleton(0).dim == 0

    def test_star(self, two_triangles):
        st = two_triangles.star("a")
        assert Simplex(["a", "b", "c"]) in st
        assert Simplex(["b", "c", "d"]) not in st

    def test_link_of_interior_vertex(self, two_triangles):
        lk = two_triangles.link("b")
        assert Simplex(["a", "c"]) in lk
        assert Simplex(["c", "d"]) in lk
        assert "b" not in lk.vertices

    def test_link_of_corner(self, disk):
        lk = disk.link("a")
        assert lk == SimplicialComplex([("b", "c")])

    def test_induced(self, two_triangles):
        sub = two_triangles.induced({"a", "b", "c"})
        assert sub == SimplicialComplex([("a", "b", "c")])

    def test_subcomplex_checked(self, disk):
        with pytest.raises(ValueError):
            disk.subcomplex([("a", "z")])

    def test_union_and_intersection(self, disk):
        other = SimplicialComplex([("c", "d")])
        u = disk.union(other)
        assert ("c", "d") in u and ("a", "b", "c") in u
        inter = u.intersection(disk)
        assert inter == disk

    def test_is_subcomplex_of(self, disk):
        assert disk.skeleton(1).is_subcomplex_of(disk)
        assert not disk.is_subcomplex_of(disk.skeleton(1))


class TestConnectivity:
    def test_connected(self, disk):
        assert disk.is_connected()

    def test_disconnected(self):
        k = SimplicialComplex([("a", "b"), ("c", "d")])
        assert not k.is_connected()
        assert len(k.connected_components()) == 2

    def test_isolated_vertex_counts(self):
        k = SimplicialComplex([("a", "b"), ("z",)])
        assert not k.is_connected()

    def test_component_of(self):
        k = SimplicialComplex([("a", "b"), ("c", "d")])
        assert k.component_of("a") == frozenset({"a", "b"})
        with pytest.raises(KeyError):
            k.component_of("nope")

    def test_components_deterministic(self):
        k = SimplicialComplex([("c", "d"), ("a", "b")])
        comps = k.connected_components()
        assert comps[0] == frozenset({"a", "b"})

    def test_graph_has_all_vertices(self, disk):
        adj = disk.adjacency()
        assert tuple(adj) == disk.vertices
        assert sum(len(nbrs) for nbrs in adj.values()) == 2 * 3

    def test_adjacency_in_canonical_order(self):
        k = SimplicialComplex([("c", "a"), ("b", "a"), ("d",)])
        assert k.adjacency() == {"a": ("b", "c"), "b": ("a",), "c": ("a",), "d": ()}


class TestLinkConnectivity:
    def test_disk_link_connected(self, disk):
        assert disk.is_link_connected()

    def test_bowtie_not_link_connected(self, bowtie):
        assert not bowtie.is_link_connected()
        comps = bowtie.link_components("w")
        assert len(comps) == 2
        assert frozenset({"a", "b"}) in comps
        assert frozenset({"c", "d"}) in comps

    def test_two_triangles_link_connected(self, two_triangles):
        assert two_triangles.is_link_connected()

    def test_path_endpoint_links(self):
        # a path's interior vertex has a 2-point (disconnected) link
        k = SimplicialComplex([("a", "b"), ("b", "c")])
        assert len(k.link_components("b")) == 2
        assert not k.is_link_connected()


class TestChromaticAccessors:
    def test_colors(self):
        k = SimplicialComplex([chrom((0, "a"), (1, "b"))])
        assert k.colors() == frozenset({0, 1})

    def test_is_chromatic(self, triangle_complex, disk):
        assert triangle_complex.is_chromatic()
        assert not disk.is_chromatic()
