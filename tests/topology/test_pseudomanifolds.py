"""Unit tests for pseudomanifold diagnostics."""


from repro.splitting import link_connected_form
from repro.topology.complexes import SimplicialComplex
from repro.topology.pseudomanifolds import (
    boundary_complex,
    decomposition_summary,
    edge_triangle_degrees,
    is_closed_pseudomanifold,
    is_manifold_vertex,
    is_pseudomanifold,
    non_manifold_vertices,
)
from repro.topology.simplex import Simplex, Vertex


class TestEdgeDegrees:
    def test_disk(self, disk):
        degrees = edge_triangle_degrees(disk)
        assert all(d == 1 for d in degrees.values())

    def test_two_triangles_shared_edge(self, two_triangles):
        degrees = edge_triangle_degrees(two_triangles)
        shared = Simplex(["b", "c"])
        assert degrees[shared] == 2
        assert sum(1 for d in degrees.values() if d == 1) == 4


class TestPseudomanifold:
    def test_disk_is_pseudomanifold_with_boundary(self, disk):
        assert is_pseudomanifold(disk)
        assert not is_closed_pseudomanifold(disk)
        assert len(boundary_complex(disk).simplices(dim=1)) == 3

    def test_sphere_is_closed(self):
        import itertools

        sphere = SimplicialComplex(itertools.combinations("abcd", 3))
        assert is_closed_pseudomanifold(sphere)
        assert not boundary_complex(sphere)

    def test_book_of_three_pages_is_not(self):
        # three triangles sharing one edge: the CAD-style defect
        book = SimplicialComplex(
            [("a", "b", "p"), ("a", "b", "q"), ("a", "b", "r")]
        )
        assert not is_pseudomanifold(book)
        summary = decomposition_summary(book)
        assert summary["overloaded_edges"] == 1

    def test_one_dimensional_rejected(self, circle):
        assert not is_pseudomanifold(circle)


class TestManifoldVertices:
    def test_disk_vertices_manifold(self, disk):
        assert non_manifold_vertices(disk) == ()

    def test_bowtie_waist_detected(self, bowtie):
        assert non_manifold_vertices(bowtie) == ("w",)
        assert not is_manifold_vertex(bowtie, "w")
        assert is_manifold_vertex(bowtie, "a")

    def test_hourglass_waist(self, hourglass):
        o = hourglass.output_complex
        assert is_pseudomanifold(o)
        assert non_manifold_vertices(o) == (Vertex(0, 1),)

    def test_split_hourglass_is_two_disks(self, hourglass):
        res = link_connected_form(hourglass)
        o_prime = res.task.output_complex
        summary = decomposition_summary(o_prime)
        assert summary["pseudomanifold"]
        assert summary["non_manifold_vertices"] == ()
        assert summary["components"] == 2

    def test_pinwheel_defects_resolved_by_splitting(self, pinwheel):
        before = non_manifold_vertices(pinwheel.output_complex)
        assert len(before) == 9  # every vertex
        res = link_connected_form(pinwheel)
        after = non_manifold_vertices(res.task.output_complex)
        assert after == ()


class TestSummary:
    def test_keys(self, disk):
        summary = decomposition_summary(disk)
        assert summary["pure_2d"] and summary["pseudomanifold"]
        assert summary["boundary_edges"] == 3
        assert summary["components"] == 1
