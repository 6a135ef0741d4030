"""Unit tests for the edge-path group and budgeted contractibility."""

import pytest

from repro.topology.complexes import SimplicialComplex
from repro.topology.homotopy import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    invert,
    is_null_homotopic,
    loop_word,
    pi1_presentation,
)


class TestWords:
    def test_free_reduce(self):
        assert free_reduce([1, -1]) == ()
        assert free_reduce([1, 2, -2, -1]) == ()
        assert free_reduce([1, 2, -1]) == (1, 2, -1)
        assert free_reduce([2, -2, 3]) == (3,)

    def test_cyclic_reduce(self):
        assert cyclic_reduce([1, 2, -1]) == (2,)
        assert cyclic_reduce([1, 2, 3]) == (1, 2, 3)
        assert cyclic_reduce([1, -1]) == ()

    def test_invert(self):
        assert invert((1, -2, 3)) == (-3, 2, -1)
        assert free_reduce((1, 2) + invert((1, 2))) == ()


class TestPresentation:
    def test_disk(self, disk):
        pres = pi1_presentation(disk)
        # 3 vertices, spanning tree uses 2 edges: one generator, one relator
        assert pres.rank == 1
        assert len(pres.relators) == 1

    def test_circle(self, circle):
        pres = pi1_presentation(circle)
        assert pres.rank == 1
        assert pres.relators == ()

    def test_wedge_of_two_circles(self):
        k = SimplicialComplex(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")]
        )
        pres = pi1_presentation(k)
        assert pres.rank == 2  # free group F2

    # Literal generator lists pin the spanning tree: a FIFO breadth-first
    # search from the base with neighbours in canonical vertex order.

    def test_disk_generators(self, disk):
        pres = pi1_presentation(disk)
        assert [g.sorted_vertices() for g in pres.generators] == [("b", "c")]
        assert [t.sorted_vertices() for t in pres.tree_edges] == [("a", "b"), ("a", "c")]
        assert pres.relators == ((1,),)

    def test_circle_generators(self, circle):
        pres = pi1_presentation(circle)
        assert [g.sorted_vertices() for g in pres.generators] == [("b", "c")]
        assert [t.sorted_vertices() for t in pres.tree_edges] == [("a", "b"), ("a", "c")]

    def test_wedge_generators(self):
        k = SimplicialComplex(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")]
        )
        pres = pi1_presentation(k)
        assert [g.sorted_vertices() for g in pres.generators] == [("b", "c"), ("d", "e")]
        pres = pi1_presentation(k, base="c")
        assert [g.sorted_vertices() for g in pres.generators] == [("a", "b"), ("d", "e")]

    def test_annulus_generators(self):
        from repro.tasks.zoo import annulus_loop

        pres = pi1_presentation(annulus_loop().complex)
        assert [g.sorted_vertices() for g in pres.generators] == [
            ("i1", "o0"), ("i2", "o1"), ("i3", "i4"), ("i3", "o2"), ("i3", "o3"),
            ("i4", "o4"), ("i5", "o5"), ("o0", "o1"), ("o0", "o5"), ("o1", "o2"),
            ("o2", "o3"), ("o3", "o4"), ("o4", "o5"),
        ]
        assert pres.relators == (
            (1,), (7,), (9,), (2,), (1, 8), (4,), (2, 10),
            (3, -5), (4, 11, -5), (-6,), (12, -6), (13, -7),
        )

    def test_disconnected_rejected(self):
        k = SimplicialComplex([("a", "b"), ("c", "d")])
        with pytest.raises(ValueError):
            pi1_presentation(k)

    def test_edge_letter(self, circle):
        pres = pi1_presentation(circle)
        (gen,) = pres.generators
        a, b = gen.sorted_vertices()
        assert pres.edge_letter(a, b) == (1,)
        assert pres.edge_letter(b, a) == (-1,)
        with pytest.raises(KeyError):
            pres.edge_letter("a", "zz")

    def test_tree_plus_generators_cover_edges(self, disk):
        pres = pi1_presentation(disk)
        assert len(pres.tree_edges) + pres.rank == len(disk.simplices(dim=1))


class TestLoopWord:
    def test_tree_loops_are_trivial_words(self, disk):
        pres = pi1_presentation(disk, base="a")
        # a path going out and back along tree edges
        a, b = pres.tree_edges[0].sorted_vertices()
        assert loop_word(pres, [a, b, a]) == ()

    def test_requires_closed_path(self, circle):
        pres = pi1_presentation(circle)
        with pytest.raises(ValueError):
            loop_word(pres, ["a", "b"])

    def test_circle_loop_is_generator(self, circle):
        pres = pi1_presentation(circle, base="a")
        w = loop_word(pres, ["a", "b", "c", "a"])
        assert len(w) == 1


class TestNullHomotopy:
    def test_disk_boundary_contractible(self, disk):
        assert is_null_homotopic(disk, ["a", "b", "c", "a"]) is True

    def test_circle_loop_not_contractible(self, circle):
        assert is_null_homotopic(circle, ["a", "b", "c", "a"]) is False

    def test_backtracking_loop_trivial(self, circle):
        assert is_null_homotopic(circle, ["a", "b", "a"]) is True

    def test_two_triangles_boundary(self, two_triangles):
        assert is_null_homotopic(two_triangles, ["a", "b", "d", "c", "a"]) is True

    def test_annulus_core_refuted(self):
        from repro.tasks.zoo import annulus_loop

        loop = annulus_loop()
        assert is_null_homotopic(loop.complex, list(loop.full_cycle())) is False

    def test_projective_plane_loop_refuted_by_torsion(self):
        # the RP² loop is 2-torsion: nonzero in H1(Z), so refuted soundly
        from repro.tasks.zoo import projective_plane_loop

        loop = projective_plane_loop()
        assert is_null_homotopic(loop.complex, list(loop.full_cycle())) is False

    def test_hourglass_boundary_contractible(self, hourglass):
        # the boundary walk of the hourglass output is contractible —
        # the geometric reason the colorless-ACT condition holds (Sect. 6.1)
        from repro.topology.simplex import Vertex

        o = hourglass.output_complex
        a0, a1 = Vertex(0, 0), Vertex(0, 1)
        b0, b1, b2 = Vertex(1, 0), Vertex(1, 1), Vertex(1, 2)
        c0, c1, c2 = Vertex(2, 0), Vertex(2, 1), Vertex(2, 2)
        walk = [a0, b1, a1, b0, c2, b2, c0, a1, c1, a0]
        assert is_null_homotopic(o, walk) is True

    def test_open_path_rejected(self, disk):
        with pytest.raises(ValueError):
            is_null_homotopic(disk, ["a", "b"])
