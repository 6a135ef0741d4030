"""Unit tests for chromatic complexes and colorless projections."""

import pytest

from repro.topology.chromatic import (
    ChromaticComplex,
    NotChromaticError,
    colorless_complex,
    ids,
    strip_colors,
)
from repro.topology.simplex import Simplex, Vertex, chrom


class TestValidation:
    def test_valid(self, triangle):
        k = ChromaticComplex([triangle])
        assert k.is_chromatic()

    def test_colorless_vertex_rejected(self):
        with pytest.raises(NotChromaticError):
            ChromaticComplex([Simplex(["a", "b"])])

    def test_repeated_color_rejected(self):
        bad = Simplex([Vertex(0, "a"), Vertex(0, "b")])
        with pytest.raises(NotChromaticError):
            ChromaticComplex([bad])

    def test_repeated_color_in_higher_facet_rejected(self):
        bad = Simplex([Vertex(0, "a"), Vertex(0, "b"), Vertex(1, "c")])
        with pytest.raises(NotChromaticError):
            ChromaticComplex([bad])


class TestAccessors:
    def test_vertices_of_color(self, triangle_complex):
        vs = triangle_complex.vertices_of_color(1)
        assert vs == (Vertex(1, "b"),)

    def test_vertices_of_missing_color(self, triangle_complex):
        assert triangle_complex.vertices_of_color(9) == ()

    def test_restrict_colors(self, triangle_complex):
        sub = triangle_complex.restrict_colors({0, 1})
        assert sub.colors() == frozenset({0, 1})
        assert sub.dim == 1

    def test_facets_with_colors(self):
        k = ChromaticComplex([chrom((0, "a"), (1, "b"), (2, "c")),
                              chrom((0, "a"), (1, "q"), (2, "r"))])
        pairs = k.facets_with_colors({0, 1})
        assert all(f.colors() == frozenset({0, 1}) for f in pairs)
        assert len(pairs) == 2  # {a,b} and {a,q}

    def test_is_properly_colored_by(self, triangle_complex):
        assert triangle_complex.is_properly_colored_by(3)
        assert not triangle_complex.is_properly_colored_by(2)


class TestColorless:
    def test_ids(self, triangle):
        assert ids(triangle) == frozenset({0, 1, 2})

    def test_strip_colors(self, triangle):
        assert strip_colors(triangle) == frozenset({"a", "b", "c"})

    def test_strip_colors_collapses(self):
        s = chrom((0, "v"), (1, "v"))
        assert strip_colors(s) == frozenset({"v"})

    def test_colorless_complex(self, triangle_complex):
        c = colorless_complex(triangle_complex)
        assert Simplex(["a", "b", "c"]) in c
        assert c.dim == 2

    def test_colorless_complex_collapse(self):
        k = ChromaticComplex([chrom((0, 0), (1, 0), (2, 1))])
        c = colorless_complex(k)
        assert c.dim == 1  # values {0, 1}

    def test_strip_raw_vertices_passthrough(self):
        assert strip_colors(Simplex(["x"])) == frozenset({"x"})
