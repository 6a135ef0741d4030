"""Surface topology workouts for the homology machinery.

The Möbius band is the smallest space where orientation matters: its
boundary circle wraps *twice* around the core circle, so the relation
``[boundary] = 2·[core]`` in H1 exercises the integer (not mod-2) side of
the chain machinery — exactly the arithmetic the torsion obstruction of
the solvability checker relies on.
"""

import pytest

from repro.topology.complexes import SimplicialComplex
from repro.topology.homology import (
    ChainBasis,
    betti_numbers,
    edge_chain,
    homology_torsion,
    is_null_homologous,
    solve_integer,
    boundary_matrix,
)


@pytest.fixture
def mobius():
    """The standard 5-vertex triangulation of the Möbius band.

    Facets ``{i, i+1, i+2}`` mod 5 — each consecutive triple of the
    pentagon's vertices.
    """
    return SimplicialComplex([(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])


class TestMobiusBand:
    def test_counts(self, mobius):
        assert mobius.f_vector() == (5, 10, 5)
        assert mobius.euler_characteristic() == 0

    def test_homotopy_type_of_circle(self, mobius):
        assert betti_numbers(mobius) == (1, 1, 0)
        assert homology_torsion(mobius, 1) == ()

    def test_core_circle_does_not_bound(self, mobius):
        basis = ChainBasis.of(mobius)
        core = edge_chain(basis, [0, 1, 2, 3, 4, 0])
        assert not is_null_homologous(mobius, core, over="Z")

    def test_boundary_is_twice_core(self, mobius):
        """[∂M] = ±2[core] in H1: boundary - 2·core (up to sign) bounds."""
        basis = ChainBasis.of(mobius)
        # the boundary circle: edges {i, i+2} mod 5 (the "long" chords)
        boundary_cycle = edge_chain(basis, [0, 2, 4, 1, 3, 0])
        core = edge_chain(basis, [0, 1, 2, 3, 4, 0])
        d2 = boundary_matrix(basis, 2)
        hits = [
            sign
            for sign in (+2, -2)
            if solve_integer(d2, boundary_cycle + sign * core) is not None
        ]
        assert hits, "boundary must be homologous to ±2 · core"

    def test_boundary_does_not_bound_itself(self, mobius):
        basis = ChainBasis.of(mobius)
        boundary_cycle = edge_chain(basis, [0, 2, 4, 1, 3, 0])
        assert not is_null_homologous(mobius, boundary_cycle, over="Z")

    def test_boundary_bounds_mod_2(self, mobius):
        # over GF(2) the factor 2 vanishes: the boundary circle bounds
        basis = ChainBasis.of(mobius)
        boundary_cycle = edge_chain(basis, [0, 2, 4, 1, 3, 0])
        assert is_null_homologous(mobius, boundary_cycle, over="Z2")

    def test_not_link_connected_on_boundary(self, mobius):
        # interior vertices of a surface-with-boundary have path links
        comps = mobius.link_components(0)
        assert len(comps) == 1  # the link is a path: connected
        assert mobius.is_link_connected()


class TestCylinder:
    @pytest.fixture
    def cylinder(self):
        """Annulus from the torus construction with one direction cut."""
        facets = []
        for i in range(3):
            for j in range(2):
                a, b = (i, j), ((i + 1) % 3, j)
                c, d = (i, j + 1), ((i + 1) % 3, j + 1)
                facets.append((a, b, c))
                facets.append((b, c, d))
        return SimplicialComplex(facets)

    def test_homotopy_circle(self, cylinder):
        assert betti_numbers(cylinder) == (1, 1, 0)

    def test_two_boundary_circles_homologous(self, cylinder):
        basis = ChainBasis.of(cylinder)
        bottom = edge_chain(basis, [(0, 0), (1, 0), (2, 0), (0, 0)])
        top = edge_chain(basis, [(0, 2), (1, 2), (2, 2), (0, 2)])
        d2 = boundary_matrix(basis, 2)
        assert solve_integer(d2, bottom - top) is not None
        assert not is_null_homologous(cylinder, bottom, over="Z")
