"""Unit tests for the homology machinery."""

import itertools

import numpy as np
import pytest

from repro.topology import homology
from repro.topology.complexes import SimplicialComplex
from repro.topology.homology import (
    ChainBasis,
    betti_numbers,
    boundary_matrix,
    cycle_space_generators,
    edge_chain,
    homology_torsion,
    integer_rank,
    is_null_homologous,
    rank_mod2,
    smith_normal_form,
    solve_integer,
    solve_mod2,
)


@pytest.fixture
def sphere():
    """The boundary of a 3-simplex: a 2-sphere."""
    return SimplicialComplex(itertools.combinations(["a", "b", "c", "d"], 3))


@pytest.fixture
def torus():
    """The standard 9-vertex grid-quotient triangulation of the torus."""
    facets = []
    for i in range(3):
        for j in range(3):
            a = (i, j)
            b = ((i + 1) % 3, j)
            c = (i, (j + 1) % 3)
            d = ((i + 1) % 3, (j + 1) % 3)
            facets.append((a, b, c))
            facets.append((b, c, d))
    return SimplicialComplex(facets)


@pytest.fixture
def projective_plane():
    """The minimal 6-vertex triangulation of RP² (icosahedron quotient)."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    return SimplicialComplex(facets)


class TestBoundaryMatrix:
    def test_shapes(self, disk):
        basis = ChainBasis.of(disk)
        d1 = boundary_matrix(basis, 1)
        d2 = boundary_matrix(basis, 2)
        assert d1.shape == (3, 3)
        assert d2.shape == (3, 1)

    def test_boundary_squares_to_zero(self, torus):
        basis = ChainBasis.of(torus)
        d1 = boundary_matrix(basis, 1)
        d2 = boundary_matrix(basis, 2)
        assert not (d1 @ d2).any()

    def test_d0_is_zero(self, disk):
        basis = ChainBasis.of(disk)
        assert not boundary_matrix(basis, 0).any()

    def test_column_signs_alternate(self, disk):
        basis = ChainBasis.of(disk)
        d2 = boundary_matrix(basis, 2)
        col = d2[:, 0]
        assert sorted(col.tolist()) == [-1, 1, 1] or sorted(col.tolist()) == [-1, -1, 1]


class TestExactLinearAlgebra:
    def test_rank_mod2(self):
        a = np.array([[1, 1], [1, 1]])
        assert rank_mod2(a) == 1
        assert rank_mod2(np.eye(3, dtype=int)) == 3
        assert rank_mod2(2 * np.eye(3, dtype=int)) == 0  # even entries vanish

    def test_solve_mod2_solution(self):
        a = np.array([[1, 0], [1, 1]])
        b = np.array([1, 0])
        x = solve_mod2(a, b)
        assert x is not None
        assert ((a @ x) % 2 == b % 2).all()

    def test_solve_mod2_unsolvable(self):
        a = np.array([[1, 1], [1, 1]])
        b = np.array([1, 0])
        assert solve_mod2(a, b) is None

    def test_smith_normal_form_diagonal(self):
        a = np.array([[2, 4], [6, 8]])
        s, u, v = smith_normal_form(a)
        assert (np.array(u, dtype=float) @ a @ np.array(v, dtype=float)
                == np.array(s, dtype=float)).all()
        assert s[0, 1] == 0 and s[1, 0] == 0
        assert s[1, 1] % s[0, 0] == 0

    def test_smith_normal_form_invariant_factors(self):
        a = np.array([[2, 0], [0, 3]])
        s, _, _ = smith_normal_form(a)
        assert [int(s[0, 0]), int(s[1, 1])] == [1, 6]

    def test_smith_unimodular_transforms(self):
        rng = np.random.RandomState(3)
        a = rng.randint(-4, 5, size=(4, 5))
        s, u, v = smith_normal_form(a)
        assert abs(round(float(np.linalg.det(np.array(u, dtype=float))))) == 1
        assert abs(round(float(np.linalg.det(np.array(v, dtype=float))))) == 1

    def test_integer_rank(self):
        assert integer_rank(np.array([[2, 4], [1, 2]])) == 1
        assert integer_rank(np.zeros((2, 2), dtype=int)) == 0

    def test_solve_integer_solution(self):
        a = np.array([[2, 0], [0, 3]])
        b = np.array([4, 9])
        x = solve_integer(a, b)
        assert x is not None
        assert (a @ np.array(x, dtype=int) == b).all()

    def test_solve_integer_divisibility_failure(self):
        a = np.array([[2]])
        assert solve_integer(a, np.array([3])) is None

    def test_solve_integer_inconsistent(self):
        a = np.array([[1], [0]])
        assert solve_integer(a, np.array([1, 1])) is None

    def test_solve_integer_underdetermined(self):
        a = np.array([[1, 1]])
        x = solve_integer(a, np.array([5]))
        assert x is not None and int(sum(x)) == 5


class TestBettiNumbers:
    def test_disk(self, disk):
        assert betti_numbers(disk) == (1, 0, 0)

    def test_circle(self, circle):
        assert betti_numbers(circle) == (1, 1)

    def test_sphere(self, sphere):
        assert betti_numbers(sphere) == (1, 0, 1)

    def test_torus(self, torus):
        assert betti_numbers(torus) == (1, 2, 1)

    def test_two_components(self):
        k = SimplicialComplex([("a", "b"), ("c", "d")])
        assert betti_numbers(k)[0] == 2

    def test_wedge_of_circles(self):
        k = SimplicialComplex(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")]
        )
        assert betti_numbers(k) == (1, 2)

    def test_empty(self):
        assert betti_numbers(SimplicialComplex.empty()) == ()

    def test_projective_plane_rational(self, projective_plane):
        # over Q the projective plane looks like a point in dims 0..2
        assert betti_numbers(projective_plane) == (1, 0, 0)

    def test_each_boundary_rank_computed_once(self, torus, monkeypatch):
        calls = []

        def counting_rank(a):
            calls.append(a.shape)
            return integer_rank(a)

        monkeypatch.setattr(homology, "integer_rank", counting_rank)
        assert betti_numbers(torus) == (1, 2, 1)
        # ∂_1 and ∂_2; ∂_0 is zero and the torus has no 3-simplices
        assert calls == [(9, 27), (27, 18)]


class TestTorsion:
    def test_projective_plane_torsion(self, projective_plane):
        assert homology_torsion(projective_plane, 1) == (2,)

    def test_torus_torsion_free(self, torus):
        assert homology_torsion(torus, 1) == ()

    def test_no_higher_simplices(self, circle):
        assert homology_torsion(circle, 1) == ()


class TestChains:
    def test_basis_index_matches_basis_order(self, torus):
        basis = ChainBasis.of(torus)
        for simplices in basis.by_dim:
            assert [basis.index(s) for s in simplices] == list(range(len(simplices)))

    def test_edge_chain_cycle(self, circle):
        basis = ChainBasis.of(circle)
        z = edge_chain(basis, ["a", "b", "c", "a"])
        d1 = boundary_matrix(basis, 1)
        assert not (d1 @ z).any()

    def test_edge_chain_orientation(self, circle):
        basis = ChainBasis.of(circle)
        fwd = edge_chain(basis, ["a", "b"])
        bwd = edge_chain(basis, ["b", "a"])
        assert (fwd == -bwd).all()

    def test_edge_chain_stationary_steps_ignored(self, circle):
        basis = ChainBasis.of(circle)
        z = edge_chain(basis, ["a", "a", "b"])
        assert abs(z).sum() == 1

    def test_edge_chain_missing_edge(self, circle):
        basis = ChainBasis.of(circle)
        with pytest.raises(ValueError):
            edge_chain(basis, ["a", "nope"])

    def test_null_homologous_in_disk(self, disk):
        basis = ChainBasis.of(disk)
        z = edge_chain(basis, ["a", "b", "c", "a"])
        assert is_null_homologous(disk, z, over="Z")
        assert is_null_homologous(disk, z, over="Z2")

    def test_not_null_homologous_in_circle(self, circle):
        basis = ChainBasis.of(circle)
        z = edge_chain(basis, ["a", "b", "c", "a"])
        assert not is_null_homologous(circle, z, over="Z")
        assert not is_null_homologous(circle, z, over="Z2")

    def test_unknown_ring_rejected(self, circle):
        basis = ChainBasis.of(circle)
        z = edge_chain(basis, ["a", "b", "c", "a"])
        with pytest.raises(ValueError):
            is_null_homologous(circle, z, over="Z3")

    def test_double_loop_in_projective_plane_bounds(self, projective_plane):
        # a loop generating H1(RP^2) = Z/2 does not bound, but twice it does
        basis = ChainBasis.of(projective_plane)
        # find a non-bounding cycle among fundamental cycles
        found = None
        for z in cycle_space_generators(projective_plane):
            if not is_null_homologous(projective_plane, z, over="Z"):
                found = z
                break
        assert found is not None
        assert is_null_homologous(projective_plane, 2 * found, over="Z")


class TestCycleGenerators:
    def test_count_matches_first_betti_for_graph(self, circle):
        gens = cycle_space_generators(circle)
        assert len(gens) == 1

    def test_generators_are_cycles(self, torus):
        basis = ChainBasis.of(torus)
        d1 = boundary_matrix(basis, 1)
        skel = torus.skeleton(1)
        for z in cycle_space_generators(skel):
            assert not (d1 @ z).any()

    def test_tree_has_no_cycles(self):
        tree = SimplicialComplex([("a", "b"), ("b", "c")])
        assert cycle_space_generators(tree) == []

    def test_no_edges(self):
        k = SimplicialComplex([("a",)])
        assert cycle_space_generators(k) == []
