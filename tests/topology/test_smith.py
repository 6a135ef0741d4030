"""Parity of the sparse Smith normal form against the dense reference.

``repro.topology.homology.smith_form`` eliminates sparsely on Python ints;
``tests/topology/reference.py`` keeps the dense smallest-entry elimination
it replaced.  The invariant factors of a matrix are unique, so both must
give the same diagonal, and the same solvable/unsolvable answer for every
right-hand side.  Each form is also checked on its own terms: ``U A V = S``
with ``U`` and ``V`` of determinant ±1 (exact Bareiss determinants).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.execution import ZOO
from repro.solvability.obstructions import boundary_loop_system
from repro.splitting.pipeline import link_connected_form
from repro.tasks.zoo.loop_agreement import projective_plane_loop
from repro.topology import diskstore
from repro.topology.complexes import SimplicialComplex
from repro.topology.homology import (
    ChainBasis,
    boundary_matrix,
    cycle_space_generators,
    homology_torsion,
    integer_rank,
    smith_form,
    smith_normal_form,
    solve_integer,
)

from . import reference


def determinant(m: np.ndarray) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = np.array(m, dtype=object)
    n = a.shape[0]
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k, k] == 0:
            below = [i for i in range(k + 1, n) if a[i, k] != 0]
            if not below:
                return 0
            a[[k, below[0]]] = a[[below[0], k]]
            sign = -sign
        a[k + 1 :, k + 1 :] = (
            a[k + 1 :, k + 1 :] * a[k, k] - np.outer(a[k + 1 :, k], a[k, k + 1 :])
        ) // prev
        prev = a[k, k]
    return int(sign * a[n - 1, n - 1])


def diagonal(s: np.ndarray) -> list:
    return [int(s[i, i]) for i in range(min(s.shape))]


def assert_snf_parity(a: np.ndarray, rhs=()) -> None:
    """Diagonal, factorization, unimodularity and solvability parity."""
    s, u, v = smith_normal_form(a)
    ref = reference.smith_normal_form(a)
    assert diagonal(s) == diagonal(ref[0])
    off = s.copy()
    for i in range(min(s.shape)):
        off[i, i] = 0
    assert not off.any()
    d = [x for x in diagonal(s) if x]
    assert all(x > 0 for x in d)
    assert all(later % earlier == 0 for earlier, later in zip(d, d[1:]))
    assert ((u @ np.array(a, dtype=object) @ v) == s).all()
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    for b in rhs:
        x = solve_integer(a, b)
        assert (x is None) == (reference.solve_integer(a, b, ref) is None)
        if x is not None:
            assert (np.array(a, dtype=object) @ x == np.array(b, dtype=object)).all()


def _random_rhs(rng, a):
    rows, cols = a.shape
    solvable = np.array(a, dtype=object) @ rng.randint(-3, 4, size=cols)
    return [rng.randint(-3, 4, size=rows), solvable, np.zeros(rows, dtype=int)]


@pytest.mark.parametrize("seed", range(60))
def test_random_dense_matrices(seed):
    rng = np.random.RandomState(seed)
    rows, cols = rng.randint(1, 8, size=2)
    density = rng.choice([0.3, 0.6, 1.0])
    a = rng.randint(-6, 7, size=(rows, cols)) * (rng.rand(rows, cols) < density)
    assert_snf_parity(a, _random_rhs(rng, a))


@pytest.mark.parametrize(
    "a, factors",
    [
        (np.array([[2, 0], [0, 3]]), [1, 6]),
        (np.array([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), [2, 2, 60]),
        (np.array([[6, 4], [4, 6]]), [2, 10]),
        (np.array([[0, 0], [0, 0]]), [0, 0]),
        (np.array([[-3]]), [3]),
    ],
)
def test_divisibility_chain(a, factors):
    assert diagonal(smith_normal_form(a)[0]) == factors
    assert_snf_parity(a, [np.ones(a.shape[0], dtype=int)])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(shape):
    a = np.zeros(shape, dtype=int)
    s, u, v = smith_normal_form(a)
    assert s.shape == shape and u.shape == (shape[0],) * 2 and v.shape == (shape[1],) * 2
    assert integer_rank(a) == 0
    assert solve_integer(a, np.zeros(shape[0], dtype=int)) is not None
    if shape[0]:
        assert solve_integer(a, np.ones(shape[0], dtype=int)) is None


def test_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        smith_form(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        smith_form(np.array([1, 2, 3]))


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_integer(np.eye(2, dtype=int), np.ones(3, dtype=int))


# ---------------------------------------------------------------------------
# Boundary matrices of surfaces
# ---------------------------------------------------------------------------


def _grid_surface(n: int, twist: bool) -> SimplicialComplex:
    """An ``n``×``n`` grid with opposite sides glued: torus, or Klein bottle."""

    def vertex(x: int, y: int):
        if x == n:
            x, y = 0, (-y if twist else y)
        return (x, y % n)

    facets = []
    for x in range(n):
        for y in range(n):
            a, b = vertex(x, y), vertex(x + 1, y)
            c, d = vertex(x, y + 1), vertex(x + 1, y + 1)
            facets.extend([(a, b, c), (b, d, c)])
    return SimplicialComplex(facets)


SURFACES = {
    "projective-plane": lambda: projective_plane_loop().complex,
    "mobius": lambda: SimplicialComplex(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    ),
    "torus": lambda: _grid_surface(3, twist=False),
    "klein-bottle": lambda: _grid_surface(4, twist=True),
}

#: (b0, b1, b2) and the torsion of H1
SURFACE_HOMOLOGY = {
    "projective-plane": (2,),
    "mobius": (),
    "torus": (),
    "klein-bottle": (2,),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("dim", [1, 2])
def test_surface_boundary_matrices(name, dim):
    k = SURFACES[name]()
    basis = ChainBasis.of(k)
    a = boundary_matrix(basis, dim)
    rhs = [np.ones(a.shape[0], dtype=int)]
    if dim == 2:
        rhs += [z for z in cycle_space_generators(k)[:8]]
    assert_snf_parity(a, rhs)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_torsion(name):
    k = SURFACES[name]()
    assert homology_torsion(k, 1) == SURFACE_HOMOLOGY[name]


# ---------------------------------------------------------------------------
# The homological obstruction's own systems
# ---------------------------------------------------------------------------


def _facet_systems(task_name: str, limit: int):
    with diskstore.store_disabled():
        task = link_connected_form(ZOO[task_name]()).task
    systems = []
    for sigma in task.input_complex.facets:
        system = boundary_loop_system(task, sigma)
        if system is not None:
            systems.append(system)
    systems.sort(key=lambda sys_: -sys_[1].size)
    return systems[:limit]


@pytest.mark.parametrize("task_name, limit", [("loop-projective", 2), ("3-set-agreement", 4)])
def test_obstruction_systems(task_name, limit):
    systems = _facet_systems(task_name, limit)
    assert systems
    for basis, matrix, _ in systems:
        # fundamental cycles of Δ(σ) (RP²'s generator among them) and one
        # edge, which is no cycle and so never in the span
        edge = np.zeros(matrix.shape[0], dtype=int)
        edge[0] = 1
        assert_snf_parity(matrix, cycle_space_generators(basis.complex)[:10] + [edge])


def test_projective_facet_is_the_large_torsion_case():
    ((_, matrix, _),) = _facet_systems("loop-projective", 1)
    assert matrix.shape == (108, 159)
    assert smith_form(matrix).diagonal[-1] == 2
