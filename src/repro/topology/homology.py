"""Simplicial homology over Z and GF(2).

This module provides the small amount of algebraic topology the solvability
machinery needs:

* boundary matrices and Betti numbers of a finite complex,
* an integer Smith normal form (for exact homology with torsion),
* exact linear solvers over Z and GF(2), used by the homological
  obstruction test (whether some choice of connecting paths makes a
  boundary loop null-homologous — a computable *necessary* condition for
  the continuous map of Theorem 5.1 to exist).

All matrices are dense :mod:`numpy` integer arrays; the complexes in this
domain are tiny (hundreds of simplices), so no sparse machinery is needed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import bitcore as _bitcore
from .complexes import SimplicialComplex
from .simplex import Simplex


@dataclass(frozen=True)
class ChainBasis:
    """Ordered simplex bases of the chain groups of a complex."""

    complex: SimplicialComplex
    by_dim: Tuple[Tuple[Simplex, ...], ...]

    @classmethod
    def of(cls, k: SimplicialComplex) -> "ChainBasis":
        dims = max(k.dim, 0)
        return cls(k, tuple(k.simplices(dim=d) for d in range(dims + 1)))

    def index(self, s: Simplex) -> int:
        """Index of a simplex within its dimension's basis."""
        return self.by_dim[s.dim].index(s)

    def dim_count(self, d: int) -> int:
        if d < 0 or d >= len(self.by_dim):
            return 0
        return len(self.by_dim[d])


def boundary_matrix(basis: ChainBasis, k: int) -> np.ndarray:
    """The boundary operator ``∂_k : C_k → C_{k-1}`` as an integer matrix.

    Signs follow the canonical vertex order of each simplex.  ``∂_0`` is the
    zero map (reduced homology is not used here).
    """
    rows = basis.dim_count(k - 1)
    cols = basis.dim_count(k)
    mat = np.zeros((rows, cols), dtype=np.int64)
    if k <= 0 or cols == 0:
        return mat
    row_index: Dict[Simplex, int] = {s: i for i, s in enumerate(basis.by_dim[k - 1])}
    for j, s in enumerate(basis.by_dim[k]):
        verts = s.sorted_vertices()
        for omit in range(len(verts)):
            face = Simplex(verts[:omit] + verts[omit + 1 :])
            mat[row_index[face], j] = (-1) ** omit
    return mat


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def rank_mod2(a: np.ndarray) -> int:
    """Rank of a matrix over GF(2).

    Packs each row into one integer and eliminates with XOR row updates
    (:func:`repro.topology.bitcore.gf2_rank`).
    """
    return _bitcore.gf2_rank(_bitcore.pack_rows(a))


def solve_mod2(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``A x = b`` over GF(2); return a solution or ``None``.

    Runs on integer-packed rows via :func:`repro.topology.bitcore.gf2_solve`.
    """
    a_arr = np.asarray(a)
    ncols = a_arr.shape[1] if a_arr.ndim == 2 else 0
    rows = _bitcore.pack_rows(a_arr)
    rhs = [int(v) & 1 for v in np.asarray(b).reshape(-1)]
    packed = _bitcore.gf2_solve(rows, rhs, ncols)
    if packed is None:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for c in range(ncols):
        if packed >> c & 1:
            x[c] = 1
    return x


def smith_normal_form(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form ``S = U A V`` with unimodular ``U, V``.

    Returns ``(S, U, V)``.  Python integers (object dtype) are used
    internally to avoid overflow; inputs here are tiny.
    """
    s = np.array(a, dtype=object)
    rows, cols = s.shape
    u = np.identity(rows, dtype=object)
    v = np.identity(cols, dtype=object)

    def pivot_position(t: int) -> Optional[Tuple[int, int]]:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i, j] != 0 and (best is None or abs(s[i, j]) < abs(s[best[0], best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_position(t)
        if pos is None:
            break
        i, j = pos
        s[[t, i]] = s[[i, t]]
        u[[t, i]] = u[[i, t]]
        s[:, [t, j]] = s[:, [j, t]]
        v[:, [t, j]] = v[:, [j, t]]
        # Reduce row t and column t against the pivot.  Each quotient step
        # leaves remainders strictly smaller than |pivot|, so re-picking the
        # smallest entry makes the pivot's absolute value strictly decrease
        # whenever a remainder survives; the loop therefore terminates.
        for i in range(t + 1, rows):
            q = s[i, t] // s[t, t]
            if q:
                s[i] -= q * s[t]
                u[i] -= q * u[t]
        for j in range(t + 1, cols):
            q = s[t, j] // s[t, t]
            if q:
                s[:, j] -= q * s[:, t]
                v[:, j] -= q * v[:, t]
        if any(s[i, t] != 0 for i in range(t + 1, rows)) or any(
            s[t, j] != 0 for j in range(t + 1, cols)
        ):
            continue  # remainders survive: re-pivot on a smaller entry
        # Divisibility chain: fold a row containing a non-divisible entry
        # into row t, which forces a smaller pivot on the next pass.
        problem_row = None
        for i in range(t + 1, rows):
            if any(s[i, j] % s[t, t] != 0 for j in range(t + 1, cols)):
                problem_row = i
                break
        if problem_row is not None:
            s[t] += s[problem_row]
            u[t] += u[problem_row]
            continue
        if s[t, t] < 0:
            s[t] = -s[t]
            u[t] = -u[t]
        t += 1
    return s, u, v


def integer_rank(a: np.ndarray) -> int:
    """Rank of an integer matrix (over Q), computed exactly via SNF."""
    if a.size == 0:
        return 0
    s, _, _ = smith_normal_form(a)
    return int(sum(1 for i in range(min(s.shape)) if s[i, i] != 0))


def solve_integer(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``A x = b`` over the integers; return a solution or ``None``."""
    a = np.array(a, dtype=object)
    b = np.array(b, dtype=object).reshape(-1)
    if a.size == 0:
        return np.zeros(a.shape[1], dtype=object) if not b.any() else None
    s, u, v = smith_normal_form(a)
    c = u @ b
    x = np.zeros(a.shape[1], dtype=object)
    r = min(s.shape)
    for i in range(len(c)):
        d = s[i, i] if i < r else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            x[i] = c[i] // d
    return v @ x


# ---------------------------------------------------------------------------
# Homology of complexes
# ---------------------------------------------------------------------------


def betti_numbers(k: SimplicialComplex, max_dim: Optional[int] = None) -> Tuple[int, ...]:
    """Betti numbers ``b_0, …, b_d`` over the rationals."""
    if not k:
        return ()
    basis = ChainBasis.of(k)
    top = k.dim if max_dim is None else min(max_dim, k.dim)
    ranks: List[int] = []
    boundaries = [boundary_matrix(basis, d) for d in range(top + 2)]
    for d in range(top + 1):
        n_d = basis.dim_count(d)
        rank_d = integer_rank(boundaries[d]) if d > 0 else 0
        rank_d1 = integer_rank(boundaries[d + 1]) if basis.dim_count(d + 1) else 0
        ranks.append(n_d - rank_d - rank_d1)
    return tuple(ranks)


def homology_torsion(k: SimplicialComplex, dim: int) -> Tuple[int, ...]:
    """Torsion coefficients of ``H_dim`` (invariant factors > 1)."""
    basis = ChainBasis.of(k)
    if basis.dim_count(dim + 1) == 0:
        return ()
    s, _, _ = smith_normal_form(boundary_matrix(basis, dim + 1))
    coeffs = [int(s[i, i]) for i in range(min(s.shape)) if s[i, i] not in (0, 1)]
    return tuple(abs(c) for c in coeffs)


def edge_chain(basis: ChainBasis, path: Sequence[Hashable]) -> np.ndarray:
    """The 1-chain of a vertex path, with orientation signs.

    ``path`` is a sequence of vertices; consecutive pairs must be edges of
    the complex.  A closed path yields a cycle.
    """
    vec = np.zeros(basis.dim_count(1), dtype=np.int64)
    edge_index: Dict[Simplex, int] = {s: i for i, s in enumerate(basis.by_dim[1])}
    for a, b in zip(path, path[1:]):
        if a == b:
            continue
        e = Simplex([a, b])
        if e not in edge_index:
            raise ValueError(f"{e!r} is not an edge of the complex")
        lo, hi = e.sorted_vertices()
        sign = 1 if (a, b) == (lo, hi) else -1
        vec[edge_index[e]] += sign
    return vec


def is_null_homologous(
    k: SimplicialComplex, cycle: np.ndarray, over: str = "Z"
) -> bool:
    """Whether a 1-cycle bounds in ``k`` (over Z or GF(2))."""
    basis = ChainBasis.of(k)
    d2 = boundary_matrix(basis, 2)
    if over == "Z":
        return solve_integer(d2, cycle) is not None
    if over == "Z2":
        return solve_mod2(d2, cycle) is not None
    raise ValueError(f"unknown coefficient ring {over!r}")


def bfs_forest(
    k: SimplicialComplex, roots: Iterable[Hashable]
) -> Tuple[Dict[Hashable, Optional[Hashable]], Dict[Hashable, int]]:
    """Parent pointers and depths of a breadth-first forest of the 1-skeleton.

    A tree grows from each root not yet reached, in the order given.  The
    queue is FIFO and neighbours come in canonical order, so every vertex
    hangs off the first dequeued vertex adjacent to it; roots have parent
    ``None``.
    """
    adj = k.adjacency()
    parent: Dict[Hashable, Optional[Hashable]] = {}
    depth: Dict[Hashable, int] = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
    return parent, depth


def cycle_space_generators(k: SimplicialComplex) -> List[np.ndarray]:
    """Fundamental 1-cycles of the 1-skeleton (one per non-tree edge).

    Returned as integer vectors in the edge basis of ``k``.  Together with
    the boundaries of 2-simplices they span all 1-cycles.  The forest is
    :func:`bfs_forest`; any spanning forest yields a basis of the same
    integral cycle lattice, and the obstruction test only quotients by
    their span.
    """
    basis = ChainBasis.of(k)
    edges = basis.by_dim[1] if len(basis.by_dim) > 1 else ()
    if not edges:
        return []
    parent, depth = bfs_forest(k, k.vertices)
    forest = {frozenset((w, p)) for w, p in parent.items() if p is not None}
    cycles = []
    for e in edges:
        a, b = e.sorted_vertices()
        if frozenset((a, b)) in forest:
            continue
        # walk both endpoints up to their lowest common ancestor
        ups_a = [a]
        ups_b = [b]
        pa, pb = a, b
        while depth[pa] > depth[pb]:
            pa = parent[pa]
            ups_a.append(pa)
        while depth[pb] > depth[pa]:
            pb = parent[pb]
            ups_b.append(pb)
        while pa != pb:
            pa = parent[pa]
            ups_a.append(pa)
            pb = parent[pb]
            ups_b.append(pb)
        # closed path a → b → … → lca → … → a
        path = ups_b + list(reversed(ups_a[:-1]))
        cycles.append(edge_chain(basis, [a] + path))
    return cycles
