"""Simplicial homology over Z and GF(2).

This module provides the small amount of algebraic topology the solvability
machinery needs:

* boundary matrices and Betti numbers of a finite complex,
* an integer Smith normal form (for exact homology with torsion),
* exact linear solvers over Z and GF(2), used by the homological
  obstruction test (whether some choice of connecting paths makes a
  boundary loop null-homologous — a computable *necessary* condition for
  the continuous map of Theorem 5.1 to exist).

Boundary and cycle matrices are built as dense :mod:`numpy` integer
arrays.  The Smith normal form eliminates them sparsely on Python ints
(:func:`smith_form`): an RP² facet's ``[∂₂ | free cycles]`` matrix is
108×159 with 480 nonzeros, and a dense elimination rescans all of it at
every pivot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import bitcore as _bitcore
from .complexes import SimplicialComplex
from .simplex import Simplex


@dataclass(frozen=True)
class ChainBasis:
    """Ordered simplex bases of the chain groups of a complex."""

    complex: SimplicialComplex
    by_dim: Tuple[Tuple[Simplex, ...], ...]

    @cached_property
    def positions(self) -> Tuple[Dict[FrozenSet[Hashable], int], ...]:
        """``positions[d][s.vertices]`` is the index of ``s`` in ``by_dim[d]``."""
        return tuple({s.vertices: i for i, s in enumerate(basis)} for basis in self.by_dim)

    @classmethod
    def of(cls, k: SimplicialComplex) -> "ChainBasis":
        dims = max(k.dim, 0)
        return cls(k, tuple(k.simplices(dim=d) for d in range(dims + 1)))

    def index(self, s: Simplex) -> int:
        """Index of a simplex within its dimension's basis."""
        return self.positions[s.dim][s.vertices]

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
    row_index = basis.positions[k - 1]
    for j, s in enumerate(basis.by_dim[k]):
        for omit, v in enumerate(s.sorted_vertices()):
            mat[row_index[s.vertices - {v}], j] = (-1) ** omit
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


@dataclass(frozen=True)
class SmithForm:
    """The Smith normal form ``S = U A V`` of an integer matrix, kept sparse.

    ``diagonal`` holds the nonzero invariant factors ``d_1 | d_2 | …``, all
    positive; ``S`` is zero off its first ``rank`` diagonal entries.  Row
    ``k`` of ``U`` is ``u_rows[k]`` and column ``k`` of ``V`` is
    ``v_cols[k]``, each a ``{index: nonzero entry}`` dict of Python ints.
    """

    shape: Tuple[int, int]
    diagonal: Tuple[int, ...]
    u_rows: List[Dict[int, int]]
    v_cols: List[Dict[int, int]]

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def dense(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(S, U, V)`` as object-dtype arrays of Python ints."""
        rows, cols = self.shape
        s = np.zeros((rows, cols), dtype=object)
        for k, d in enumerate(self.diagonal):
            s[k, k] = d
        u = np.zeros((rows, rows), dtype=object)
        for k, row in enumerate(self.u_rows):
            for i, x in row.items():
                u[k, i] = x
        v = np.zeros((cols, cols), dtype=object)
        for k, col in enumerate(self.v_cols):
            for j, x in col.items():
                v[j, k] = x
        return s, u, v

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """Solve ``A x = b`` over the integers; return a solution or ``None``.

        ``A x = b`` iff ``S y = U b`` with ``x = V y``: each ``(U b)_k`` must
        be divisible by ``d_k`` below the rank and vanish above it.
        """
        rows, cols = self.shape
        flat = np.asarray(b).reshape(-1)
        if len(flat) != rows:
            raise ValueError(f"right-hand side has {len(flat)} entries, expected {rows}")
        rhs = {i: int(x) for i, x in enumerate(flat.tolist()) if x}
        x = [0] * cols
        for k, row in enumerate(self.u_rows):
            c = sum(row[i] * bi for i, bi in rhs.items() if i in row)
            if not c:
                continue
            if k >= len(self.diagonal):
                return None
            q, rem = divmod(c, self.diagonal[k])
            if rem:
                return None
            for j, vj in self.v_cols[k].items():
                x[j] += q * vj
        return np.array(x, dtype=object)


def _add_scaled(target: Dict[int, int], source: Dict[int, int], q: int) -> None:
    """``target += q * source`` on sparse vectors, dropping cancelled entries."""
    if not q:
        return
    for k, x in source.items():
        y = target.get(k, 0) + q * x
        if y:
            target[k] = y
        else:
            del target[k]


def _combine(x: Dict[int, int], p: int, y: Dict[int, int], q: int) -> Dict[int, int]:
    """The sparse vector ``p * x + q * y``."""
    out: Dict[int, int] = {}
    _add_scaled(out, x, p)
    _add_scaled(out, y, q)
    return out


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """``(g, s, t)`` with ``g = gcd(a, b) = s a + t b`` and ``g > 0``."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        return -r0, -s0, -t0
    return r0, s0, t0


class _Elimination:
    """Sparse unimodular row/column elimination of one integer matrix.

    ``rows[i]`` is row ``i`` of the working matrix as ``{column: entry}``,
    ``cols[j]`` the set of rows with a nonzero in column ``j``; ``u`` and
    ``v`` accumulate the row operations (rows of ``U``) and column
    operations (columns of ``V``).  An isolated pivot leaves the working
    matrix, so ``rows``/``cols`` only ever hold the live submatrix.
    """

    __slots__ = ("rows", "cols", "first", "u", "v")

    def __init__(self, a: np.ndarray) -> None:
        n_rows, n_cols = a.shape
        self.rows: List[Dict[int, int]] = [{} for _ in range(n_rows)]
        self.cols: List[Set[int]] = [set() for _ in range(n_cols)]
        ii, jj = np.nonzero(a)
        for i, j, x in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
            value = int(x)
            if value != x:
                raise ValueError(f"non-integer entry {x!r} at ({i}, {j})")
            self.rows[i][j] = value
            self.cols[j].add(i)
        #: every column before ``first`` is zero
        self.first = 0
        self.u: List[Dict[int, int]] = [{i: 1} for i in range(n_rows)]
        self.v: List[Dict[int, int]] = [{j: 1} for j in range(n_cols)]

    def add_row(self, i: int, r: int, q: int) -> None:
        """Row ``i`` += ``q`` * row ``r``."""
        target = self.rows[i]
        cols = self.cols
        for j, x in self.rows[r].items():
            old = target.get(j)
            if old is None:
                target[j] = q * x
                cols[j].add(i)
            elif old + q * x:
                target[j] = old + q * x
            else:
                del target[j]
                cols[j].discard(i)
        _add_scaled(self.u[i], self.u[r], q)

    def add_col(self, j: int, c: int, q: int) -> None:
        """Column ``j`` += ``q`` * column ``c``."""
        col_j = self.cols[j]
        for i in self.cols[c]:
            row = self.rows[i]
            y = row.get(j, 0) + q * row[c]
            if y:
                row[j] = y
                col_j.add(i)
            else:
                del row[j]
                col_j.discard(i)
        _add_scaled(self.v[j], self.v[c], q)

    def pivot(self) -> Optional[Tuple[int, int]]:
        """The next pivot: a unit if any, else a smallest entry.

        The unit is taken in the first live column holding one, in its
        shortest row (the fill-in of eliminating through an entry is bounded
        by ``(|row| - 1)(|col| - 1)``).  Boundary and cycle matrices need no
        wider search: a column-length or full Markowitz search cost more
        than the fill-in it saved.  Without a unit, a full scan takes the
        entry of least absolute value, then least fill-in bound.
        """
        rows, cols = self.rows, self.cols
        # a zero column stays zero: skip the leading ones for good
        while self.first < len(cols) and not cols[self.first]:
            self.first += 1
        for j in range(self.first, len(cols)):
            if cols[j]:
                found = self._unit_in(j)
                if found is not None:
                    return found
        best: Optional[Tuple[int, int]] = None
        best_key = (0, 0)
        for i, row in enumerate(rows):
            for j, x in row.items():
                key = (abs(x), (len(row) - 1) * (len(cols[j]) - 1))
                if best is None or key < best_key:
                    best, best_key = (i, j), key
        return best

    def _unit_in(self, j: int) -> Optional[Tuple[int, int]]:
        """A ±1 entry of column ``j`` in a shortest row, or ``None``."""
        rows = self.rows
        units = [(len(rows[i]), i) for i in self.cols[j] if rows[i][j] in (1, -1)]
        return (min(units)[1], j) if units else None

    def run(self) -> List[Tuple[int, int, int]]:
        """Diagonalize; return the pivots ``(row, column, entry)`` in order.

        Reducing against a pivot leaves remainders smaller than it, so a
        surviving remainder makes the next pivot strictly smaller (or a
        unit), and the loop terminates.
        """
        rows, cols = self.rows, self.cols
        pivots: List[Tuple[int, int, int]] = []
        while True:
            found = self.pivot()
            if found is None:
                return pivots
            r, c = found
            p = rows[r][c]
            for i in [i for i in cols[c] if i != r]:
                q = rows[i][c] // p
                if q:
                    self.add_row(i, r, -q)
            if len(cols[c]) > 1:
                continue
            for j in [j for j in rows[r] if j != c]:
                q = rows[r][j] // p
                if q:
                    self.add_col(j, c, -q)
            if len(rows[r]) > 1:
                continue
            pivots.append((r, c, p))
            rows[r] = {}
            cols[c] = set()


def smith_form(a: np.ndarray) -> SmithForm:
    """The Smith normal form of an integer matrix, by sparse exact elimination.

    Boundary and cycle matrices are 0/±1, so nearly every pivot is a unit
    and eliminating it touches only its row's and column's support.  The
    few non-unit pivots left (the torsion, e.g. RP²'s 2) are then folded
    into the divisibility chain pairwise: ``diag(a, b)`` becomes
    ``diag(gcd, lcm)`` by one unimodular row and one column operation.
    Python ints throughout, so no entry can overflow.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    elim = _Elimination(arr)
    pivots = elim.run()
    u, v = elim.u, elim.v
    units = [(r, c, p) for r, c, p in pivots if p in (1, -1)]
    rest = [[r, c, p] for r, c, p in pivots if p not in (1, -1)]
    for i, entry_a in enumerate(rest):
        for entry_b in rest[i + 1 :]:
            ra, ca, da = entry_a
            rb, cb, db = entry_b
            if db % da == 0:
                continue
            # [[s, t], [-db/g, da/g]] · diag(da, db) · [[1, -t db/g], [1, s da/g]]
            # = diag(g, da db / g), both factors of determinant 1
            g, s, t = _xgcd(da, db)
            u[ra], u[rb] = _combine(u[ra], s, u[rb], t), _combine(u[ra], -db // g, u[rb], da // g)
            v[ca], v[cb] = (
                _combine(v[ca], 1, v[cb], 1),
                _combine(v[ca], -t * db // g, v[cb], s * da // g),
            )
            entry_a[2], entry_b[2] = g, da * db // g
    ordered = units + [(r, c, p) for r, c, p in rest]
    for r, _, p in ordered:
        if p < 0:
            u[r] = {k: -x for k, x in u[r].items()}
    pivot_rows = {r for r, _, _ in ordered}
    pivot_cols = {c for _, c, _ in ordered}
    n_rows, n_cols = arr.shape
    return SmithForm(
        shape=(n_rows, n_cols),
        diagonal=tuple(abs(p) for _, _, p in ordered),
        u_rows=[u[r] for r, _, _ in ordered] + [u[i] for i in range(n_rows) if i not in pivot_rows],
        v_cols=[v[c] for _, c, _ in ordered] + [v[j] for j in range(n_cols) if j not in pivot_cols],
    )


def smith_normal_form(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form ``S = U A V`` with unimodular ``U, V``.

    Returns ``(S, U, V)`` as object-dtype arrays of Python ints; see
    :func:`smith_form` for the sparse form and the algorithm.
    """
    return smith_form(a).dense()


def integer_rank(a: np.ndarray) -> int:
    """Rank of an integer matrix (over Q), computed exactly via SNF."""
    if a.size == 0:
        return 0
    return smith_form(a).rank


def solve_integer(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``A x = b`` over the integers; return a solution or ``None``."""
    return smith_form(a).solve(b)


# ---------------------------------------------------------------------------
# Homology of complexes
# ---------------------------------------------------------------------------


def betti_numbers(k: SimplicialComplex, max_dim: Optional[int] = None) -> Tuple[int, ...]:
    """Betti numbers ``b_0, …, b_d`` over the rationals."""
    if not k:
        return ()
    basis = ChainBasis.of(k)
    top = k.dim if max_dim is None else min(max_dim, k.dim)
    # rank of ∂_d for d = 0 … top + 1, each computed once
    ranks = [
        integer_rank(boundary_matrix(basis, d)) if d > 0 and basis.dim_count(d) else 0
        for d in range(top + 2)
    ]
    return tuple(basis.dim_count(d) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def homology_torsion(k: SimplicialComplex, dim: int) -> Tuple[int, ...]:
    """Torsion coefficients of ``H_dim`` (invariant factors > 1)."""
    basis = ChainBasis.of(k)
    if basis.dim_count(dim + 1) == 0:
        return ()
    return tuple(d for d in smith_form(boundary_matrix(basis, dim + 1)).diagonal if d != 1)


def edge_chain(basis: ChainBasis, path: Sequence[Hashable]) -> np.ndarray:
    """The 1-chain of a vertex path, with orientation signs.

    ``path`` is a sequence of vertices; consecutive pairs must be edges of
    the complex.  A closed path yields a cycle.
    """
    vec = np.zeros(basis.dim_count(1), dtype=np.int64)
    edges = basis.by_dim[1] if len(basis.by_dim) > 1 else ()
    edge_index = basis.positions[1] if edges else {}
    for a, b in zip(path, path[1:]):
        if a == b:
            continue
        idx = edge_index.get(frozenset((a, b)))
        if idx is None:
            raise ValueError(f"{Simplex([a, b])!r} is not an edge of the complex")
        vec[idx] += 1 if edges[idx].sorted_vertices()[0] == a else -1
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
