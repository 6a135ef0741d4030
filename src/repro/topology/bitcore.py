"""Bit-packed combinatorial kernels for the hot topology queries.

The decision pipeline spends most of its time answering the same three
kinds of questions over and over: *is this complex connected*, *what are
the components of this vertex link*, and *does this GF(2)/integer system
have a solution*.  Answering them by materializing link subcomplexes
and graph objects is correct, but allocation-heavy.

This module packs the 1- and 2-skeleton of a complex into Python integers
(one bit per vertex of an interned vertex universe) and answers the same
queries with bitwise arithmetic:

* :class:`BitComplex` — adjacency masks for the 1-skeleton plus the
  triangle list, supporting connectivity, components and per-vertex link
  components without constructing a single new simplex;
* :func:`gf2_rank` / :func:`gf2_solve` — GF(2) Gaussian elimination where
  each matrix row is one integer and row updates are single XORs.

The kernels are exposed *behind* the existing
:class:`~repro.topology.complexes.SimplicialComplex` and
:mod:`~repro.topology.homology` APIs, which call them unconditionally.
``tests/topology/test_bitcore.py`` checks them against a small
brute-force reference (union-find, numpy elimination, BFS) on a seeded
random population.

Determinism: vertex bit indices follow the complex's canonical vertex
order, so component masks decoded lowest-bit-first come out ordered by
their minimal ``vertex_sort_key``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple


class BitComplex:
    """The 1- and 2-skeleton of a complex as packed integer bitsets.

    ``verts`` is the canonical vertex tuple of the source complex; vertex
    ``verts[i]`` owns bit ``1 << i``.  ``adj[i]`` is the neighbor mask of
    vertex ``i`` in the 1-skeleton, and ``tris`` lists every 2-simplex as
    an index triple.  Those two structures answer every connectivity and
    link-connectivity query the solvability pipeline asks, because a
    complex is connected iff its 1-skeleton is, and the 1-skeleton of
    ``link(v)`` is exactly the pairs completed to a triangle by ``v``
    (downward closure guarantees those triangles are present for faces of
    higher simplices too).
    """

    __slots__ = ("verts", "index", "n", "full", "adj", "tris", "_ladj")

    def __init__(
        self,
        verts: Tuple[Hashable, ...],
        adj: List[int],
        tris: List[Tuple[int, int, int]],
    ) -> None:
        self.verts = verts
        self.index: Dict[Hashable, int] = {v: i for i, v in enumerate(verts)}
        self.n = len(verts)
        self.full = (1 << self.n) - 1
        self.adj = adj
        self.tris = tris
        #: vertex index -> {link-vertex index: link-neighbor mask}, lazy
        self._ladj: Optional[Dict[int, Dict[int, int]]] = None

    @classmethod
    def from_complex(cls, k) -> "BitComplex":
        """Pack a :class:`SimplicialComplex`'s 1- and 2-skeleton.

        One pass over the simplex set; no simplices are constructed and no
        ordering work is done beyond the complex's own canonical vertex
        tuple.
        """
        verts = k.vertices
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        tris: List[Tuple[int, int, int]] = []
        for s in k._simplices:
            size = len(s.vertices)
            if size == 2:
                a, b = s.vertices
                ia, ib = index[a], index[b]
                adj[ia] |= 1 << ib
                adj[ib] |= 1 << ia
            elif size == 3:
                it = iter(s.vertices)
                tris.append((index[next(it)], index[next(it)], index[next(it)]))
        return cls(verts, adj, tris)

    # -- connectivity ------------------------------------------------------

    def _flood(self, start: int, adj: List[int]) -> int:
        """Bitset BFS: the component mask containing the ``start`` bits."""
        comp = start
        frontier = start
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        return comp

    def component_masks(self) -> Tuple[int, ...]:
        """Connected components of the 1-skeleton as bit masks.

        Ordered by lowest member bit, which (bits following canonical
        vertex order) is the order by minimal vertex sort key.
        """
        remaining = self.full
        out: List[int] = []
        while remaining:
            comp = self._flood(remaining & -remaining, self.adj)
            out.append(comp)
            remaining &= ~comp
        return tuple(out)

    def is_connected(self) -> bool:
        """1-skeleton connectivity; the empty complex counts as connected."""
        if not self.n:
            return True
        return self._flood(1, self.adj) == self.full

    def connected_components(self) -> Tuple[FrozenSet[Hashable], ...]:
        """Component vertex sets, decoded, in canonical order."""
        return tuple(self._decode_mask(m) for m in self.component_masks())

    def shortest_path(self, start: Hashable, end: Hashable) -> Optional[List[Hashable]]:
        """A shortest 1-skeleton path as vertex objects, or ``None``.

        Breadth-first over the adjacency masks with per-level parent
        assignment; absent endpoints and disconnected pairs both return
        ``None``.  Paths are deterministic (lowest-bit-first expansion in
        canonical vertex order).
        """
        si = self.index.get(start)
        ti = self.index.get(end)
        if si is None or ti is None:
            return None
        if si == ti:
            return [start]
        adj = self.adj
        target = 1 << ti
        parent: Dict[int, int] = {}
        seen = 1 << si
        frontier = seen
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                i = low.bit_length() - 1
                new = adj[i] & ~seen & ~reach
                reach |= new
                while new:
                    nlow = new & -new
                    new ^= nlow
                    parent[nlow.bit_length() - 1] = i
                if reach & target:
                    path_idx = [ti]
                    while path_idx[-1] != si:
                        path_idx.append(parent[path_idx[-1]])
                    verts = self.verts
                    return [verts[i] for i in reversed(path_idx)]
            frontier = reach
            seen |= reach
        return None

    # -- links -------------------------------------------------------------

    def _link_adjacency(self) -> Dict[int, Dict[int, int]]:
        """Per-vertex adjacency of the link 1-skeleton, built once.

        For every triangle ``{i, j, k}`` the link of ``i`` gains the edge
        ``{j, k}`` (and symmetrically); edges of the complex contribute the
        link *vertices*, which are just ``adj[i]``.
        """
        ladj = self._ladj
        if ladj is None:
            ladj = {}
            for i, j, k in self.tris:
                for center, a, b in ((i, j, k), (j, i, k), (k, i, j)):
                    bucket = ladj.get(center)
                    if bucket is None:
                        bucket = ladj[center] = {}
                    bucket[a] = bucket.get(a, 0) | (1 << b)
                    bucket[b] = bucket.get(b, 0) | (1 << a)
            self._ladj = ladj
        return ladj

    def link_component_masks(self, v: Hashable) -> Tuple[int, ...]:
        """Components of ``link(v)`` as masks over the vertex universe."""
        i = self.index.get(v)
        if i is None:
            return ()
        nbrs = self.adj[i]
        if not nbrs:
            return ()
        bucket = self._link_adjacency().get(i, {})
        out: List[int] = []
        remaining = nbrs
        while remaining:
            start = remaining & -remaining
            comp = start
            frontier = start
            while frontier:
                reach = 0
                f = frontier
                while f:
                    low = f & -f
                    f ^= low
                    reach |= bucket.get(low.bit_length() - 1, 0)
                frontier = reach & ~comp
                comp |= frontier
            out.append(comp)
            remaining &= ~comp
        return tuple(out)

    def link_components(self, v: Hashable) -> Tuple[FrozenSet[Hashable], ...]:
        """Component vertex sets of ``link(v)``, decoded, canonical order."""
        return tuple(self._decode_mask(m) for m in self.link_component_masks(v))

    def is_link_connected(self) -> bool:
        """Every vertex link connected (empty links count as connected)."""
        return all(len(self.link_component_masks(v)) <= 1 for v in self.verts)

    # -- decoding ----------------------------------------------------------

    def members(self, mask: int) -> Tuple[Hashable, ...]:
        """The vertices of a bit mask, lowest bit (canonical order) first."""
        verts = self.verts
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(verts[low.bit_length() - 1])
        return tuple(out)

    def _decode_mask(self, mask: int) -> FrozenSet[Hashable]:
        """Decode a bit mask back to a frozenset of vertex objects."""
        return frozenset(self.members(mask))


# ---------------------------------------------------------------------------
# GF(2) linear algebra on integer-packed rows
# ---------------------------------------------------------------------------


def pack_rows(matrix) -> List[int]:
    """Pack a (numpy or nested-sequence) 0/1-reducible matrix into int rows.

    Bit ``j`` of row ``i`` is ``matrix[i][j] mod 2``; the packed form is
    what :func:`gf2_rank` and :func:`gf2_solve` operate on.
    """
    rows: List[int] = []
    for row in matrix:
        bits = 0
        for j, value in enumerate(row):
            if int(value) & 1:
                bits |= 1 << j
        rows.append(bits)
    return rows


def gf2_rank(rows: List[int]) -> int:
    """Rank over GF(2) of integer-packed rows (single-XOR row updates).

    Maintains a basis keyed by leading-bit position; each incoming row is
    reduced until it is zero (dependent) or lands on an unused leading bit
    (independent).  Reduction strictly decreases the leading bit, so the
    inner loop terminates and the basis rows stay independent.
    """
    basis: Dict[int, int] = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = cur
                rank += 1
                break
            cur ^= pivot
    return rank


def gf2_solve(rows: List[int], rhs: List[int], ncols: int) -> Optional[int]:
    """Solve ``A x = b`` over GF(2); returns a solution bitmask or ``None``.

    ``rows`` are the packed rows of ``A``; ``rhs[i]`` is the parity of
    ``b[i]``.  The returned integer has bit ``j`` set iff ``x_j = 1``.
    """
    flag = 1 << ncols
    aug = [row | (flag if b & 1 else 0) for row, b in zip(rows, rhs)]
    nrows = len(aug)
    rank = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        bit = 1 << col
        pivot_row = None
        for r in range(rank, nrows):
            if aug[r] & bit:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        prow = aug[rank]
        for r in range(nrows):
            if r != rank and aug[r] & bit:
                aug[r] ^= prow
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, nrows):
        if aug[r] & flag:
            return None
    x = 0
    for r, col in pivots:
        if aug[r] & flag:
            x |= 1 << col
    return x


__all__ = [
    "BitComplex",
    "gf2_rank",
    "gf2_solve",
    "pack_rows",
]
