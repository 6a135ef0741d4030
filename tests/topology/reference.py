"""Brute-force reference kernels: the parity oracle for ``repro.topology.bitcore``.

Deliberately naive and independent of the packed kernels: union-find
components, numpy GF(2) elimination and a plain BFS for distances.
``test_bitcore.py`` checks the library against these answer for answer.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import vertex_sort_key


def components(k: SimplicialComplex) -> Tuple[FrozenSet[Hashable], ...]:
    """Components of the 1-skeleton by union-find, ordered by minimal vertex."""
    parent: Dict[Hashable, Hashable] = {v: v for v in k.vertices}

    def find(x: Hashable) -> Hashable:
        while parent[x] != x:
            x = parent[x]
        return x

    for e in k.simplices(dim=1):
        a, b = e.sorted_vertices()
        parent[find(a)] = find(b)
    groups: Dict[Hashable, set] = {}
    for v in k.vertices:
        groups.setdefault(find(v), set()).add(v)
    comps = [frozenset(g) for g in groups.values()]
    comps.sort(key=lambda c: min(vertex_sort_key(v) for v in c))
    return tuple(comps)


def is_connected(k: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton; the empty complex counts as connected."""
    return len(components(k)) <= 1


def link_components(k: SimplicialComplex, v: Hashable) -> Tuple[FrozenSet[Hashable], ...]:
    """Components of the link of ``v``, built as an explicit subcomplex."""
    return components(k.link(v))


def bfs_distances(k: SimplicialComplex, start: Hashable) -> Dict[Hashable, int]:
    """Edge distance from ``start`` to every vertex it reaches."""
    nbrs: Dict[Hashable, List[Hashable]] = {v: [] for v in k.vertices}
    for e in k.simplices(dim=1):
        a, b = e.sorted_vertices()
        nbrs[a].append(b)
        nbrs[b].append(a)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _eliminate_mod2(aug: np.ndarray, cols: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Gauss-Jordan over GF(2) on the first ``cols`` columns, in place."""
    rows = aug.shape[0]
    pivots: List[Tuple[int, int]] = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if aug[r, col]), None)
        if pivot is None:
            continue
        aug[[rank, pivot]] = aug[[pivot, rank]]
        for r in range(rows):
            if r != rank and aug[r, col]:
                aug[r] ^= aug[rank]
        pivots.append((rank, col))
        rank += 1
    return rank, pivots


def rank_mod2(a: np.ndarray) -> int:
    """Rank over GF(2) by dense numpy elimination."""
    m = (np.array(a, dtype=np.int64) % 2).astype(np.uint8)
    return _eliminate_mod2(m, m.shape[1])[0]


def solve_mod2(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """A solution of ``A x = b`` over GF(2), or ``None``."""
    a2 = (np.array(a, dtype=np.int64) % 2).astype(np.uint8)
    b2 = (np.array(b, dtype=np.int64) % 2).astype(np.uint8).reshape(-1, 1)
    cols = a2.shape[1]
    aug = np.concatenate([a2, b2], axis=1)
    rank, pivots = _eliminate_mod2(aug, cols)
    if aug[rank:, cols].any():
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, c in pivots:
        x[c] = aug[r, cols]
    return x
