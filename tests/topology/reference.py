"""Brute-force reference kernels: the parity oracle for the topology kernels.

Deliberately naive and independent of the library's kernels: union-find
components, numpy GF(2) elimination, a plain BFS for distances and a dense
integer Smith normal form.  ``test_bitcore.py`` and ``test_smith.py``
check the library against these answer for answer.
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


def smith_normal_form(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense Smith normal form ``S = U A V`` with unimodular ``U, V``.

    The smallest-entry pivot rule on a whole object-dtype array: every
    pivot rescans the remaining submatrix.  Returns ``(S, U, V)``.
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


def solve_integer(
    a: np.ndarray,
    b: np.ndarray,
    snf: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Optional[np.ndarray]:
    """A solution of ``A x = b`` over the integers via the dense SNF, or ``None``.

    ``snf`` is ``smith_normal_form(a)`` when the caller already has it.
    """
    a = np.array(a, dtype=object)
    b = np.array(b, dtype=object).reshape(-1)
    if a.size == 0:
        return np.zeros(a.shape[1], dtype=object) if not b.any() else None
    s, u, v = smith_normal_form(a) if snf is None else snf
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
