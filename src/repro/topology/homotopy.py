"""Edge-path fundamental groups and budgeted contractibility.

The paper's second obstruction species is *contractibility*: a task can be
unsolvable because the boundary loop cannot be continuously collapsed in
the output complex — a question that is undecidable in general
(Gafni–Koutsoupias reduce task solvability to it).  This module makes the
obstruction concrete for finite 2-complexes:

* :func:`pi1_presentation` — the edge-path group presentation of ``π₁(K)``:
  one generator per non-spanning-tree edge, one relator per triangle
  (classical; see e.g. Stillwell, cited by the paper as [28]);
* :func:`loop_word` — the group word of an edge loop;
* :func:`is_null_homotopic` — a *budgeted* semi-decision: refute via
  integral homology (null-homotopic ⇒ null-homologous), certify via
  free/cyclic reduction plus Dehn-style relator cancellation, and answer
  ``None`` honestly when the budget runs out.

Everything here is exact; only the positive certification is incomplete
(as it must be).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .complexes import SimplicialComplex
from .homology import ChainBasis, bfs_forest, edge_chain, is_null_homologous
from .simplex import Simplex

Word = Tuple[int, ...]  # non-zero ints; +g / -g are a generator and inverse


def free_reduce(word: Sequence[int]) -> Word:
    """Cancel adjacent inverse pairs ``g g⁻¹``."""
    out: List[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    """Free reduction plus cancellation across the word's ends."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert(word: Sequence[int]) -> Word:
    return tuple(-letter for letter in reversed(word))


@dataclass(frozen=True)
class Presentation:
    """A finite presentation of the edge-path group of a complex."""

    complex: SimplicialComplex
    base: Hashable
    tree_edges: Tuple[Simplex, ...]
    generators: Tuple[Simplex, ...]  # non-tree edges, canonically oriented
    relators: Tuple[Word, ...]
    _edge_index: Dict[Tuple[Hashable, Hashable], int]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def edge_letter(self, a: Hashable, b: Hashable) -> Tuple[int, ...]:
        """The word of traversing edge ``{a, b}`` from ``a`` to ``b``.

        Empty for spanning-tree edges; a single signed letter otherwise.
        """
        if (a, b) not in self._edge_index:
            raise KeyError(f"({a!r}, {b!r}) is not an edge of the complex")
        g = self._edge_index[(a, b)]
        return (g,) if g else ()


def pi1_presentation(
    k: SimplicialComplex, base: Optional[Hashable] = None
) -> Presentation:
    """The edge-path presentation of ``π₁(K, base)``.

    ``K`` must be connected (restrict to a component first).  Generators
    are the edges outside a BFS spanning tree; each 2-simplex contributes
    the relator spelled by its boundary.
    """
    if not k.is_connected():
        raise ValueError("π₁ presentation requires a connected complex")
    vertices = list(k.vertices)
    if not vertices:
        raise ValueError("empty complex")
    if base is None:
        base = vertices[0]

    parent, _ = bfs_forest(k, [base])
    tree_pairs = {frozenset((w, p)) for w, p in parent.items() if p is not None}

    generators: List[Simplex] = []
    edge_index: Dict[Tuple[Hashable, Hashable], int] = {}
    for e in k.simplices(dim=1):
        a, b = e.sorted_vertices()
        if frozenset((a, b)) in tree_pairs:
            edge_index[(a, b)] = 0
            edge_index[(b, a)] = 0
        else:
            generators.append(e)
            idx = len(generators)  # 1-based
            edge_index[(a, b)] = idx
            edge_index[(b, a)] = -idx

    def letter(a, b) -> Tuple[int, ...]:
        idx = edge_index[(a, b)]
        return (idx,) if idx else ()

    relators: List[Word] = []
    for t in k.simplices(dim=2):
        x, y, z = t.sorted_vertices()
        word = free_reduce(letter(x, y) + letter(y, z) + letter(z, x))
        if word:
            relators.append(word)

    return Presentation(
        complex=k,
        base=base,
        tree_edges=tuple(
            sorted(
                (s for s in k.simplices(dim=1) if frozenset(s.vertices) in tree_pairs),
                key=Simplex.sort_key,
            )
        ),
        generators=tuple(generators),
        relators=tuple(relators),
        _edge_index=edge_index,
    )


def loop_word(presentation: Presentation, path: Sequence[Hashable]) -> Word:
    """The group word of a closed edge path."""
    if path[0] != path[-1]:
        raise ValueError("loop_word expects a closed path")
    word: List[int] = []
    for a, b in zip(path, path[1:]):
        if a == b:
            continue
        idx = presentation._edge_index.get((a, b))
        if idx is None:
            raise ValueError(f"({a!r}, {b!r}) is not an edge of the complex")
        if idx:
            word.append(idx)
    return free_reduce(word)


def _dehn_pass(word: Word, relator_bank: List[Word]) -> Optional[Word]:
    """One Dehn-style reduction: replace a long relator piece by the
    shorter complement.  Returns the shorter word or ``None``."""
    n = len(word)
    doubled = word + word  # search cyclically
    for rel in relator_bank:
        m = len(rel)
        if m == 0:
            continue
        take = m // 2 + 1  # strictly more than half
        for start in range(m):
            piece = tuple(rel[(start + t) % m] for t in range(take))
            complement = invert(tuple(rel[(start + take + t) % m] for t in range(m - take)))
            for pos in range(n):
                if tuple(doubled[pos : pos + take]) == piece:
                    rotated = doubled[pos:pos + n]
                    candidate = cyclic_reduce(
                        complement + tuple(rotated[take:])
                    )
                    if len(candidate) < n:
                        return candidate
    return None


def is_null_homotopic(
    k: SimplicialComplex,
    path: Sequence[Hashable],
    max_passes: int = 10_000,
) -> Optional[bool]:
    """Budgeted contractibility of a closed edge path in a 2-complex.

    Returns ``False`` when the loop is not even null-homologous over Z (a
    sound refutation), ``True`` when iterated free/cyclic reduction and
    Dehn cancellation empty the word (a sound certification), and ``None``
    when neither side concludes within the budget — the honest outcome for
    an undecidable problem.
    """
    if path[0] != path[-1]:
        raise ValueError("expected a closed path")
    basis = ChainBasis.of(k)
    cycle = edge_chain(basis, list(path))
    if not is_null_homologous(k, cycle, over="Z"):
        return False

    component = k.induced(k.component_of(path[0]))
    pres = pi1_presentation(component, base=path[0])
    if pres.rank == 0:
        return True
    word = cyclic_reduce(loop_word(pres, path))
    if not word:
        return True

    # relator bank: relators, inverses and all cyclic rotations
    bank: List[Word] = []
    for rel in pres.relators:
        for base_word in (rel, invert(rel)):
            for shift in range(len(base_word)):
                bank.append(base_word[shift:] + base_word[:shift])

    # stage 1: greedy Dehn shrinking (fast, handles small-cancellation shapes)
    for _ in range(max_passes):
        shorter = _dehn_pass(word, bank)
        if shorter is None:
            break
        word = shorter
        if not word:
            return True

    # stage 2: bounded BFS over relator insertions (handles substitutions
    # that do not strictly shorten, e.g. rewriting a generator via g·h⁻¹
    # relators); sound, budgeted, may return None
    return _bounded_bfs(word, bank, max_states=max_passes)


def _bounded_bfs(
    word: Word, relator_bank: List[Word], max_states: int
) -> Optional[bool]:
    from collections import deque

    if not word:
        return True
    max_len = len(word) + 2 * max((len(r) for r in relator_bank), default=0) + 2
    seen = {word}
    queue = deque([word])
    explored = 0
    while queue and explored < max_states:
        current = queue.popleft()
        explored += 1
        for rel in relator_bank:
            for pos in range(len(current) + 1):
                candidate = cyclic_reduce(current[:pos] + rel + current[pos:])
                if not candidate:
                    return True
                if len(candidate) <= max_len and candidate not in seen:
                    seen.add(candidate)
                    queue.append(candidate)
    return None
