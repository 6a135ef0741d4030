"""Decidable impossibility obstructions (Section 5.3 and homology).

Three sound checks for *un*-solvability, plus the complete two-process
characterization:

* :func:`corollary_5_5` — some input facet has two vertices whose possible
  outputs cannot be joined, within the shared edge's image, by a path that
  does not *cross* a local articulation point.
* :func:`corollary_5_6` — for a single-triangle input complex, every cycle
  in ``Δ(Skel¹ I)`` crosses a LAP (the crossing-free graph is a forest).
* :func:`homological_obstruction` — no choice of solo decisions and
  connecting paths makes the boundary loop null-homologous in ``Δ(σ)``
  over Z; a computable *necessary* condition for the continuous map of
  Theorem 5.1 (null-homotopic implies null-homologous).
* :func:`two_process_solvable` — Proposition 5.4, decided exactly via a
  component-consistency CSP.

"Crossing" a LAP ``y`` means visiting ``w1, y, w2`` with ``w1`` and ``w2``
in different connected components of ``lk_{Δ(σ)}(y)``; the checks realize
this by locally splitting every LAP into per-component copies and asking
graph questions in the split graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from ..splitting.lap import LocalArticulationPoint, local_articulation_points
from ..tasks.task import Task
from ..topology.complexes import SimplicialComplex
from ..topology.homology import (
    ChainBasis,
    SmithForm,
    boundary_matrix,
    cycle_space_generators,
    edge_chain,
    smith_form,
)
from ..topology.simplex import Simplex, Vertex


@dataclass(frozen=True)
class ObstructionWitness:
    """Evidence that a task is unsolvable, for reporting."""

    kind: str
    facet: Optional[Simplex] = None
    detail: str = ""

    def __repr__(self) -> str:
        loc = f" at {self.facet!r}" if self.facet is not None else ""
        return f"Obstruction[{self.kind}{loc}: {self.detail}]"


# ---------------------------------------------------------------------------
# LAP-aware split graphs
# ---------------------------------------------------------------------------


class _SplitGraph:
    """Plain-dict graph built by :func:`_lap_split_graph`.

    The obstruction checks only need reachability and a forest test, both
    cheap on adjacency sets.
    """

    __slots__ = ("adj", "edges")

    def __init__(self) -> None:
        self.adj: Dict[Hashable, set] = {}
        self.edges: List[Tuple[Hashable, Hashable]] = []

    def add_node(self, node: Hashable) -> None:
        if node not in self.adj:
            self.adj[node] = set()

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        self.add_node(a)
        self.add_node(b)
        if b not in self.adj[a]:
            self.edges.append((a, b))
        self.adj[a].add(b)
        self.adj[b].add(a)

    def has_path(self, start: Hashable, end: Hashable) -> bool:
        if start == end:
            return True
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: List[Hashable] = []
            for u in frontier:
                for w in self.adj[u]:
                    if w == end:
                        return True
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return False

    def has_cycle(self) -> bool:
        # union-find over the (deduplicated) edge list
        parent: Dict[Hashable, Hashable] = {}

        def find(x: Hashable) -> Hashable:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return True
            parent[ra] = rb
        return False


def _lap_split_graph(
    complex_: SimplicialComplex,
    laps: Dict[Vertex, LocalArticulationPoint],
) -> Tuple[_SplitGraph, Dict[Vertex, List]]:
    """The 1-skeleton of ``complex_`` with each LAP split per link component.

    Nodes are either plain vertices or ``(vertex, component_index)`` copies.
    An edge ``{y, z}`` with ``y`` a LAP attaches ``z`` to the copy of ``y``
    whose component contains ``z``.  Paths in this graph are exactly the
    paths of ``complex_`` that never *cross* a LAP.
    """
    g = _SplitGraph()
    copies: Dict[Vertex, List] = {}
    for v in complex_.vertices:
        if v in laps:
            copies[v] = [(v, i) for i in range(laps[v].n_components)]
        else:
            copies[v] = [v]
        for node in copies[v]:
            g.add_node(node)

    def node_for(y: Vertex, other: Vertex):
        if y not in laps:
            return y
        return (y, laps[y].component_of(other))

    for e in complex_.simplices(dim=1):
        a, b = e.sorted_vertices()
        g.add_edge(node_for(a, b), node_for(b, a))
    return g, copies


def empty_image_obstruction(task: Task) -> Optional[ObstructionWitness]:
    """An input simplex with no legal outputs at all.

    Raw tasks reject this at validation, but the splitting pipeline can
    legitimately produce it: when a LAP's copies have no link component
    common to all the edges around a solo input, monotonization empties
    that solo image — which, by Lemma 4.2's forward direction, certifies
    the *original* task unsolvable (any protocol's solo decision would
    have to sit in every incident edge's component simultaneously).
    """
    for s, img in task.delta.items():
        if not img:
            return ObstructionWitness(
                kind="empty-image",
                facet=s,
                detail="no legal output remains after splitting and monotonization",
            )
    return None


def corollary_5_5(task: Task) -> Optional[ObstructionWitness]:
    """Check the Corollary 5.5 obstruction; return a witness or ``None``.

    Unsolvable if some input facet ``σ`` has two vertices ``x, x'`` such
    that *every* pair of candidate outputs ``y ∈ Δ(x)``, ``y' ∈ Δ(x')`` is
    separated in ``Δ(x, x')`` once LAP crossings are forbidden.
    """
    for sigma in task.input_complex.facets:
        laps = {
            l.vertex: l for l in local_articulation_points(task, facet=sigma)
        }
        for x, xp in itertools.combinations(sigma.sorted_vertices(), 2):
            edge = Simplex([x, xp])
            if edge not in task.input_complex:
                continue
            image = task.delta(edge)
            graph, copies = _lap_split_graph(image, laps)
            ys = set(task.delta(Simplex([x])).vertices)
            yps = set(task.delta(Simplex([xp])).vertices)
            connected = False
            for y in ys:
                for yp in yps:
                    if y not in copies or yp not in copies:
                        continue
                    if any(
                        graph.has_path(cy, cyp)
                        for cy in copies[y]
                        for cyp in copies[yp]
                    ):
                        connected = True
                        break
                if connected:
                    break
            if not connected:
                return ObstructionWitness(
                    kind="corollary-5.5",
                    facet=sigma,
                    detail=(
                        f"no LAP-free path joins any outputs of {x!r} and {xp!r} "
                        f"inside Δ({edge!r})"
                    ),
                )
    return None


def corollary_5_6(task: Task) -> Optional[ObstructionWitness]:
    """Check the Corollary 5.6 obstruction (single-triangle inputs only).

    Unsolvable if every cycle of ``Δ(Skel¹ I)`` crosses a LAP — i.e. the
    LAP-split graph of the union of the three edge images is a forest.
    Returns ``None`` (no conclusion) for tasks with several input facets.
    """
    if len(task.input_complex.facets) != 1:
        return None
    sigma = task.input_complex.facets[0]
    if sigma.dim != 2:
        return None
    laps = {l.vertex: l for l in local_articulation_points(task, facet=sigma)}
    skel_image = task.delta.union_image(
        Simplex(pair) for pair in itertools.combinations(sigma.sorted_vertices(), 2)
    )
    graph, _ = _lap_split_graph(skel_image, laps)
    if len(graph.edges) >= len(graph.adj) or graph.has_cycle():
        return None
    return ObstructionWitness(
        kind="corollary-5.6",
        facet=sigma,
        detail="every cycle of Δ(Skel¹ I) crosses a local articulation point",
    )


# ---------------------------------------------------------------------------
# Homological boundary obstruction
# ---------------------------------------------------------------------------


#: the input edges of a facet ``(x0, x1, x2)``, in boundary-loop order
_LOOP_EDGES = ((0, 1), (1, 2), (2, 0))


def boundary_loop_system(
    task: Task, sigma: Simplex
) -> Optional[Tuple[ChainBasis, np.ndarray, Dict[Tuple[int, int], SimplicialComplex]]]:
    """The integer system of the H1 boundary test on one input triangle.

    Returns ``(basis, matrix, edge_images)``: ``basis`` is the chain basis
    of ``Δ(σ)``, ``matrix`` is ``[∂₂ | free cycles]`` over its edge basis
    (the boundaries of ``Δ(σ)`` next to the integral cycles of every edge
    image, the freedom in choosing connecting paths), and ``edge_images``
    maps each pair of :data:`_LOOP_EDGES` to its ``Δ(edge)``.  ``None``
    when ``Δ(σ)`` has no edges.
    """
    verts = sigma.sorted_vertices()
    basis = ChainBasis.of(task.delta(sigma))
    if basis.dim_count(1) == 0:
        return None
    edge_images = {
        pair: task.delta(Simplex([verts[pair[0]], verts[pair[1]]]))
        for pair in _LOOP_EDGES
    }
    columns = [boundary_matrix(basis, 2)]
    for pair in _LOOP_EDGES:
        sub = edge_images[pair]
        cycles = cycle_space_generators(sub)
        sub_edges = ChainBasis.of(sub).by_dim[1] if cycles else ()
        for cyc in cycles:
            vec = np.zeros((basis.dim_count(1), 1), dtype=np.int64)
            for idx, e in enumerate(sub_edges):
                if cyc[idx]:
                    vec[basis.index(e), 0] = cyc[idx]
            columns.append(vec)
    return basis, np.concatenate(columns, axis=1), edge_images


def homological_obstruction(task: Task) -> Optional[ObstructionWitness]:
    """Check the H1 boundary obstruction on each input facet.

    For a facet ``σ = (x0, x1, x2)``: a continuous map carried by Δ sends
    each ``x_i`` to some ``y_i ∈ Δ(x_i)`` and each input edge to a path in
    the corresponding ``Δ(edge)``; the concatenated loop must bound in
    ``Δ(σ)``.  Path choices within ``Δ(edge)`` change the loop's class by
    integral cycles of ``Δ(edge)``, so for fixed ``y_i`` the question is an
    integer linear system (:func:`boundary_loop_system`), whose matrix does
    not depend on the ``y_i``: it is reduced to Smith normal form once per
    facet.  If no choice of ``y_i`` admits a solution, no continuous map
    exists and the task is unsolvable.
    """
    for sigma in task.input_complex.facets:
        if sigma.dim != 2:
            continue
        system = boundary_loop_system(task, sigma)
        if system is None:
            continue
        basis, matrix, edge_images = system
        candidates = [
            tuple(task.delta(Simplex([v])).vertices) for v in sigma.sorted_vertices()
        ]
        form: Optional[SmithForm] = None
        any_choice_works = False
        any_choice_connected = False
        for choice in itertools.product(*candidates):
            paths = {}
            ok = True
            for pair in _LOOP_EDGES:
                # the chosen path only changes the boundary loop by a cycle
                # of the edge image, which the integer system mods out —
                # any shortest path will do
                p = edge_images[pair]._bits().shortest_path(
                    choice[pair[0]], choice[pair[1]]
                )
                if p is None:
                    ok = False
                    break
                paths[pair] = p
            if not ok:
                continue
            any_choice_connected = True
            loop: List[Vertex] = []
            for pair in _LOOP_EDGES:
                loop.extend(paths[pair][:-1])
            loop.append(paths[_LOOP_EDGES[-1]][-1])
            if form is None:
                form = smith_form(matrix)
            if form.solve(edge_chain(basis, loop)) is not None:
                any_choice_works = True
                break
        if not any_choice_works:
            detail = (
                "no choice of solo outputs is path-connected in the edge images"
                if not any_choice_connected
                else "no boundary-loop choice bounds in Δ(σ) over Z"
            )
            return ObstructionWitness(
                kind="homological", facet=sigma, detail=detail
            )
    return None


# ---------------------------------------------------------------------------
# Two-process characterization (Proposition 5.4)
# ---------------------------------------------------------------------------


def two_process_solvable(task: Task) -> bool:
    """Decide a two-process task exactly (Proposition 5.4).

    A continuous map ``|I| → |O|`` carried by Δ exists iff each input
    vertex can be assigned an output vertex in its image such that, for
    every input edge, the two assigned outputs lie in one connected
    component of the edge's image.  The assignment CSP is solved by
    backtracking over the (tiny) input complex.
    """
    if task.input_complex.dim != 1:
        raise ValueError("two_process_solvable expects a 1-dimensional task")
    xs = list(task.input_complex.simplices(dim=0))
    edges = list(task.input_complex.simplices(dim=1))
    domains = {x: tuple(task.delta(x).vertices) for x in xs}
    components: Dict[Simplex, Tuple[FrozenSet, ...]] = {
        e: task.delta(e).connected_components() for e in edges
    }

    def comp_index(e: Simplex, y: Hashable) -> Optional[int]:
        for i, comp in enumerate(components[e]):
            if y in comp:
                return i
        return None

    assignment: Dict[Simplex, Hashable] = {}

    def consistent(x: Simplex, y: Hashable) -> bool:
        for e in edges:
            if x.vertices <= e.vertices:
                (other,) = [
                    Simplex([v]) for v in e.vertices if Simplex([v]) != x
                ]
                if other in assignment:
                    ci = comp_index(e, y)
                    cj = comp_index(e, assignment[other])
                    if ci is None or cj is None or ci != cj:
                        return False
                elif comp_index(e, y) is None:
                    return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(xs):
            return True
        x = xs[idx]
        for y in domains[x]:
            if consistent(x, y):
                assignment[x] = y
                if backtrack(idx + 1):
                    return True
                del assignment[x]
        return False

    return backtrack(0)
