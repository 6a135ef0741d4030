"""The paper's Figure 7 algorithm (Lemma 5.3).

Given a *link-connected* task ``T`` and a color-agnostic algorithm ``A_C``
(processes decide vertices of a common output simplex, but possibly of the
wrong color), the algorithm below produces a properly chromatic solution:
every process decides a vertex of its own color, all on one simplex of
``Δ(τ)`` for the participating set ``τ``.

The implementation follows the figure's numbered steps.  Three notes:

* step (13) re-scans ``M_in``: by the time two non-pivots negotiate, both
  their inputs are visible, so the fresh scan gives both the same ``τ``
  (the step-9 scan can be stale in the race where a slow process's input
  write lands between another's steps 9 and 11);
* the path ``Π`` is the shortest ``(v_i, v_j)``-path in the link whose
  *vertex-number set* is lexicographically smallest — a symmetric choice,
  so both non-pivots compute the same path, as the paper requires;
* step (10)'s guard is read as "if ``v_i`` is still unset" (the figure's
  ``≠ ⊥`` is a typo: the comment says "(7) was not executed").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

from ..tasks.task import Task
from ..topology.complexes import SimplicialComplex
from ..topology.homology import bfs_forest
from ..topology.simplex import Simplex, Vertex, vertex_sort_key

#: A color-agnostic sub-protocol: ``(pid, input_vertex) -> generator`` whose
#: return value is the decided (possibly wrongly-colored) output vertex.
AgnosticFactory = Callable[[int, Vertex], Generator]


def _vertex_numbering(output: SimplicialComplex) -> Dict[Vertex, int]:
    """The paper's "unique number for each vertex": canonical-order index."""
    return {v: k for k, v in enumerate(output.vertices)}


def _completion_candidates(
    task: Task, tau: Simplex, fixed: Tuple[Vertex, ...], pid: int
) -> List[Vertex]:
    """All own-colored vertices completing ``fixed`` inside ``Δ(τ)``."""
    image = task.delta(tau)
    return [
        v
        for v in image.vertices
        if v.color == pid and v not in fixed and Simplex(fixed + (v,)) in image
    ]


def first_completion(candidates: List[Vertex], pid: int) -> Vertex:
    """The default picker: the canonically smallest completion."""
    return candidates[0]


def spread_completion(candidates: List[Vertex], pid: int) -> Vertex:
    """An adversarial picker: processes pick from opposite ends.

    Used by benchmarks to place the two non-pivots as far apart as possible
    on the link, exhibiting the worst-case negotiation length of step (14).
    """
    return candidates[0] if pid % 2 else candidates[-1]


def _pick_completion(
    task: Task,
    tau: Simplex,
    fixed: Tuple[Vertex, ...],
    pid: int,
    picker: Callable[[List[Vertex], int], Vertex] = first_completion,
) -> Vertex:
    """An own-colored vertex completing ``fixed`` inside ``Δ(τ)``."""
    candidates = _completion_candidates(task, tau, fixed, pid)
    if not candidates:
        raise RuntimeError(
            f"no color-{pid} completion of {fixed!r} in Δ({tau!r}); "
            "is the task link-connected and Δ rigid?"
        )
    return picker(candidates, pid)


def _canonical_path(
    link: SimplicialComplex, a: Vertex, b: Vertex, numbering: Dict[Vertex, int]
) -> List[Vertex]:
    """Lexicographically-smallest shortest ``(a, b)``-path in a link graph.

    Identified, as in the paper, with the sorted set of vertex numbers, so
    both endpoints compute the same path.  Each vertex of a shortest path
    sits at its own distance from ``a``, so the vertex set determines the
    path and the minimum does not depend on enumeration order.  Raises
    :class:`ValueError` when no path joins ``a`` and ``b``.
    """
    _, dist = bfs_forest(link, [a] if a in link.vertices else [])
    if b not in dist:
        raise ValueError(f"no path joins {a!r} and {b!r} in the link")
    adj = link.adjacency()

    def paths_to(v: Vertex) -> Iterator[List[Vertex]]:
        # every predecessor on a shortest path sits one BFS layer closer to a
        if v == a:
            yield [a]
            return
        for u in adj[v]:
            if dist.get(u) == dist[v] - 1:
                for p in paths_to(u):
                    yield p + [v]

    return min(paths_to(b), key=lambda p: tuple(sorted(numbering[v] for v in p)))


def chromatic_agreement_process(
    task: Task,
    pid: int,
    input_vertex: Vertex,
    agnostic: AgnosticFactory,
    picker: Callable[[List[Vertex], int], Vertex] = first_completion,
) -> Generator[Tuple, Any, None]:
    """Process ``pid``'s code for the Figure 7 algorithm.

    A scheduler generator; the final operation is ``("decide", vertex)``
    with ``vertex`` an own-colored output vertex of ``task``.  ``picker``
    selects among the legal completions at steps (7b)/(10); correctness
    holds for any choice (the paper's proof does not constrain it), which
    the tests exercise with adversarial pickers.
    """
    numbering = _vertex_numbering(task.output_complex)

    def scan_tau(state) -> Simplex:
        return Simplex(x for x in state if x is not None)

    # (1) announce the input
    yield ("update", "M_in", input_vertex)

    # (2) run the color-agnostic algorithm
    y = yield from agnostic(pid, input_vertex)

    # (3) publish and view the agnostic decisions
    yield ("update", "M_cless", y)
    cless = yield ("scan", "M_cless")
    view_i = frozenset(v for v in cless if v is not None)

    # (4) second-level snapshot of views
    yield ("update", "M_snap", view_i)
    snaps = yield ("scan", "M_snap")
    views = [s for s in snaps if s]

    # (5) the core: minimal non-empty view (views are comparable)
    core = min(views, key=len)

    # (6) pivots decide immediately
    own = [v for v in core if v.color == pid]
    if own:
        yield ("decide", own[0])
        return

    v_i: Optional[Vertex] = None

    # (7) two-vertex core
    if len(core) == 2:
        u_star, w_star = sorted(core, key=vertex_sort_key)
        tau = scan_tau((yield ("scan", "M_in")))  # (7a): |τ| = 3 here
        v_i = _pick_completion(task, tau, (u_star, w_star), pid, picker)  # (7b)
        yield ("update", "M_decisions", (v_i, v_i, core))  # (7c)
        decisions = yield ("scan", "M_decisions")
        others = [
            d for j, d in enumerate(decisions) if j != pid and d is not None
        ]
        if not others:  # (7d)
            yield ("decide", v_i)
            return
        # (7e): the other writer's core is a singleton
        singletons = [d for d in others if len(d[2]) == 1]
        if not singletons:
            raise RuntimeError(
                "two non-pivots with two-vertex cores: views are not comparable?"
            )
        core = singletons[0][2]

    # (8) the single core vertex
    (v_star,) = core

    # (9) participating set
    tau = scan_tau((yield ("scan", "M_in")))  # |τ| >= 2

    # (10) pick an own-colored neighbor of v* if step (7) did not run
    if v_i is None:
        v_i = _pick_completion(task, tau, (v_star,), pid, picker)

    # (11) publish the proposal
    yield ("update", "M_decisions", (v_i, v_i, core))
    decisions = yield ("scan", "M_decisions")

    # (12) alone: decide
    others = {j: d for j, d in enumerate(decisions) if j != pid and d is not None}
    if not others:
        yield ("decide", v_i)
        return

    # (13) negotiate with the other non-pivot along a common link path
    ((j, entry),) = others.items()
    v_j, v, _ = entry
    tau = scan_tau((yield ("scan", "M_in")))  # fresh τ: both inputs visible now
    link = task.delta(tau).link(v_star)
    path = _canonical_path(link, v_i, v_j, numbering)

    v_prime = v_i
    # (14) jump toward the other's proposal until adjacent in the link
    while Simplex([v_prime, v]) not in link:
        # (14a): the neighbor of v on Π *on our side* — the proof's "inside
        # the sub-path of Π between their prior vertices".  Always stepping
        # toward the path's start instead livelocks once the two walkers
        # cross under tight alternation.
        idx_v = path.index(v)
        idx_own = path.index(v_prime)
        v_prime = path[idx_v - 1] if idx_own < idx_v else path[idx_v + 1]
        yield ("update", "M_decisions", (v_i, v_prime, core))  # (14b)
        decisions = yield ("scan", "M_decisions")
        v = decisions[j][1]  # (14c)

    # (15)
    yield ("decide", v_prime)


def make_chromatic_agreement_factories(
    task: Task,
    inputs: Simplex,
    agnostic: AgnosticFactory,
    picker: Callable[[List[Vertex], int], Vertex] = first_completion,
    check: bool = True,
) -> Dict[int, Callable[[int], Generator]]:
    """Process factories for all participants of an input simplex.

    Lemma 5.3's hypothesis is that the task is *link-connected*; with
    ``check`` (default) this is verified up front, since on a task with
    LAPs the step-(14) negotiation can start in two different link
    components and never meet.  Pass ``check=False`` on hot paths where the
    task is link-connected by construction (e.g. after the splitting
    pipeline).
    """
    if check:
        from ..splitting.lap import is_link_connected_task

        if not is_link_connected_task(task):
            raise ValueError(
                "the Figure 7 algorithm requires a link-connected task; "
                "run repro.splitting.link_connected_form first"
            )
    factories: Dict[int, Callable[[int], Generator]] = {}
    for x in inputs.vertices:
        def make(x_vertex: Vertex):
            def factory(pid: int) -> Generator:
                assert pid == x_vertex.color
                return chromatic_agreement_process(
                    task, pid, x_vertex, agnostic, picker
                )

            return factory

        factories[x.color] = make(x)
    return factories
