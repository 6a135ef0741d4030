"""Canonical tasks (Section 3 of the paper).

A task is *canonical* when each output vertex is the image, under Δ, of a
unique input vertex, and more generally when the images of distinct input
simplices only overlap over their shared faces.  Canonical form is obtained
by the *chromatic product* construction: each process outputs its input in
addition to its decision, replacing every legal output simplex ``Y ∈ Δ(X)``
by the paired simplex ``X × Y``.

Theorem 3.1: ``T`` is solvable iff its canonical form ``T*`` is solvable.
The :class:`CanonicalForm` wrapper carries the projection map needed to
convert a protocol for ``T*`` back into one for ``T`` (and vice versa).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..topology import diskstore
from ..topology.carrier import CarrierMap
from ..topology.chromatic import ChromaticComplex
from ..topology.complexes import SimplicialComplex
from ..topology.maps import SimplicialMap
from ..topology.simplex import Simplex, Vertex
from .task import Task, TaskError


def chromatic_product_simplex(x: Simplex, y: Simplex) -> Simplex:
    """The paired simplex ``X × Y`` of two chromatic simplices with equal ids.

    The vertex of color ``i`` becomes ``(i, (x_i, y_i))``.
    """
    if x.colors() != y.colors():
        raise ValueError(f"cannot pair {x!r} with {y!r}: ids differ")
    verts = []
    for c in x.colors():
        u = x.vertex_of_color(c)
        v = y.vertex_of_color(c)
        verts.append(Vertex(c, (u.value, v.value)))
    return Simplex(verts)


def product_vertex(u: Vertex, v: Vertex) -> Vertex:
    """The product vertex ``(i, (x, y))`` of two same-colored vertices."""
    if u.color != v.color:
        raise ValueError(f"colors differ: {u!r} vs {v!r}")
    return Vertex(u.color, (u.value, v.value))


def split_product_vertex(w: Vertex) -> Tuple[Vertex, Vertex]:
    """Invert :func:`product_vertex`."""
    x_value, y_value = w.value
    return Vertex(w.color, x_value), Vertex(w.color, y_value)


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical task ``T*`` together with its relation to the original.

    Attributes
    ----------
    original:
        The task that was canonicalized.
    task:
        The canonical task ``T* = (I, O*, Δ*)``.
    projection:
        The chromatic simplicial map ``O* → O`` dropping the input
        coordinate; applying it to a protocol's decisions for ``T*`` yields
        decisions for ``T`` (the easy direction of Theorem 3.1).
    """

    original: Task
    task: Task
    projection: SimplicialMap

    def project_vertex(self, w: Vertex) -> Vertex:
        """Map an ``O*`` vertex back to the original output vertex."""
        return self.projection.vertex_image(w)

    def lift_decision(self, input_vertex: Vertex, output_vertex: Vertex) -> Vertex:
        """Map an original decision to the corresponding ``O*`` vertex."""
        return product_vertex(input_vertex, output_vertex)

    def preimage_input_vertex(self, w: Vertex) -> Vertex:
        """The unique input vertex ``x`` with ``w ∈ Δ*(x)`` (Claim 1)."""
        return unique_vertex_preimage(self.task, w)


def vertex_preimages(task: Task, w: Vertex) -> Tuple[Vertex, ...]:
    """All input vertices that can be credited with the output vertex ``w``.

    An input vertex ``x`` is a preimage of ``w`` when some input simplex
    ``τ`` containing ``x`` has ``w ∈ V(Δ(τ))`` and ``x`` is the vertex of
    ``τ`` matching ``w``'s color.  For canonical tasks this set is a
    singleton (Claim 1).
    """
    found = set()
    for tau, img in task.delta.items():
        if w not in set(img.vertices):
            continue
        try:
            found.add(tau.vertex_of_color(w.color))
        except KeyError:
            continue
    return tuple(sorted(found, key=lambda v: repr(v)))


def unique_vertex_preimage(task: Task, w: Vertex) -> Vertex:
    """The unique input vertex whose Δ-image accounts for ``w``.

    Well-defined exactly for canonical tasks (Claim 1 of the paper); raises
    :class:`TaskError` when the preimage is absent or ambiguous.
    """
    found = vertex_preimages(task, w)
    if len(found) != 1:
        raise TaskError(
            f"output vertex {w!r} has {len(found)} vertex preimages; task is not canonical"
        )
    return found[0]


def canonicalize(task: Task) -> CanonicalForm:
    """Compute the canonical form ``T*`` of a task (Section 3).

    ``O*`` is the subcomplex of the chromatic product ``I × O`` induced by
    all ``X × Y`` with ``Y ∈ Δ(X)``; ``Δ*(X) = { X × Y : Y ∈ Δ(X) }``.
    """
    images: Dict[Simplex, SimplicialComplex] = {}
    star_facets: List[Simplex] = []
    for x, img in task.delta.items():
        paired = []
        for y in img.facets:
            if y.colors() != x.colors():
                raise TaskError(
                    f"Δ({x!r}) contains {y!r} with mismatched ids; task is not chromatic"
                )
            paired.append(chromatic_product_simplex(x, y))
        images[x] = SimplicialComplex(paired)
        star_facets.extend(paired)
    output_star = ChromaticComplex(
        star_facets, name=f"{task.output_complex.name or 'O'}*"
    )
    delta_star = CarrierMap(task.input_complex, output_star, images, check=False)
    star = Task(
        task.input_complex,
        output_star,
        delta_star,
        name=f"{task.name or 'T'}*",
        check=False,
    )
    projection = SimplicialMap(
        output_star,
        task.output_complex,
        {w: split_product_vertex(w)[1] for w in output_star.vertices},
        check=False,
    )
    return CanonicalForm(original=task, task=star, projection=projection)


def is_canonical(task: Task) -> bool:
    """Whether a task already satisfies the canonical-form properties.

    Checked conditions:

    1. every reachable output vertex is accounted for by a *unique* input
       vertex (the vertex of matching color in any input simplex whose image
       contains it);
    2. distinct input facets have no common facet in their images ("no facet
       is in ``Δ*(σ1) ∩ Δ*(σ2)``", Section 3).
    """
    for w in task.reachable_outputs().vertices:
        if len(vertex_preimages(task, w)) != 1:
            return False
    facets = task.input_complex.facets
    for i, s1 in enumerate(facets):
        img1 = task.delta(s1)
        for s2 in facets[i + 1 :]:
            shared = {f for f in img1.facets} & {f for f in task.delta(s2).facets}
            if shared:
                return False
    return True


# ---------------------------------------------------------------------------
# Canonical text up to output-value renaming (isomorphism dedup)
# ---------------------------------------------------------------------------
#
# Two generated tasks that differ only by a per-color bijection of output
# values are the same task for every question the census asks (solvability
# is invariant under chromatic isomorphism of the output complex and Δ).
# ``iso_canonical_text`` computes a renaming-invariant canonical description:
# equal texts <=> the tasks are related by such a renaming.  The corpus
# pipeline hashes this text (via ``diskstore.content_hash``) to skip
# isomorphic duplicates before deciding them.  ``renaming_key`` is a cheaper
# key that is not renaming-invariant but is sound: below the search cap equal
# keys imply equal texts, so a shard can reuse a text's hash for every later
# task with its key.

#: renaming assignments explored before falling back to the exact text
ISO_SEARCH_CAP = 20_000


def task_text(task: Task) -> str:
    """Exact canonical text of a task: :func:`repro.topology.diskstore.task_text`.

    One text serves both the store keys (``diskstore.task_key`` hashes it)
    and the ``exact:`` fallback of :func:`iso_canonical_text`.
    """
    return diskstore.task_text(task)


#: facets of a complex as tuples of dense output-vertex ints, colour order
_Coded = List[Tuple[int, ...]]


def _coded(complex_: SimplicialComplex, index: Dict[Tuple[int, Hashable], int]) -> _Coded:
    """The facets of ``complex_`` as tuples of vertex ints, keyed by ``(colour, value)``."""
    return [
        tuple([index[v.color, v.value] for v in f.sorted_vertices()])
        for f in complex_.facets
    ]


def _refined_signatures(facets: _Coded, colour: List[int]) -> List[int]:
    """Renaming-invariant signature per output vertex (``colour[i]`` is vertex ``i``'s).

    Weisfeiler–Leman-style refinement over the facet hypergraph: a vertex's
    signature folds in the multiset of its facets' other-vertex
    ``(colour, signature)`` pairs until the partition stabilizes.
    Signatures depend only on structure, never on the values, so any
    per-colour value bijection maps equal-signature values to
    equal-signature values.  Ranks follow the ``repr`` order of the folded
    keys, as the committed ``canon_hash`` values were computed.
    """
    n = len(colour)
    incident: List[_Coded] = [[] for _ in range(n)]
    for f in facets:
        for v in f:
            incident[v].append(f)
    sig = [0] * n
    for _ in range(n):
        raw = [
            (
                sig[v],
                tuple(
                    sorted(
                        tuple(sorted((colour[u], sig[u]) for u in f if u != v))
                        for f in incident[v]
                    )
                ),
            )
            for v in range(n)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(raw), key=repr))}
        new_sig = [ranks[key] for key in raw]
        if new_sig == sig:
            break
        sig = new_sig
    return sig


def _render(labels: Tuple[int, ...], colour: List[int], facets: _Coded) -> str:
    """One row's facet list under a relabeling: sorted ``(colour, label)`` tuples."""
    rows = sorted(tuple(sorted((colour[v], labels[v]) for v in f)) for f in facets)
    return ";".join(repr(r) for r in rows)


def _keyed(facets: _Coded, colour: List[int], one_digit: bool) -> bool:
    """Whether a row's candidates may be compared by their label tuples.

    They may when every facet has the same colour set, each colour once,
    and every label is one digit.  Then each facet renders as the same
    fixed-width text with only the label digits varying, in colour order,
    so the text order of facets is the order of their label tuples, and
    the text order of rows (equally many facets each) is the order of
    their sorted label-tuple lists.
    """
    if not one_digit or not facets:
        return one_digit
    ids = [colour[v] for v in facets[0]]
    if len(set(ids)) != len(ids):
        return False
    return all([colour[v] for v in f] == ids for f in facets)


@dataclass(frozen=True)
class CodedTask:
    """A task's output vertices coded as dense ints, colour by colour.

    ``colour[i]`` is vertex ``i``'s colour; ``members`` holds each
    colour's vertex ints, a contiguous run, in colour order.  The facets
    of the output complex and of every Δ image (in input sort-key order)
    are tuples of those ints.  One coding serves both
    :func:`renaming_key` and :func:`iso_canonical_text`.
    """

    colour: List[int]
    members: List[range]
    out_facets: _Coded
    images: List[Tuple[Simplex, _Coded]]


def code_task(task: Task) -> CodedTask:
    """Code ``task``'s output vertices as ints, keyed by ``(colour, value)``."""
    by_colour: Dict[int, List[Vertex]] = {}
    for v in task.output_complex.vertices:
        by_colour.setdefault(v.color, []).append(v)
    index: Dict[Tuple[int, Hashable], int] = {}
    colour: List[int] = []
    members: List[range] = []
    for c in sorted(by_colour):
        first = len(colour)
        for v in by_colour[c]:
            index[c, v.value] = len(colour)
            colour.append(c)
        members.append(range(first, len(colour)))
    return CodedTask(
        colour,
        members,
        _coded(task.output_complex, index),
        [
            (s, _coded(image, index))
            for s, image in sorted(task.delta.items(), key=lambda kv: kv[0].sort_key())
        ],
    )


def renaming_key(task: Task, coded: CodedTask) -> Hashable:
    """``task`` rewritten under one deterministic per-colour relabeling.

    Each colour's values are labeled ``0..k-1`` in the order of a
    two-round degree profile (the vertex's facet count, then the sorted
    facet counts of its facet-mates), ties broken by the coded vertex
    order; a vertex is coded as ``(colour, label)``.  The key holds the
    input facets, the relabeled output facets and every ``(input simplex,
    relabeled Δ facets)`` pair, so equal keys mean both tasks are
    renamings of one labeled task: they are isomorphic, and their
    :func:`iso_canonical_text` agree whenever it is renaming-invariant
    (below the search cap).  The profile only decides how often
    isomorphs share a key, never whether sharing one is sound.
    """
    colour = coded.colour
    incident: List[_Coded] = [[] for _ in colour]
    for f in coded.out_facets:
        for v in f:
            incident[v].append(f)
    degree = [len(fs) for fs in incident]
    code: List[Tuple[int, int]] = [(0, 0)] * len(colour)
    for vs in coded.members:
        ranked = sorted(
            vs,
            key=lambda v: (degree[v], sorted([degree[u] for f in incident[v] for u in f if u != v]), v),
        )
        for label, v in enumerate(ranked):
            code[v] = (colour[v], label)

    def relabeled(facets: _Coded) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        return tuple(sorted([tuple([code[v] for v in f]) for f in facets]))

    return (
        tuple(task.input_complex.facets),
        relabeled(coded.out_facets),
        tuple([(s, relabeled(facets)) for s, facets in coded.images]),
    )


def iso_canonical_text(
    task: Task, cap: int = ISO_SEARCH_CAP, coded: Optional[CodedTask] = None
) -> str:
    """A canonical description of ``task`` up to per-color output-value renaming.

    Output values of each color are relabeled ``0..k-1``; among all
    signature-respecting relabelings the lexicographically smallest full
    description (input facets, relabeled output facets, relabeled Δ) is
    returned.  Equal texts exactly characterize isomorphic tasks (same
    input complex, outputs related by a per-color value bijection).

    Signature refinement prunes the search to bijections between
    structurally equivalent values; if the residual assignment count still
    exceeds ``cap`` (adversarially symmetric outputs), the *exact* text is
    returned instead — dedup degrades to exact-duplicate detection, never
    to unsound merging.

    Output vertices are coded as dense ints once, colour by colour, and a
    relabeling is a tuple of labels indexed by them.  Candidates are
    filtered row by row: the ``out:`` row for every relabeling, then each
    Δ row only for the relabelings still tied for the least row so far.
    Every candidate's rows carry the same fixed prefixes; the relabeled
    facet lists after them hold only digits, parentheses, commas, spaces
    and semicolons, all of which sort above the newline joining the rows.
    So the least tuple of rows is exactly the least full text.  A row
    whose candidates :func:`_keyed` admits is compared by label tuples,
    any other row by its rendered text; the text is rendered in full once,
    for the winning relabeling.  ``coded`` is the task's :func:`code_task`
    when the caller already has it.
    """
    if coded is None:
        coded = code_task(task)
    colour, members, out_facets = coded.colour, coded.members, coded.out_facets
    sig = _refined_signatures(out_facets, colour)

    # per colour: tie groups of vertices with equal signatures, in
    # signature order; a group's vertices share its block of labels
    tiers_by_colour: List[List[List[int]]] = []
    n_assignments = 1
    for vs in members:
        tiers: Dict[int, List[int]] = {}
        for v in vs:
            tiers.setdefault(sig[v], []).append(v)
        for tier in tiers.values():
            n_assignments *= math.factorial(len(tier))
        tiers_by_colour.append([tiers[s] for s in sorted(tiers)])
    if n_assignments > cap:
        return "exact:" + task_text(task)
    # each colour's relabelings, as label tuples over its run of vertex ints
    per_colour: List[List[Tuple[int, ...]]] = []
    for vs, tiers_ in zip(members, tiers_by_colour):
        labelings = []
        for combo in itertools.product(*(itertools.permutations(t) for t in tiers_)):
            labels = [0] * len(vs)
            for i, v in enumerate(itertools.chain.from_iterable(combo)):
                labels[v - vs.start] = i
            labelings.append(tuple(labels))
        per_colour.append(labelings)
    one_digit = all(len(vs) <= 10 for vs in members)

    def least(candidates: Iterable[Tuple[int, ...]], facets: _Coded) -> List[Tuple[int, ...]]:
        """The candidates whose row over ``facets`` is least, streamed."""
        keyed = _keyed(facets, colour, one_digit)
        best = None
        tied: List[Tuple[int, ...]] = []
        for labels in candidates:
            if keyed:
                key = tuple(sorted([tuple(map(labels.__getitem__, f)) for f in facets]))
            else:
                key = _render(labels, colour, facets)
            if best is None or key < best:
                best, tied = key, [labels]
            elif key == best:
                tied.append(labels)
        return tied

    # a relabeling of every colour at once: the runs concatenate
    tied = least(
        (tuple(itertools.chain.from_iterable(p)) for p in itertools.product(*per_colour)),
        out_facets,
    )
    for _, facets in coded.images:
        if len(tied) == 1:
            break
        tied = least(tied, facets)
    labels = tied[0]
    rows = [
        f"in:{';'.join(repr(f) for f in task.input_complex.facets)}",
        f"out:{_render(labels, colour, out_facets)}",
    ]
    rows.extend(f"{s!r}=>{_render(labels, colour, facets)}" for s, facets in coded.images)
    return "iso:" + "\n".join(rows)


def canonicalize_if_needed(task: Task) -> CanonicalForm:
    """Return a :class:`CanonicalForm`, reusing the task when already canonical.

    When the task is already canonical the wrapper's projection is the
    identity on output vertices, so downstream code can treat both cases
    uniformly.
    """
    if is_canonical(task):
        identity = SimplicialMap(
            task.output_complex,
            task.output_complex,
            {w: w for w in task.output_complex.vertices},
            check=False,
        )
        return CanonicalForm(original=task, task=task, projection=identity)
    return canonicalize(task)
