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
from typing import Dict, Hashable, List, Optional, Tuple

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
# isomorphic duplicates before deciding them.

#: renaming assignments explored before falling back to the exact text
ISO_SEARCH_CAP = 20_000


def task_text(task: Task) -> str:
    """Exact canonical text of a task: :func:`repro.topology.diskstore.task_text`.

    One text serves both the store keys (``diskstore.task_key`` hashes it)
    and the ``exact:`` fallback of :func:`iso_canonical_text`.
    """
    return diskstore.task_text(task)


def _facet_tuples(complex_: SimplicialComplex) -> List[Tuple[Tuple[int, Hashable], ...]]:
    """Facets as sorted ``(color, value)`` tuples (renaming-friendly form)."""
    out = []
    for f in complex_.facets:
        out.append(
            tuple(sorted(((v.color, v.value) for v in f.vertices), key=repr))
        )
    return out


def _refined_value_signatures(
    facets: List[Tuple[Tuple[int, Hashable], ...]]
) -> Dict[Tuple[int, Hashable], int]:
    """Renaming-invariant signature per ``(color, value)`` output vertex.

    Weisfeiler–Leman-style refinement over the facet hypergraph: a vertex's
    signature folds in the multiset of its facets' other-vertex signatures
    until the partition stabilizes.  Signatures depend only on structure —
    never on the values themselves — so any per-color value bijection maps
    equal-signature values to equal-signature values.
    """
    vertices = sorted({cv for f in facets for cv in f}, key=repr)
    incident: Dict[Tuple[int, Hashable], List[Tuple[Tuple[int, Hashable], ...]]] = {
        cv: [f for f in facets if cv in f] for cv in vertices
    }
    sig = {cv: 0 for cv in vertices}
    for _ in range(len(vertices)):
        raw = {
            cv: (
                sig[cv],
                tuple(
                    sorted(
                        tuple(sorted((oc, sig[(oc, ov)]) for oc, ov in f if (oc, ov) != cv))
                        for f in incident[cv]
                    )
                ),
            )
            for cv in vertices
        }
        ranks = {key: i for i, key in enumerate(sorted(set(raw.values()), key=repr))}
        new_sig = {cv: ranks[raw[cv]] for cv in vertices}
        if new_sig == sig:
            break
        sig = new_sig
    return sig


def iso_canonical_text(task: Task, cap: int = ISO_SEARCH_CAP) -> str:
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

    Candidates are filtered row by row: the ``out:`` row for every
    relabeling, then each Δ row only for the relabelings still tied for the
    least text so far.  Every candidate's rows carry the same fixed
    prefixes; the relabeled facet lists after them hold only digits,
    parentheses, commas, spaces and semicolons, all of which sort above the
    newline joining the rows.  So the least tuple of rows is exactly the
    least full text.
    """
    out_facets = _facet_tuples(task.output_complex)
    sig = _refined_value_signatures(out_facets)

    # per color: tie groups of values with equal signatures, in signature order
    by_color: Dict[int, Dict[int, List[Hashable]]] = {}
    for (color, value), s in sig.items():
        by_color.setdefault(color, {}).setdefault(s, []).append(value)
    groups: Dict[int, List[List[Hashable]]] = {
        color: [sorted(vals, key=repr) for _, vals in sorted(tiers.items())]
        for color, tiers in sorted(by_color.items())
    }
    n_assignments = 1
    for tiers in groups.values():
        for tier in tiers:
            n_assignments *= math.factorial(len(tier))
    if n_assignments > cap:
        return "exact:" + task_text(task)

    def relabel(
        mapping: Dict[Tuple[int, Hashable], int],
        facets: List[Tuple[Tuple[int, Hashable], ...]],
    ) -> str:
        rows = sorted(tuple(sorted((c, mapping[(c, v)]) for c, v in f)) for f in facets)
        return ";".join(repr(r) for r in rows)

    per_color_orders = [
        [
            list(itertools.chain.from_iterable(combo))
            for combo in itertools.product(
                *(itertools.permutations(tier) for tier in tiers)
            )
        ]
        for _, tiers in sorted(groups.items())
    ]
    colors = sorted(groups)
    # the out: row, streamed over every relabeling: keep only the least
    best_out: Optional[str] = None
    tied: List[Dict[Tuple[int, Hashable], int]] = []
    for orders in itertools.product(*per_color_orders):
        mapping = {
            (color, value): i
            for color, order in zip(colors, orders)
            for i, value in enumerate(order)
        }
        text = relabel(mapping, out_facets)
        if best_out is None or text < best_out:
            best_out, tied = text, [mapping]
        elif text == best_out:
            tied.append(mapping)

    rows = [f"in:{';'.join(repr(f) for f in task.input_complex.facets)}", f"out:{best_out}"]
    for s, image in sorted(task.delta.items(), key=lambda kv: kv[0].sort_key()):
        facets = _facet_tuples(image)
        texts = [relabel(mapping, facets) for mapping in tied]
        least = min(texts)
        if len(tied) > 1:
            tied = [m for m, text in zip(tied, texts) if text == least]
        rows.append(f"{s!r}=>{least}")
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
