"""Reference implementations: the parity oracle for generation and iso hashing.

Deliberately naive and independent of the fast paths they check:

* the three seeded generators build every complex through the closure
  constructor, re-closing picked faces and intersecting whole complexes,
  and validate against the full random output complex before shrinking
  it to the reachable part;
* the isomorphism text renders every signature-respecting relabeling in
  full and keeps the least.

``test_reference_parity.py`` checks the library against these answer for
answer.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Hashable, List, Optional, Tuple

from repro.tasks.canonical import (
    ISO_SEARCH_CAP,
    _facet_tuples,
    _refined_value_signatures,
    task_text,
)
from repro.tasks.task import Task, TaskError
from repro.tasks.zoo.builders import full_input_complex, single_facet_input
from repro.tasks.zoo.random_tasks import random_output_complex
from repro.topology.carrier import CarrierMap
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import Simplex


def _faces_with_ids(complex_: SimplicialComplex, ids: frozenset) -> SimplicialComplex:
    """The subcomplex of simplices whose color set is exactly ``ids``, closed."""
    picked = [s for s in complex_.simplices() if s.colors() == ids]
    return SimplicialComplex(picked)


def _sorted_facets(complex_: SimplicialComplex) -> List[Simplex]:
    return sorted(complex_.facets, key=Simplex.sort_key)


def random_single_input_task(
    seed: int, n_values: int = 3, n_facets: Optional[int] = None, image_size: int = 3
) -> Task:
    rng = random.Random(seed)
    inputs = single_facet_input(3, values=("x0", "x1", "x2"), name="I_random")
    for _ in range(200):
        outputs = random_output_complex(rng, n_values=n_values, n_facets=n_facets)
        pool = _sorted_facets(outputs)
        chosen = rng.sample(pool, min(image_size, len(pool)))
        image = SimplicialComplex(chosen)
        outputs = ChromaticComplex(image.facets, name="O_random")
        images: Dict[Simplex, SimplicialComplex] = {}
        for tau in inputs.simplices():
            images[tau] = _faces_with_ids(image, tau.colors())
        delta = CarrierMap(inputs, outputs, images, check=False)
        try:
            return Task(inputs, outputs, delta, name=f"random(seed={seed})")
        except TaskError:
            continue
    raise RuntimeError(f"could not generate a valid random task for seed {seed}")


def random_multi_facet_task(seed: int, n_values: int = 2, image_size: int = 2) -> Task:
    rng = random.Random(seed ^ 0xFACE7)
    inputs = full_input_complex(3, tuple(range(n_values)), name="I_multi")
    for _ in range(500):
        outputs = random_output_complex(rng, n_values=3, n_facets=6)
        pool = _sorted_facets(outputs)
        anchor = rng.choice(pool)
        facet_images: Dict[Simplex, List[Simplex]] = {}
        for sigma in inputs.facets:
            extra = rng.sample(pool, min(image_size - 1, len(pool)))
            facet_images[sigma] = [anchor] + extra
        images: Dict[Simplex, SimplicialComplex] = {}
        for tau in inputs.simplices():
            inter: Optional[SimplicialComplex] = None
            for sigma in inputs.facets:
                if not tau <= sigma:
                    continue
                proj = _faces_with_ids(
                    SimplicialComplex(facet_images[sigma]), tau.colors()
                )
                inter = proj if inter is None else inter.intersection(proj)
            images[tau] = inter if inter is not None else SimplicialComplex.empty()
        delta = CarrierMap(inputs, outputs, images, check=False)
        try:
            task = Task(inputs, outputs, delta, name=f"random-multi(seed={seed})")
            return task.restrict_to_reachable()
        except TaskError:
            continue
    raise RuntimeError(f"could not generate a multi-facet random task for seed {seed}")


def random_sparse_task(
    seed: int, n_values: int = 3, n_facets: Optional[int] = None, drop_edges: int = 2
) -> Task:
    if n_facets is None:
        n_facets = min(7, n_values**3)
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(200):
        base = random_single_input_task(
            rng.randrange(1 << 30), n_values=n_values, n_facets=n_facets
        )
        inputs = base.input_complex
        images: Dict[Simplex, SimplicialComplex] = {
            tau: base.delta(tau) for tau in inputs.simplices()
        }
        for tau in inputs.simplices(dim=1):
            img_facets: List[Simplex] = _sorted_facets(images[tau])
            rng.shuffle(img_facets)
            keep = img_facets[: max(1, len(img_facets) - drop_edges)]
            images[tau] = SimplicialComplex(keep)
        for x in inputs.simplices(dim=0):
            inter: Optional[SimplicialComplex] = None
            for e in inputs.simplices(dim=1):
                if x <= e:
                    proj = _faces_with_ids(images[e], x.colors())
                    inter = proj if inter is None else inter.intersection(proj)
            if inter is not None:
                images[x] = inter
        try:
            delta = CarrierMap(base.input_complex, base.output_complex, images, check=False)
            return Task(
                base.input_complex,
                base.output_complex,
                delta,
                name=f"random-sparse(seed={seed})",
            )
        except TaskError:
            continue
    raise RuntimeError(f"could not generate a sparse random task for seed {seed}")


def relabelings(
    task: Task, cap: int = ISO_SEARCH_CAP
) -> Optional[List[Dict[Tuple[int, Hashable], int]]]:
    """Every signature-respecting output relabeling, or ``None`` above ``cap``."""
    sig = _refined_value_signatures(_facet_tuples(task.output_complex))
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
        return None
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
    return [
        {
            (color, value): i
            for color, order in zip(colors, orders)
            for i, value in enumerate(order)
        }
        for orders in itertools.product(*per_color_orders)
    ]


def render(task: Task, mapping: Dict[Tuple[int, Hashable], int]) -> List[str]:
    """The rows of the full description under one relabeling."""

    def relabel(complex_: SimplicialComplex) -> str:
        rows = sorted(
            tuple(sorted((c, mapping[(c, v)]) for c, v in f))
            for f in _facet_tuples(complex_)
        )
        return ";".join(repr(r) for r in rows)

    body = [
        "in:" + ";".join(repr(f) for f in task.input_complex.facets),
        "out:" + relabel(task.output_complex),
    ]
    body.extend(
        f"{s!r}=>" + relabel(image)
        for s, image in sorted(task.delta.items(), key=lambda kv: kv[0].sort_key())
    )
    return body


def iso_canonical_text_exhaustive(task: Task, cap: int = ISO_SEARCH_CAP) -> str:
    """Render every signature-respecting relabeling in full; keep the least."""
    mappings = relabelings(task, cap)
    if mappings is None:
        return "exact:" + task_text(task)
    return "iso:" + min("\n".join(render(task, m)) for m in mappings)


def out_row_ties(task: Task) -> int:
    """How many relabelings share the least ``out:`` row (ties left for Δ rows)."""
    mappings = relabelings(task)
    assert mappings is not None, "task is above the search cap"
    rows = [render(task, m)[1] for m in mappings]
    return rows.count(min(rows))
