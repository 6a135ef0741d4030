"""The majority-consensus pipeline in detail (Figure 1's full story).

The paper's Section 5.3 sketch: canonicalize, split, then the solo output
of P0 (deciding 0) ends up separated from the outputs available when the
other two processes start with 1.  These tests trace that structure
through the actual pipeline objects.
"""

import pytest

from repro.solvability import corollary_5_5
from repro.splitting import (
    link_connected_form,
    local_articulation_points,
)
from repro.tasks.canonical import canonicalize, split_product_vertex
from repro.topology.simplex import Simplex, Vertex, chrom


def _laps_per_facet(task):
    return {
        sigma: len(local_articulation_points(task, facet=sigma))
        for sigma in task.input_complex.facets
    }


@pytest.fixture(scope="module")
def pipeline(majority):
    return link_connected_form(majority)


class TestCanonicalMajority:
    def test_product_facet_count(self, majority):
        star = canonicalize(majority).task
        expected = sum(
            len(majority.delta(s).facets) for s in majority.input_complex.facets
        )
        assert len(star.output_complex.facets) == expected == 32

    def test_laps_concentrate_on_mixed_facets(self, majority):
        star = canonicalize(majority).task
        counts = _laps_per_facet(star)
        for facet, count in counts.items():
            values = {v.value for v in facet.vertices}
            if len(values) == 1:
                assert count == 0, f"uniform facet {facet!r} must be LAP-free"

    def test_mixed_facets_have_laps(self, majority):
        star = canonicalize(majority).task
        counts = _laps_per_facet(star)
        mixed = [
            f for f in counts if len({v.value for v in f.vertices}) == 2
        ]
        assert mixed
        assert any(counts[f] > 0 for f in mixed)


class TestSplitMajority:
    def test_split_count(self, pipeline):
        assert pipeline.n_splits == 42

    def test_projection_lands_in_original(self, pipeline, majority):
        originals = set(majority.output_complex.vertices)
        for v in pipeline.task.output_complex.vertices:
            assert pipeline.project_vertex(v) in originals

    def test_cor55_fires_on_a_mixed_facet(self, pipeline):
        witness = corollary_5_5(pipeline.task)
        assert witness is not None
        values = {split_product_vertex(v)[0].value if isinstance(v.value, tuple)
                  else v.value for v in witness.facet.vertices}
        assert len(values) == 2, "the obstruction lives on a mixed-input facet"

    def test_paper_narrative_facet(self, pipeline, majority):
        """For the input (P0=0, P1=1, P2=1): P0's solo output and the pair
        (P1, P2)'s outputs are separated in the split edge images."""
        task = pipeline.task
        sigma = next(
            f
            for f in task.input_complex.facets
            if [v.value for v in f.sorted_vertices()] == [0, 1, 1]
        )
        x0 = Simplex([sigma.vertex_of_color(0)])
        # P0's solo decisions all project to output value 0 in the original
        for v in task.delta(x0).vertices:
            original = pipeline.project_vertex(v)
            assert original.value == 0

    def test_no_laps_remain(self, pipeline):
        assert local_articulation_points(pipeline.task) == ()
