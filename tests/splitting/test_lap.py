"""Unit tests for LAP detection."""

import pytest

from repro.splitting.lap import (
    is_link_connected_task,
    local_articulation_points,
)
from repro.tasks.zoo import hourglass_articulation_vertex, identity_task
from repro.topology.simplex import Vertex


def _laps_per_facet(task):
    return {
        sigma: len(local_articulation_points(task, facet=sigma))
        for sigma in task.input_complex.facets
    }


class TestDetection:
    def test_hourglass_single_lap(self, hourglass):
        laps = local_articulation_points(hourglass)
        assert len(laps) == 1
        (lap,) = laps
        assert lap.vertex == hourglass_articulation_vertex()
        assert lap.n_components == 2

    def test_hourglass_components_content(self, hourglass):
        (lap,) = local_articulation_points(hourglass)
        sizes = sorted(len(c) for c in lap.components)
        assert sizes == [2, 4]

    def test_component_of(self, hourglass):
        (lap,) = local_articulation_points(hourglass)
        b1 = Vertex(1, 1)
        idx = lap.component_of(b1)
        assert b1 in lap.components[idx]
        with pytest.raises(KeyError):
            lap.component_of(Vertex(0, 0))  # a0 is not in the waist's link

    def test_pinwheel_all_vertices(self, pinwheel):
        laps = local_articulation_points(pinwheel)
        assert len(laps) == 9
        assert all(l.n_components == 2 for l in laps)

    def test_identity_has_none(self, identity3):
        assert local_articulation_points(identity3) == ()

    def test_facet_restriction(self, majority):
        sigma = majority.input_complex.facets[0]
        per_facet = local_articulation_points(majority, facet=sigma)
        assert all(l.facet == sigma for l in per_facet)

    def test_repr(self, hourglass):
        (lap,) = local_articulation_points(hourglass)
        assert "LAP" in repr(lap)


class TestLinkConnectedPredicate:
    def test_identity_link_connected(self, identity3):
        assert is_link_connected_task(identity3)

    def test_hourglass_not(self, hourglass):
        assert not is_link_connected_task(hourglass)

    def test_pinwheel_not(self, pinwheel):
        assert not is_link_connected_task(pinwheel)


class TestCounting:
    def test_counts(self, hourglass):
        counts = _laps_per_facet(hourglass)
        assert sum(counts.values()) == 1

    def test_counts_identity(self, identity3):
        counts = _laps_per_facet(identity3)
        assert all(v == 0 for v in counts.values())

    def test_majority_has_laps_per_mixed_facet(self, majority):
        # LAPs are detected on the canonicalized task in the pipeline, but
        # the raw majority task also exhibits them on mixed-input facets
        counts = _laps_per_facet(majority)
        assert any(v > 0 for v in counts.values())
