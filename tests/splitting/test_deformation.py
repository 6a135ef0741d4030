"""Unit tests for the splitting deformation (Section 4.1)."""

import pytest

from repro.splitting.deformation import (
    SplitValue,
    SplittingError,
    split_lap,
    unsplit_value,
    unsplit_vertex,
)
from repro.splitting.lap import local_articulation_points
from repro.tasks.canonical import is_canonical
from repro.tasks.zoo import hourglass_articulation_vertex, path_task
from repro.topology.simplex import Vertex


@pytest.fixture
def hourglass_split(hourglass):
    (lap,) = local_articulation_points(hourglass)
    return split_lap(hourglass, lap)


class TestSplitValues:
    def test_unsplit_value(self):
        assert unsplit_value(SplitValue("v", 1)) == "v"
        assert unsplit_value(SplitValue(SplitValue("v", 0), 2)) == "v"
        assert unsplit_value("plain") == "plain"

    def test_unsplit_vertex(self):
        v = Vertex(1, SplitValue("x", 0))
        assert unsplit_vertex(v) == Vertex(1, "x")

    def test_repr(self):
        assert repr(SplitValue("x", 2)) == "'x'/2"


class TestHourglassSplit:
    def test_copies_created(self, hourglass_split):
        assert len(hourglass_split.copies) == 2
        y = hourglass_articulation_vertex()
        assert all(c.color == y.color for c in hourglass_split.copies)
        assert all(unsplit_vertex(c) == y for c in hourglass_split.copies)

    def test_original_vertex_gone(self, hourglass_split):
        y = hourglass_articulation_vertex()
        assert y not in set(hourglass_split.after.output_complex.vertices)

    def test_output_disconnects(self, hourglass_split):
        comps = hourglass_split.after.output_complex.connected_components()
        assert len(comps) == 2

    def test_facet_count_preserved(self, hourglass, hourglass_split):
        # the five triangles survive, with y replaced by its copies
        assert len(hourglass_split.after.output_complex.facets) == len(
            hourglass.output_complex.facets
        )

    def test_still_valid_task(self, hourglass_split):
        hourglass_split.after.validate()

    def test_still_canonical(self, hourglass_split):
        # Claim 1: splitting preserves canonicity
        assert is_canonical(hourglass_split.after)

    def test_lap_eliminated(self, hourglass_split):
        # Lemma 4.1: y is gone and no new LAP w.r.t. σ was created
        assert local_articulation_points(hourglass_split.after) == ()

    def test_project_vertex(self, hourglass_split):
        y = hourglass_articulation_vertex()
        for c in hourglass_split.copies:
            assert hourglass_split.project_vertex(c) == y
        other = Vertex(1, 0)
        assert hourglass_split.project_vertex(other) == other

    def test_edge_images_use_component_copy(self, hourglass, hourglass_split):
        # Δ_y on σ-faces replaces y by the copy of the matching component
        (lap,) = local_articulation_points(hourglass)
        e01 = [e for e in hourglass.input_complex.simplices(dim=1)
               if e.colors() == frozenset({0, 1})][0]
        img = hourglass_split.after.delta(e01)
        copies_present = {
            v for v in img.vertices if isinstance(v.value, SplitValue)
        }
        # the path a0-b1-a1-b0 crosses the waist: both copies appear, each
        # adjacent only to its own component's neighbors
        assert len(copies_present) == 2
        for c in copies_present:
            neighbors = img.link(c).vertices
            comp = lap.components[c.value.branch]
            assert all(nb in comp for nb in neighbors)

    def test_solo_images_pruned_to_consistency(self, hourglass_split):
        # monotonicity restored at the vertex level
        assert hourglass_split.after.delta.is_monotonic()


class TestGuards:
    def test_requires_three_processes(self):
        t = path_task(3)
        fake = None
        with pytest.raises(SplittingError):
            split_lap(t, fake)

    def test_requires_canonical(self, figure3):
        laps = local_articulation_points(figure3)
        # figure3 is not canonical; if it had LAPs, splitting must refuse.
        from repro.splitting.lap import LocalArticulationPoint

        sigma = figure3.input_complex.facets[0]
        dummy = LocalArticulationPoint(
            vertex=figure3.output_complex.vertices[0],
            facet=sigma,
            components=(frozenset(), frozenset()),
        )
        with pytest.raises(SplittingError):
            split_lap(figure3, dummy)


class TestPinwheelSplits:
    def test_first_split_valid(self, pinwheel):
        laps = local_articulation_points(pinwheel)
        step = split_lap(pinwheel, laps[0])
        step.after.validate()
        assert is_canonical(step.after)

    def test_split_reduces_lap_count(self, pinwheel):
        before = len(local_articulation_points(pinwheel))
        step = split_lap(pinwheel, local_articulation_points(pinwheel)[0])
        after = len(local_articulation_points(step.after))
        assert after < before
