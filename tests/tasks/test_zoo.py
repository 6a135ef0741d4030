"""Unit tests for the task zoo: every task matches its paper description."""


import pytest

from repro.tasks.zoo import (
    HOURGLASS_TRIANGLES,
    annulus_loop,
    consensus_task,
    constant_task,
    full_input_complex,
    hourglass_articulation_vertex,
    inputless_set_agreement_task,
    loop_agreement_task,
    path_task,
    pinwheel_triangles,
    set_agreement_task,
    single_facet_input,
    triangle_loop,
    two_process_fork_task,
)
from repro.topology.simplex import Simplex, Vertex, chrom


class TestBuilders:
    def test_full_input_complex_counts(self):
        k = full_input_complex(3, (0, 1))
        assert len(k.facets) == 8
        assert k.dim == 2

    def test_full_input_needs_values(self):
        with pytest.raises(ValueError):
            full_input_complex(2, ())

    def test_single_facet_defaults(self):
        k = single_facet_input(3)
        assert len(k.facets) == 1
        assert k.facets[0] == chrom((0, 0), (1, 1), (2, 2))

    def test_single_facet_arity_checked(self):
        with pytest.raises(ValueError):
            single_facet_input(3, values=("a",))


class TestConsensus:
    def test_structure(self):
        t = consensus_task(3)
        assert len(t.output_complex.facets) == 2
        assert t.n_processes == 3

    def test_solo_decides_own_input(self):
        t = consensus_task(3)
        img = t.delta(chrom((1, 0)))
        assert img.vertices == (Vertex(1, 0),)

    def test_mixed_edge_allows_both(self):
        t = consensus_task(3)
        img = t.delta(chrom((0, 0), (1, 1)))
        assert len(img.facets) == 2

    def test_agreement_enforced(self):
        t = consensus_task(3)
        sigma = chrom((0, 0), (1, 1), (2, 0))
        for f in t.delta(sigma).facets:
            assert len({v.value for v in f.vertices}) == 1

    def test_two_process(self):
        t = consensus_task(2)
        assert t.n_processes == 2


class TestSetAgreement:
    def test_output_facet_count(self):
        t = set_agreement_task(3, 2)
        assert len(t.output_complex.facets) == 21  # 27 - 6 rainbow

    def test_k_bound_enforced(self):
        t = set_agreement_task(3, 2)
        sigma = chrom((0, 0), (1, 1), (2, 2))
        for f in t.delta(sigma).facets:
            assert len({v.value for v in f.vertices}) <= 2

    def test_validity(self):
        t = set_agreement_task(3, 2)
        sigma = chrom((0, 0), (1, 0), (2, 1))
        for f in t.delta(sigma).facets:
            assert {v.value for v in f.vertices} <= {0, 1}

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            set_agreement_task(3, 0)
        with pytest.raises(ValueError):
            set_agreement_task(3, 4)

    def test_3set_is_full(self):
        t = set_agreement_task(3, 3)
        assert len(t.output_complex.facets) == 27

    def test_inputless_variant(self):
        t = inputless_set_agreement_task(3, 2)
        assert len(t.input_complex.facets) == 1
        assert t.is_output_reachable()


class TestMajorityConsensus:
    def test_output_triples(self, majority):
        values = {
            tuple(v.value for v in f.sorted_vertices())
            for f in majority.output_complex.facets
        }
        assert values == {(0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_full_participation_constraint(self, majority):
        sigma = chrom((0, 0), (1, 1), (2, 1))
        triples = {
            tuple(v.value for v in f.sorted_vertices())
            for f in majority.delta(sigma).facets
        }
        for t in triples:
            zeros, ones = t.count(0), t.count(1)
            assert len(set(t)) == 1 or zeros > ones

    def test_two_participants_unconstrained(self, majority):
        e = chrom((1, 0), (2, 1))
        pairs = {
            tuple(v.value for v in f.sorted_vertices())
            for f in majority.delta(e).facets
        }
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_solo(self, majority):
        img = majority.delta(chrom((2, 1)))
        assert img.vertices == (Vertex(2, 1),)

    def test_validity_all_zero_input(self, majority):
        sigma = chrom((0, 0), (1, 0), (2, 0))
        assert len(majority.delta(sigma).facets) == 1


class TestHourglass:
    def test_five_triangles(self, hourglass):
        assert len(hourglass.output_complex.facets) == 5

    def test_single_input_facet(self, hourglass):
        assert len(hourglass.input_complex.facets) == 1

    def test_waist_is_global_articulation(self, hourglass):
        y = hourglass_articulation_vertex()
        comps = hourglass.output_complex.link_components(y)
        assert len(comps) == 2

    def test_waist_link_components_match_paper(self, hourglass):
        # one component contains P1's value-1 vertex (Figure 2, right)
        y = hourglass_articulation_vertex()
        comps = hourglass.output_complex.link_components(y)
        b1 = Vertex(1, 1)
        assert any(b1 in c for c in comps)
        assert not all(b1 in c for c in comps)

    def test_only_waist_is_articulation(self, hourglass):
        from repro.topology.links import articulation_vertices

        assert articulation_vertices(hourglass.output_complex) == (
            hourglass_articulation_vertex(),
        )

    def test_solo_decisions_are_zero(self, hourglass):
        for x in hourglass.input_complex.vertices:
            (v,) = hourglass.delta(Simplex([x])).vertices
            assert v.value == 0

    def test_edge_images_are_three_edge_paths(self, hourglass):
        for e in hourglass.input_complex.simplices(dim=1):
            img = hourglass.delta(e)
            assert len(img.facets) == 3
            assert img.is_connected()

    def test_full_image_is_whole_complex(self, hourglass):
        sigma = hourglass.input_complex.facets[0]
        assert set(hourglass.delta(sigma).facets) == set(HOURGLASS_TRIANGLES)

    def test_realization_contractible(self, hourglass):
        # the colorless-ACT hypothesis: |O| is contractible (b0=1, b1=0)
        from repro.topology.homology import betti_numbers

        assert betti_numbers(hourglass.output_complex) == (1, 0, 0)


class TestPinwheel:
    def test_twelve_triangles(self, pinwheel):
        assert len(pinwheel_triangles()) == 12
        assert len(pinwheel.output_complex.facets) == 12

    def test_subtask_of_2set_agreement(self, pinwheel):
        two_set = inputless_set_agreement_task(3, 2)
        for sigma in pinwheel.input_complex.simplices():
            assert pinwheel.delta(sigma).is_subcomplex_of(two_set.delta(sigma))

    def test_all_edges_intact(self, pinwheel):
        # "it leaves intact the outputs for the edges"
        assert len(pinwheel.output_complex.simplices(dim=1)) == 27

    def test_rotational_symmetry(self, pinwheel):
        def rho(v: Vertex) -> Vertex:
            return Vertex((v.color + 1) % 3, (v.value + 1) % 3)

        facets = set(pinwheel.output_complex.facets)
        for f in facets:
            assert Simplex(rho(v) for v in f.vertices) in facets

    def test_edge_image_is_four_cycle(self, pinwheel):
        # "a cycle of four edges can be decided for each input edge"
        for e in pinwheel.input_complex.simplices(dim=1):
            img = pinwheel.delta(e)
            assert len(img.facets) == 4
            assert len(img.vertices) == 4
            from repro.topology.homology import betti_numbers

            assert betti_numbers(img) == (1, 1)

    def test_every_vertex_is_lap(self, pinwheel):
        from repro.splitting import local_articulation_points

        laps = local_articulation_points(pinwheel)
        assert {l.vertex for l in laps} == set(pinwheel.output_complex.vertices)

    def test_diagonal_links_have_two_components(self, pinwheel):
        sigma = pinwheel.input_complex.facets[0]
        img = pinwheel.delta(sigma)
        for i in range(3):
            assert len(img.link_components(Vertex(i, i))) == 2


class TestLoopAgreement:
    def test_triangle_loops(self):
        filled = triangle_loop(True)
        hollow = triangle_loop(False)
        assert filled.complex.dim == 2
        assert hollow.complex.dim == 1

    def test_loop_rejects_non_edge_path(self):
        from repro.tasks.zoo import Loop
        from repro.topology.complexes import SimplicialComplex

        k = SimplicialComplex([("u", "v"), ("u", "w")])  # no v-w edge
        with pytest.raises(ValueError, match="non-edge"):
            Loop(k, ("u", "v", "w"), (("u", "v"), ("v", "w"), ("w", "u")))

    def test_loop_rejects_mismatched_corners(self):
        from repro.tasks.zoo import Loop
        from repro.topology.complexes import SimplicialComplex

        k = SimplicialComplex([("u", "v"), ("v", "w"), ("w", "u")])
        with pytest.raises(ValueError, match="corners"):
            Loop(k, ("u", "v", "w"), (("u", "v"), ("v", "w"), ("u", "w")))

    def test_full_cycle(self):
        loop = triangle_loop(True)
        assert loop.full_cycle() == ("u", "v", "w", "u")

    def test_same_corner_decides_corner(self):
        t = loop_agreement_task(triangle_loop(True))
        sigma = chrom((0, 1), (1, 1), (2, 1))
        for f in t.delta(sigma).facets:
            assert {v.value for v in f.vertices} == {"v"}

    def test_two_corners_decide_on_path(self):
        t = loop_agreement_task(triangle_loop(True))
        sigma = chrom((0, 0), (1, 1), (2, 0))
        for f in t.delta(sigma).facets:
            assert {v.value for v in f.vertices} <= {"u", "v"}

    def test_annulus_loop_valid(self):
        loop = annulus_loop()
        from repro.topology.homology import betti_numbers

        assert betti_numbers(loop.complex) == (1, 1, 0)

    def test_path_between_orientation(self):
        loop = triangle_loop(True)
        assert loop.path_between(0, 2) == ("w", "u")


class TestTrivialTasks:
    def test_identity(self, identity3):
        sigma = identity3.input_complex.facets[0]
        assert identity3.delta(sigma).facets == (sigma,)

    def test_constant(self):
        t = constant_task(3, constant=1)
        sigma = t.input_complex.facets[0]
        (f,) = t.delta(sigma).facets
        assert all(v.value == 1 for v in f.vertices)


class TestTestAndSet:
    def test_structure(self):
        from repro.tasks.zoo import test_and_set_task

        t = test_and_set_task(3)
        assert len(t.output_complex.facets) == 3
        for f in t.output_complex.facets:
            assert sorted(v.value for v in f.vertices) == [0, 1, 1]

    def test_solo_wins(self):
        from repro.tasks.zoo import test_and_set_task

        t = test_and_set_task(3)
        for x in t.input_complex.vertices:
            (v,) = t.delta(Simplex([x])).vertices
            assert v.value == 0

    def test_pair_images_are_two_disjoint_edges(self):
        from repro.tasks.zoo import test_and_set_task

        t = test_and_set_task(3)
        for e in t.input_complex.simplices(dim=1):
            img = t.delta(e)
            assert len(img.facets) == 2
            assert len(img.connected_components()) == 2

    def test_minimum_processes(self):
        from repro.tasks.zoo import test_and_set_task

        with pytest.raises(ValueError):
            test_and_set_task(1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unsolvable(self, n):
        from repro import decide_solvability
        from repro.tasks.zoo import test_and_set_task

        assert decide_solvability(test_and_set_task(n)).solvable is False


class TestTwoProcessTasks:
    def test_path_task_structure(self):
        t = path_task(5)
        assert len(t.output_complex.facets) == 5
        assert t.n_processes == 2

    def test_path_length_must_be_odd(self):
        with pytest.raises(ValueError):
            path_task(2)

    def test_fork_images_disconnected(self):
        t = two_process_fork_task()
        e = t.input_complex.facets[0]
        assert len(t.delta(e).connected_components()) == 2
