"""Unit tests for the simplicial-map search."""

import pytest

from repro.solvability.map_search import (
    SearchBudgetExceeded,
    SearchStats,
    find_map,
    prepare_problem,
    search_map,
    verify_map,
)
from repro.tasks.zoo import (
    path_task,
    set_agreement_task,
)
from repro.topology.subdivision import (
    iterated_barycentric_subdivision,
    iterated_chromatic_subdivision,
)


def _sub(task, r, engine="chromatic"):
    if engine == "chromatic":
        return iterated_chromatic_subdivision(task.input_complex, r)
    return iterated_barycentric_subdivision(task.input_complex, r)


class TestBasicSearch:
    def test_identity_found_at_zero(self, identity3):
        sub = _sub(identity3, 0)
        f = find_map(sub, identity3.delta, chromatic=True)
        assert f is not None
        assert verify_map(sub, identity3.delta, f, chromatic=True)

    def test_consensus_has_no_map_at_any_small_depth(self, consensus3):
        for r in range(2):
            sub = _sub(consensus3, r)
            assert find_map(sub, consensus3.delta, chromatic=False) is None

    def test_hourglass_colorless_map_exists(self, hourglass):
        # the colorless-ACT condition holds for the hourglass (Section 6.1):
        # a continuous |I| -> |O| map carried by Δ exists, witnessed by a
        # simplicial map from the 2-fold barycentric subdivision
        sub = _sub(hourglass, 2, "barycentric")
        found = find_map(sub, hourglass.delta, chromatic=False)
        assert found is not None
        assert verify_map(sub, hourglass.delta, found, chromatic=False)

    def test_hourglass_no_chromatic_map_at_low_depth(self, hourglass):
        # unsolvability implies no chromatic witness at any depth; check
        # small depths explicitly
        for r in range(2):
            sub = _sub(hourglass, r)
            assert find_map(sub, hourglass.delta, chromatic=True) is None

    def test_path_task_depth(self):
        t = path_task(3)
        assert find_map(_sub(t, 0), t.delta) is None
        assert find_map(_sub(t, 1), t.delta) is not None

    def test_barycentric_engine(self):
        t = path_task(3)
        assert find_map(_sub(t, 1, "barycentric"), t.delta) is None
        f = find_map(_sub(t, 2, "barycentric"), t.delta)
        assert f is not None
        assert verify_map(_sub(t, 2, "barycentric"), t.delta, f)


class TestProblemPreparation:
    def test_domains_respect_colors(self, identity3):
        sub = _sub(identity3, 1)
        problem = prepare_problem(sub, identity3.delta, chromatic=True)
        for v in problem.variables:
            for w in problem.domains[v]:
                assert w.color == v.color

    def test_agnostic_domains_larger(self, identity3):
        sub = _sub(identity3, 1)
        chrom_p = prepare_problem(sub, identity3.delta, chromatic=True)
        agn_p = prepare_problem(sub, identity3.delta, chromatic=False)
        assert all(
            len(agn_p.domains[v]) >= len(chrom_p.domains[v])
            for v in chrom_p.variables
        )

    def test_wrong_base_rejected(self, identity3):
        other = set_agreement_task(3, 2)  # different input complex (3 values)
        sub = _sub(identity3, 0)
        with pytest.raises(ValueError):
            prepare_problem(sub, other.delta, chromatic=False)

    def test_variables_follow_adjacency(self, identity3):
        # each variable (after the first) shares a facet with an earlier one
        # when the subdivision is connected, so constraints fire early
        sub = _sub(identity3, 1)
        problem = prepare_problem(sub, identity3.delta, chromatic=False)
        neighbors = {v: set() for v in sub.complex.vertices}
        for f in sub.complex.facets:
            for v in f.vertices:
                neighbors[v].update(w for w in f.vertices if w != v)
        seen = {problem.variables[0]}
        for v in problem.variables[1:]:
            assert neighbors[v] & seen
            seen.add(v)

    def test_pruning_empties_unsatisfiable_domains(self, consensus3):
        # colorless consensus at r=1 has no map; support pruning alone
        # discovers it (some domain empties), making the search trivial
        sub = _sub(consensus3, 1)
        problem = prepare_problem(sub, consensus3.delta, chromatic=False)
        stats = SearchStats()
        assert search_map(problem, stats=stats) is None
        assert stats.nodes <= len(problem.variables) + 1


class TestBudget:
    def test_budget_raises(self):
        t = set_agreement_task(3, 2)
        sub = _sub(t, 1)
        with pytest.raises(SearchBudgetExceeded):
            find_map(sub, t.delta, chromatic=True, max_nodes=3)

    def test_stats_populated(self, identity3):
        stats = SearchStats()
        sub = _sub(identity3, 1)
        find_map(sub, identity3.delta, chromatic=True, stats=stats)
        assert stats.nodes > 0
        assert stats.propagations > 0


class TestWitnessVerification:
    def test_verify_rejects_bad_map(self, identity3):
        from repro.topology.maps import SimplicialMap

        sub = _sub(identity3, 0)
        # constant map to a single vertex: simplicial but not carried by Δ
        target = identity3.output_complex.vertices[0]
        f = SimplicialMap(
            sub.complex,
            identity3.output_complex,
            {v: target for v in sub.complex.vertices},
            check=False,
        )
        assert not verify_map(sub, identity3.delta, f, chromatic=True)

    def test_programming_errors_in_validate_propagate(self, identity3, monkeypatch):
        # regression: verify_map used to swallow *every* exception from
        # f.validate(), so a bug in the verifier read as "invalid witness"
        # — i.e. a silent wrong answer.  Only NotSimplicialError means
        # that; anything else must surface with its traceback.
        from repro.topology.maps import SimplicialMap

        sub = _sub(identity3, 0)
        f = SimplicialMap(
            sub.complex,
            identity3.output_complex,
            {v: v for v in sub.complex.vertices},
            check=False,
        )

        def broken(self):
            raise TypeError("a bug in the verifier, not a bad witness")

        monkeypatch.setattr(SimplicialMap, "validate", broken)
        with pytest.raises(TypeError, match="bug in the verifier"):
            verify_map(sub, identity3.delta, f, chromatic=True)

    def test_not_simplicial_still_reads_as_invalid(self, identity3, monkeypatch):
        from repro.topology.maps import NotSimplicialError, SimplicialMap

        sub = _sub(identity3, 0)
        f = SimplicialMap(
            sub.complex,
            identity3.output_complex,
            {v: v for v in sub.complex.vertices},
            check=False,
        )

        def rejects(self):
            raise NotSimplicialError("collapsed a facet")

        monkeypatch.setattr(SimplicialMap, "validate", rejects)
        assert verify_map(sub, identity3.delta, f) is False

    def test_empty_domain_returns_none_fast(self, consensus3):
        # chromatic consensus at r=0: solo vertices force own input, but the
        # mixed facets then have no consistent image; search returns None
        stats = SearchStats()
        sub = _sub(consensus3, 0)
        assert find_map(sub, consensus3.delta, chromatic=True, stats=stats) is None
