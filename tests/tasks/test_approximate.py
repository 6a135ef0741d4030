"""Unit tests for approximate agreement."""

import pytest

from repro.solvability import Status, decide_solvability
from repro.tasks.zoo import approximate_agreement_task
from repro.topology.simplex import chrom


class TestConstruction:
    def test_k1_is_wide_consensus(self):
        t = approximate_agreement_task(1)
        t.validate()
        # spread <= 1 over {0, 1}: all 8 triples allowed
        assert len(t.output_complex.facets) == 8

    def test_k2_output_count(self):
        t = approximate_agreement_task(2)
        # triples over {0,1,2} with spread <= 1: 2 windows of 8 minus shared 1
        assert len(t.output_complex.facets) == 15

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            approximate_agreement_task(0)

    def test_validity_constraint(self):
        t = approximate_agreement_task(2)
        sigma = chrom((0, 0), (1, 0), (2, 0))
        for f in t.delta(sigma).facets:
            assert {v.value for v in f.vertices} == {0}

    def test_range_constraint_mixed(self):
        t = approximate_agreement_task(2)
        sigma = chrom((0, 0), (1, 1), (2, 1))
        for f in t.delta(sigma).facets:
            values = {v.value for v in f.vertices}
            assert values <= {0, 1, 2}
            assert max(values) - min(values) <= 1

    def test_solo_decides_own_scaled_input(self):
        t = approximate_agreement_task(3)
        (v,) = t.delta(chrom((1, 1))).vertices
        assert v.value == 3  # input 1 scaled by k


class TestSolvability:
    def test_k1_zero_rounds(self):
        v = decide_solvability(approximate_agreement_task(1), max_rounds=1)
        assert v.status is Status.SOLVABLE
        assert v.witness_rounds == 0

    def test_k2_needs_one_round(self):
        v = decide_solvability(approximate_agreement_task(2), max_rounds=1)
        assert v.status is Status.SOLVABLE
        assert v.witness_rounds == 1

    def test_no_obstruction_fires(self):
        from repro.solvability import (
            corollary_5_5,
            homological_obstruction,
        )

        t = approximate_agreement_task(2)
        assert corollary_5_5(t) is None
        assert homological_obstruction(t) is None
