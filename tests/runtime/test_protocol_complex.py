"""Unit tests for empirical protocol complexes."""


from repro.runtime.protocol_complex import (
    reachable_views_complex,
    realizes_subdivision,
)
from repro.topology.chromatic import ChromaticComplex
from repro.topology.simplex import chrom
from repro.topology.subdivision import iterated_chromatic_subdivision

INPUT = chrom((0, "x"), (1, "y"), (2, "z"))
EDGE = chrom((0, "x"), (1, "y"))


class TestOneRound:
    def test_exactly_ch1_for_three_processes(self):
        # block schedules alone cover all 13 facets
        empirical = reachable_views_complex(INPUT, rounds=1, random_schedules=0)
        sub = iterated_chromatic_subdivision(ChromaticComplex([INPUT]), 1)
        assert set(empirical.facets) == set(sub.complex.facets)

    def test_exactly_ch1_for_two_processes(self):
        empirical = reachable_views_complex(
            EDGE, rounds=1, random_schedules=0, exhaustive_limit=200
        )
        sub = iterated_chromatic_subdivision(ChromaticComplex([EDGE]), 1)
        assert set(empirical.facets) == set(sub.complex.facets)

    def test_subcomplex_relation(self):
        assert realizes_subdivision(INPUT, rounds=1, random_schedules=50)


class TestTwoRounds:
    def test_random_views_inside_ch2(self):
        assert realizes_subdivision(INPUT, rounds=2, random_schedules=60)

    def test_two_process_two_rounds_exact(self):
        empirical = reachable_views_complex(
            EDGE, rounds=2, random_schedules=300, block_schedules=False
        )
        sub = iterated_chromatic_subdivision(ChromaticComplex([EDGE]), 2)
        assert empirical.is_subcomplex_of(sub.complex)
        # Ch² of an edge has 9 facets; random schedules reach most of them
        assert len(empirical.facets) >= 5


class TestZeroRounds:
    def test_identity(self):
        empirical = reachable_views_complex(INPUT, rounds=0, random_schedules=3)
        assert set(empirical.facets) == {INPUT}
