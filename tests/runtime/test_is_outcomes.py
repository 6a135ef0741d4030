"""Every ordered partition is realizable: block schedules reach all of Ch¹.

The standard chromatic subdivision's facets are indexed by ordered set
partitions (Section 2.4).  This test *constructs*, for each of the 13
ordered partitions of three processes, a block schedule (round-robin
within a block, blocks sequential) and checks the Borowsky–Gafni-based
full-information protocol produces exactly that partition's views — i.e.
the shared-memory substrate realizes the whole of Ch¹, not just a sample.
"""


from repro.runtime.full_information import make_full_information_factories
from repro.runtime.scheduler import Execution
from repro.topology.chromatic import ChromaticComplex
from repro.topology.simplex import Simplex, Vertex, chrom
from repro.topology.subdivision import iterated_chromatic_subdivision, ordered_partitions

INPUT = chrom((0, "x"), (1, "y"), (2, "z"))


def run_block_schedule(factories, n, blocks):
    """Round-robin within each block; blocks strictly sequential."""
    execution = Execution(n, {pid: make(pid) for pid, make in factories.items()})
    for block in blocks:
        members = sorted(block)
        while any(pid in execution.runnable() for pid in members):
            for pid in members:
                if pid in execution.runnable():
                    execution.step(pid)
    while not execution.done():  # safety: nothing should remain
        execution.step(execution.runnable()[0])
    return execution.trace


def expected_facet(blocks):
    """The Ch¹ facet of an ordered partition."""
    by_color = {v.color: v for v in INPUT.vertices}
    seen = set()
    verts = []
    for block in blocks:
        seen |= {by_color[c] for c in block}
        view = Simplex(seen)
        verts.extend(Vertex(c, view) for c in block)
    return Simplex(verts)


class TestAllOrderedPartitionsRealizable:
    def test_each_partition_reached_by_its_block_schedule(self):
        factories, n = make_full_information_factories(INPUT, rounds=1)
        for blocks in ordered_partitions({0, 1, 2}):
            trace = run_block_schedule(factories, n, blocks)
            got = Simplex(trace.decisions.values())
            want = expected_facet(blocks)
            assert got == want, f"partition {blocks}: got {got!r}, want {want!r}"

    def test_thirteen_distinct_outcomes(self):
        factories, n = make_full_information_factories(INPUT, rounds=1)
        outcomes = set()
        for blocks in ordered_partitions({0, 1, 2}):
            trace = run_block_schedule(factories, n, blocks)
            outcomes.add(Simplex(trace.decisions.values()))
        sub = iterated_chromatic_subdivision(ChromaticComplex([INPUT]), 1)
        assert outcomes == set(sub.complex.facets)

    def test_two_process_partitions(self):
        edge = chrom((0, "x"), (1, "y"))
        factories, n = make_full_information_factories(edge, rounds=1)
        outcomes = set()
        for blocks in ordered_partitions({0, 1}):
            trace = run_block_schedule(factories, n, blocks)
            outcomes.add(Simplex(trace.decisions.values()))
        assert len(outcomes) == 3
