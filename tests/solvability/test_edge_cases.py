"""Edge cases for the decision machinery.

Degenerate shapes that historically break task-solvability code: disjoint
input facets, globally disconnected output complexes that are fine
per-facet, single-vertex images everywhere, and value collisions between
input and output vocabularies.
"""


from repro.solvability import (
    Status,
    corollary_5_5,
    decide_solvability,
    homological_obstruction,
)
from repro.tasks import Task, is_canonical
from repro.tasks.task import task_from_function
from repro.topology.chromatic import ChromaticComplex
from repro.topology.simplex import Simplex, chrom


def disjoint_islands_task() -> Task:
    """Two input facets with no shared vertices, each with its own output
    island: O is globally disconnected yet the task is trivially solvable."""
    island_a = chrom((0, "a0"), (1, "a1"), (2, "a2"))
    island_b = chrom((0, "b0"), (1, "b1"), (2, "b2"))
    inputs = ChromaticComplex([island_a, island_b], name="I_islands")
    out_a = chrom((0, "pa"), (1, "qa"), (2, "ra"))
    out_b = chrom((0, "pb"), (1, "qb"), (2, "rb"))
    outputs = ChromaticComplex([out_a, out_b], name="O_islands")

    def rule(sigma):
        target = out_a if sigma.vertices <= island_a.vertices else out_b
        yield Simplex(v for v in target.vertices if v.color in sigma.colors())

    return task_from_function(inputs, outputs, rule, name="islands")


class TestDisjointIslands:
    def test_valid_and_canonical(self):
        task = disjoint_islands_task()
        task.validate()
        assert is_canonical(task)

    def test_disconnected_output_yet_solvable(self):
        task = disjoint_islands_task()
        assert len(task.output_complex.connected_components()) == 2
        verdict = decide_solvability(task, max_rounds=0)
        assert verdict.status is Status.SOLVABLE
        assert verdict.witness_rounds == 0

    def test_no_obstruction_fires(self):
        task = disjoint_islands_task()
        from repro.splitting import link_connected_form

        res = link_connected_form(task)
        assert corollary_5_5(res.task) is None
        assert homological_obstruction(res.task) is None

    def test_synthesis_and_run(self):
        from repro import synthesize_protocol
        from repro.runtime import validate_protocol

        task = disjoint_islands_task()
        protocol = synthesize_protocol(task)
        report = validate_protocol(task, protocol.factories, random_runs=3)
        assert report.ok


class TestValueCollisions:
    def test_same_values_in_input_and_output(self):
        # inputs and outputs both use 0/1: vertices are distinguished by
        # which complex holds them, never by identity tricks
        from repro.tasks.zoo import identity_task

        task = identity_task(3)
        shared = set(task.input_complex.vertices) & set(
            task.output_complex.vertices
        )
        assert shared  # literally the same Vertex objects
        verdict = decide_solvability(task, max_rounds=0)
        assert verdict.solvable is True

    def test_canonicalization_disambiguates(self):
        from repro.tasks.canonical import canonicalize
        from repro.tasks.zoo import identity_task

        cf = canonicalize(identity_task(3))
        assert not (
            set(cf.task.output_complex.vertices)
            & set(cf.task.input_complex.vertices)
        )


class TestSingleVertexImages:
    def test_constant_per_facet(self):
        # every input maps to one fixed output facet; link of every output
        # vertex inside Δ(σ) is a single edge (connected): no LAPs
        from repro.splitting import local_articulation_points
        from repro.tasks.zoo import constant_task

        task = constant_task(3)
        assert local_articulation_points(task) == ()

    def test_one_process_task(self):
        inputs = ChromaticComplex([chrom((0, "x")), chrom((0, "y"))])
        outputs = ChromaticComplex([chrom((0, "z"))])

        def rule(sigma):
            yield chrom((0, "z"))

        task = task_from_function(inputs, outputs, rule, name="solo")
        verdict = decide_solvability(task)
        assert verdict.solvable is True


class TestUnknownVerdicts:
    def test_unknown_is_honest(self, consensus3):
        # with obstructions off and a tiny budget, the only sound answer
        # for consensus is UNKNOWN — never SOLVABLE
        verdict = decide_solvability(
            consensus3, max_rounds=0, run_obstructions=False
        )
        assert verdict.status is Status.UNKNOWN
        assert verdict.witness_map is None
        assert verdict.obstruction is None
