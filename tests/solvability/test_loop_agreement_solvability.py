"""Loop agreement solvability: the contractibility obstruction in action.

Loop agreement tasks are the engine of the undecidability results the
paper discusses (Section 1.3); their solvability is equivalent to the
contractibility of the loop.  These tests exercise the homological
necessary condition on the three canonical cases: a filled triangle
(contractible: solvable), an annulus loop (infinite order in H1:
unsolvable), and the projective-plane loop (2-torsion: unsolvable — the
case that *needs* integer homology rather than rational rank).
"""

import pytest

from repro.solvability import Status, decide_solvability, homological_obstruction
from repro.tasks.zoo import (
    annulus_loop,
    loop_agreement_task,
    projective_plane_loop,
    triangle_loop,
)
from repro.topology.homology import (
    ChainBasis,
    edge_chain,
    homology_torsion,
    is_null_homologous,
    smith_form,
)


class TestLoopClasses:
    def test_triangle_filled_contractible(self):
        loop = triangle_loop(True)
        basis = ChainBasis.of(loop.complex)
        z = edge_chain(basis, loop.full_cycle())
        assert is_null_homologous(loop.complex, z, over="Z")

    def test_annulus_loop_infinite_order(self):
        loop = annulus_loop()
        basis = ChainBasis.of(loop.complex)
        z = edge_chain(basis, loop.full_cycle())
        assert not is_null_homologous(loop.complex, z, over="Z")
        # no multiple bounds: infinite order
        for k in (2, 3):
            assert not is_null_homologous(loop.complex, k * z, over="Z")

    def test_projective_loop_is_2_torsion(self):
        loop = projective_plane_loop()
        assert homology_torsion(loop.complex, 1) == (2,)
        basis = ChainBasis.of(loop.complex)
        z = edge_chain(basis, loop.full_cycle())
        assert not is_null_homologous(loop.complex, z, over="Z")
        assert is_null_homologous(loop.complex, 2 * z, over="Z")


class TestVerdicts:
    def test_filled_solvable(self):
        v = decide_solvability(loop_agreement_task(triangle_loop(True)), max_rounds=1)
        assert v.status is Status.SOLVABLE

    def test_hollow_unsolvable(self):
        v = decide_solvability(loop_agreement_task(triangle_loop(False)), max_rounds=0)
        assert v.status is Status.UNSOLVABLE
        assert v.obstruction.kind == "homological"

    def test_projective_unsolvable(self):
        task = loop_agreement_task(projective_plane_loop())
        v = decide_solvability(task, max_rounds=0)
        assert v.status is Status.UNSOLVABLE
        assert v.obstruction.kind == "homological"

    @pytest.mark.slow
    def test_annulus_unsolvable(self):
        task = loop_agreement_task(annulus_loop())
        v = decide_solvability(task, max_rounds=0)
        assert v.status is Status.UNSOLVABLE


class TestObstructionDirect:
    def test_projective_homological_fires(self):
        task = loop_agreement_task(projective_plane_loop())
        w = homological_obstruction(task)
        assert w is not None
        assert "over Z" in w.detail

    def test_one_smith_form_per_facet(self, monkeypatch):
        # the system [∂₂ | free cycles] does not depend on the solo-output
        # choice, so an unsolvable facet, which tries every choice, still
        # reduces it once
        from repro.solvability import obstructions

        task = loop_agreement_task(projective_plane_loop())
        reduced = []

        def counting_smith_form(a):
            reduced.append(a.shape)
            return smith_form(a)

        monkeypatch.setattr(obstructions, "smith_form", counting_smith_form)
        w = homological_obstruction(task)
        assert w.detail == "no boundary-loop choice bounds in Δ(σ) over Z"
        facets = list(task.input_complex.facets)
        assert len(reduced) <= facets.index(w.facet) + 1
        assert (108, 159) in reduced
