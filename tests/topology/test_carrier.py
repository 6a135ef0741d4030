"""Unit tests for carrier maps."""

import pytest

from repro.topology.carrier import CarrierMap, CarrierMapError
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex, complexes_built
from repro.topology.simplex import Simplex, chrom


@pytest.fixture
def edge_domain():
    return SimplicialComplex([("x", "y")])


@pytest.fixture
def path_codomain():
    return SimplicialComplex([("p", "q"), ("q", "r")])


@pytest.fixture
def simple_map(edge_domain, path_codomain):
    return CarrierMap(
        edge_domain,
        path_codomain,
        {
            Simplex(["x"]): [("p",)],
            Simplex(["y"]): [("r",)],
            Simplex(["x", "y"]): [("p", "q"), ("q", "r")],
        },
    )


class TestConstruction:
    def test_basic(self, simple_map):
        assert simple_map(Simplex(["x"])).vertices == ("p",)

    def test_missing_images_default_empty(self, edge_domain, path_codomain):
        cm = CarrierMap(edge_domain, path_codomain, {}, check=False)
        assert not cm(Simplex(["x"]))

    def test_missing_images_share_one_empty_complex(self, edge_domain, path_codomain):
        before = complexes_built()
        cm = CarrierMap(edge_domain, path_codomain, {}, check=False)
        assert complexes_built() == before + 1
        assert cm(Simplex(["x"])) is cm(Simplex(["y"])) is cm(Simplex(["x", "y"]))

    def test_complete_images_build_no_empty_complex(self, simple_map):
        images = {s: img for s, img in simple_map.items()}
        before = complexes_built()
        CarrierMap(simple_map.domain, simple_map.codomain, images, check=False)
        assert complexes_built() == before

    def test_domain_membership_checked(self, edge_domain, path_codomain):
        with pytest.raises(CarrierMapError):
            CarrierMap(edge_domain, path_codomain, {Simplex(["zz"]): [("p",)]})

    def test_codomain_membership_checked(self, edge_domain, path_codomain):
        with pytest.raises(CarrierMapError):
            CarrierMap(
                edge_domain, path_codomain, {Simplex(["x"]): [("nope",)]}
            )

    def test_accepts_complex_images(self, edge_domain, path_codomain):
        cm = CarrierMap(
            edge_domain,
            path_codomain,
            {Simplex(["x", "y"]): path_codomain},
            check=False,
        )
        assert cm(Simplex(["x", "y"])) == path_codomain

    def test_raw_keys_converted(self, edge_domain, path_codomain):
        cm = CarrierMap(edge_domain, path_codomain, {("x",): [("p",)]}, check=False)
        assert cm(Simplex(["x"])).vertices == ("p",)


class TestEvaluation:
    def test_call_on_simplex(self, simple_map):
        img = simple_map(Simplex(["x", "y"]))
        assert img.dim == 1

    def test_call_on_iterable(self, simple_map):
        img = simple_map([Simplex(["x"]), Simplex(["y"])])
        assert set(img.vertices) == {"p", "r"}

    def test_call_on_complex(self, simple_map, edge_domain):
        img = simple_map(edge_domain)
        assert set(img.vertices) == {"p", "q", "r"}

    def test_image(self, simple_map):
        assert set(simple_map.image().vertices) == {"p", "q", "r"}

    def test_items_in_canonical_order(self, simple_map):
        keys = [s for s, _ in simple_map.items()]
        assert keys == sorted(keys, key=Simplex.sort_key)

    def test_call_on_bad_type(self, simple_map):
        with pytest.raises(TypeError):
            simple_map(42)


class TestPredicates:
    def test_monotonic(self, simple_map):
        assert simple_map.is_monotonic()

    def test_not_monotonic_detected(self, edge_domain, path_codomain):
        cm = CarrierMap(
            edge_domain,
            path_codomain,
            {
                Simplex(["x"]): [("p",)],
                Simplex(["x", "y"]): [("q", "r")],  # p missing
            },
            check=False,
        )
        assert not cm.is_monotonic()
        with pytest.raises(CarrierMapError):
            cm.validate()

    def test_rigid(self, simple_map):
        assert simple_map.is_rigid()

    def test_not_rigid_dimension_drop(self, edge_domain, path_codomain):
        cm = CarrierMap(
            edge_domain,
            path_codomain,
            {Simplex(["x", "y"]): [("p",)]},  # 0-dim image of an edge
            check=False,
        )
        assert not cm.is_rigid()

    def test_strictness(self, simple_map, edge_domain, path_codomain):
        assert simple_map.is_strict()
        cm = CarrierMap(edge_domain, path_codomain, {}, check=False)
        assert not cm.is_strict()

    def test_chromatic(self):
        dom = ChromaticComplex([chrom((0, "x"), (1, "y"))])
        cod = ChromaticComplex([chrom((0, "p"), (1, "q"))])
        cm = CarrierMap(
            dom,
            cod,
            {
                chrom((0, "x")): [chrom((0, "p"))],
                chrom((1, "y")): [chrom((1, "q"))],
                chrom((0, "x"), (1, "y")): [chrom((0, "p"), (1, "q"))],
            },
        )
        assert cm.is_chromatic()

    def test_not_chromatic_wrong_color(self):
        dom = ChromaticComplex([chrom((0, "x"))])
        cod = ChromaticComplex([chrom((1, "p"))])
        cm = CarrierMap(dom, cod, {chrom((0, "x")): [chrom((1, "p"))]}, check=False)
        assert not cm.is_chromatic()


class TestTransformations:
    def test_monotonize_prunes(self, edge_domain, path_codomain):
        cm = CarrierMap(
            edge_domain,
            path_codomain,
            {
                Simplex(["x"]): [("p",), ("r",)],
                Simplex(["y"]): [("r",)],
                Simplex(["x", "y"]): [("q", "r")],
            },
            check=False,
        )
        fixed = cm.monotonize()
        assert fixed.is_monotonic()
        assert set(fixed(Simplex(["x"])).vertices) == {"r"}

    def test_monotonize_noop_when_monotone(self, simple_map):
        assert simple_map.monotonize() == simple_map

    def test_restricted_to(self, simple_map, edge_domain):
        sub = SimplicialComplex([("x",)])
        r = simple_map.restricted_to(sub)
        assert r.domain == sub
        assert r(Simplex(["x"])).vertices == ("p",)

    def test_restricted_to_non_subcomplex(self, simple_map):
        with pytest.raises(CarrierMapError):
            simple_map.restricted_to(SimplicialComplex([("zzz",)]))

    def test_with_codomain(self, simple_map, path_codomain):
        bigger = path_codomain.union(SimplicialComplex([("s",)]))
        rebased = simple_map.with_codomain(bigger)
        assert rebased.codomain == bigger

    def test_compose(self, edge_domain, path_codomain):
        first = CarrierMap(
            edge_domain,
            path_codomain,
            {
                Simplex(["x"]): [("p",)],
                Simplex(["y"]): [("r",)],
                Simplex(["x", "y"]): [("p", "q"), ("q", "r")],
            },
        )
        final = SimplicialComplex([("u", "v")])
        second = CarrierMap(
            path_codomain,
            final,
            {
                Simplex(["p"]): [("u",)],
                Simplex(["q"]): [("u",), ("v",)],
                Simplex(["r"]): [("v",)],
                Simplex(["p", "q"]): [("u", "v")],
                Simplex(["q", "r"]): [("u", "v")],
            },
            check=False,
        )
        comp = first.compose(second)
        assert comp.domain == edge_domain
        assert comp.codomain == final
        assert set(comp(Simplex(["x", "y"])).vertices) == {"u", "v"}
        assert comp(Simplex(["x"])).vertices == ("u",)


class TestProtocol:
    def test_equality(self, simple_map, edge_domain, path_codomain):
        again = CarrierMap(
            edge_domain,
            path_codomain,
            {
                Simplex(["x"]): [("p",)],
                Simplex(["y"]): [("r",)],
                Simplex(["x", "y"]): [("p", "q"), ("q", "r")],
            },
        )
        assert simple_map == again
        assert hash(simple_map) == hash(again)

    def test_repr(self, simple_map):
        assert "CarrierMap" in repr(simple_map)
