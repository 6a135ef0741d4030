"""Level-2 AST lint: bad-snippet fixtures per RC4xx rule, plus the live tree.

Each snippet is linted as if it lived at a given relative path inside
``src/repro`` — the rules are path-scoped, so the same source can be
legal in ``topology/simplex.py`` and a violation in ``analysis/census.py``.
"""

import textwrap

import pytest

from repro.check import CODES, LINT_RULES, lint_paths, lint_source
from repro.check.astlint import package_root


def codes_of(diags):
    return sorted(d.code for d in diags)


def lint(source, relpath="analysis/census.py"):
    return lint_source(textwrap.dedent(source), relpath=relpath)


class TestRC401InternedMutation:
    def test_attribute_write_fires(self):
        diags = lint("def f(s):\n    s.color = 3\n")
        assert codes_of(diags) == ["RC401"]
        assert "color" in diags[0].message
        assert diags[0].location.endswith(":2:5")  # 1-based column

    def test_object_setattr_fires(self):
        diags = lint("def f(v):\n    object.__setattr__(v, 'value', 9)\n")
        assert codes_of(diags) == ["RC401"]

    def test_object_delattr_fires(self):
        diags = lint("def f(v):\n    object.__delattr__(v, '_hash')\n")
        assert codes_of(diags) == ["RC401"]

    def test_allowed_in_topology_core(self):
        src = "def f(s):\n    object.__setattr__(s, 'color', 3)\n"
        assert lint(src, relpath="topology/simplex.py") == []

    def test_unrelated_attribute_ok(self):
        assert lint("def f(x):\n    x.payload = 3\n") == []


class TestRC404FrozenConformance:
    def test_unfrozen_dataclass_in_policy_dir_fires(self):
        diags = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class P:
                x: int
            """,
            relpath="topology/thing.py",
        )
        assert codes_of(diags) == ["RC404"]

    def test_frozen_dataclass_ok(self):
        src = """
        from dataclasses import dataclass
        @dataclass(frozen=True)
        class P:
            x: int
        """
        assert lint(src, relpath="topology/thing.py") == []

    def test_unfrozen_outside_policy_dirs_ok(self):
        src = """
        from dataclasses import dataclass
        @dataclass
        class P:
            x: int
        """
        assert lint(src, relpath="analysis/census.py") == []

    def test_missing_slots_in_slotted_module_fires(self):
        diags = lint("class C:\n    pass\n", relpath="topology/maps.py")
        assert codes_of(diags) == ["RC404"]
        assert "__slots__" in diags[0].message

    def test_exception_class_exempt(self):
        src = "class BadThing(ValueError):\n    pass\n"
        assert lint(src, relpath="topology/maps.py") == []


class TestRC405Nondeterminism:
    def test_unseeded_random_call_fires(self):
        diags = lint("import random\nx = random.randint(0, 9)\n")
        assert codes_of(diags) == ["RC405"]

    def test_unseeded_rng_constructor_fires(self):
        diags = lint("import random\nrng = random.Random()\n")
        assert codes_of(diags) == ["RC405"]

    def test_seeded_rng_ok(self):
        assert lint("import random\nrng = random.Random(42)\n") == []

    def test_wall_clock_fires(self):
        diags = lint("import time\nt = time.time()\n")
        assert codes_of(diags) == ["RC405"]

    def test_outside_determinism_scope_ok(self):
        src = "import time\nt = time.time()\n"
        assert lint(src, relpath="solvability/decision.py") == []


class TestRC406BitcoreLoops:
    """RC406 (legacy construction in bitcore loops) is retired: with one
    kernel engine there is no second object path to keep apart, so
    simplex construction in ``topology/bitcore.py`` is not a finding."""

    def test_decode_helper_exempt(self):
        src = """
        def _decode_mask(self, mask):
            out = []
            while mask:
                out.append(Vertex(0, mask))
                mask &= mask - 1
            return frozenset(out)
        """
        assert lint(src, relpath="topology/bitcore.py") == []

    def test_constructor_outside_loop_ok(self):
        src = "def f(vs):\n    return Simplex(vs)\n"
        assert lint(src, relpath="topology/bitcore.py") == []

    def test_other_modules_unaffected(self):
        src = "def f(ms):\n    return [Simplex(m) for m in ms]\n"
        assert lint(src, relpath="topology/subdivision.py") == []

    def test_nested_function_resets_loop_context(self):
        # the loop belongs to the outer function; a nested def starts fresh
        src = """
        def f(items):
            for m in items:
                def g(vs):
                    return Simplex(vs)
        """
        assert lint(src, relpath="topology/bitcore.py") == []


class TestLiveTree:
    def test_package_sources_are_clean(self):
        diags = lint_paths()
        assert diags == [], [d.render() for d in diags]

    def test_package_root_is_repro(self):
        root = package_root()
        assert root.endswith("repro")


class TestRegistryConsistency:
    def test_lint_rules_are_registered_codes(self):
        for code in LINT_RULES:
            assert code in CODES
            assert CODES[code].level == 2

    def test_domain_passes_cover_their_codes(self):
        from repro.check import DOMAIN_PASSES

        covered = {c for p in DOMAIN_PASSES for c in p.codes}
        level1 = {c for c, info in CODES.items() if info.level == 1}
        assert covered == level1

    def test_syntax_error_propagates(self):
        # a file that does not parse is a build problem, not a lint finding
        with pytest.raises(SyntaxError):
            lint_source("def f(:\n", relpath="analysis/x.py")
