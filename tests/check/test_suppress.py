"""Inline suppression comments (`repro.check.suppress`)."""

import textwrap

from repro.check.astlint import lint_source
from repro.check.suppress import (
    apply_suppressions,
    find_suppressions,
    unknown_suppression_diagnostics,
)


def test_find_suppressions_parses_single_and_multiple_codes():
    source = textwrap.dedent(
        """
        x = 1  # repro: ignore[RC401]
        y = 2  # repro: ignore[RC404, RC405]
        z = 3
        """
    )
    supp = find_suppressions(source)
    assert supp[2] == {"RC401"}
    assert supp[3] == {"RC404", "RC405"}
    assert 4 not in supp


def test_suppressions_in_strings_and_docstrings_are_ignored():
    source = textwrap.dedent(
        '''
        def f():
            """Write `# repro: ignore[RC401]` on the flagged line."""
            s = "# repro: ignore[RC404]"
            return s
        '''
    )
    assert find_suppressions(source) == {}
    assert unknown_suppression_diagnostics(source, "mod.py") == []


def test_unknown_code_is_rc407():
    source = "x = 1  # repro: ignore[RC999]\n"
    diags = unknown_suppression_diagnostics(source, "mod.py")
    assert len(diags) == 1
    assert diags[0].code == "RC407"
    assert "RC999" in diags[0].message


def test_known_and_unknown_codes_mix():
    source = "x = 1  # repro: ignore[RC401, RC41]\n"
    assert find_suppressions(source) == {1: {"RC401"}}
    diags = unknown_suppression_diagnostics(source, "mod.py")
    assert [d.code for d in diags] == ["RC407"]
    assert "RC41" in diags[0].message


def test_empty_suppression_is_rc407():
    diags = unknown_suppression_diagnostics("x = 1  # repro: ignore[]\n", "mod.py")
    assert len(diags) == 1


def test_apply_suppressions_drops_only_matching_line_and_code():
    from repro.check.diagnostics import Diagnostic

    diags = [
        Diagnostic(code="RC401", message="m", subject="s", location="f.py:2:1"),
        Diagnostic(code="RC404", message="m", subject="s", location="f.py:2:1"),
        Diagnostic(code="RC401", message="m", subject="s", location="f.py:5:1"),
        Diagnostic(code="RC101", message="m", subject="s"),  # no location
    ]
    kept, dropped = apply_suppressions(diags, {2: {"RC401"}})
    assert dropped == 1
    assert [d.code for d in kept] == ["RC404", "RC401", "RC101"]


# -- astlint integration ----------------------------------------------------

_VIOLATION = "def f(s):\n    s._hash = 1{comment}\n"


def test_lint_source_honours_suppression():
    flagged = lint_source(_VIOLATION.format(comment=""), "analysis/census.py")
    assert any(d.code == "RC401" for d in flagged)

    silenced = lint_source(
        _VIOLATION.format(comment="  # repro: ignore[RC401]"), "analysis/census.py"
    )
    assert not any(d.code == "RC401" for d in silenced)


def test_lint_source_reports_unknown_suppression_codes():
    diags = lint_source(
        _VIOLATION.format(comment="  # repro: ignore[RC40]"), "analysis/census.py"
    )
    codes = [d.code for d in diags]
    # the typo'd suppression silences nothing and is itself reported
    assert "RC401" in codes
    assert "RC407" in codes
