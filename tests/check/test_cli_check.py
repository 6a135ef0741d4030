"""End-to-end tests for ``python -m repro check``."""

import json

import pytest

from repro.__main__ import main
from repro.io import save_task
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.chromatic import ChromaticComplex
from repro.topology.complexes import SimplicialComplex
from repro.topology.simplex import chrom


@pytest.fixture()
def corrupt_task_file(tmp_path):
    """A task JSON whose Δ drops a vertex image (RC301)."""
    edge = chrom((0, 0), (1, 1))
    out = chrom((0, "a"), (1, "b"))
    inputs = ChromaticComplex([edge], name="I")
    outputs = SimplicialComplex([out], name="O")
    delta = CarrierMap(
        inputs,
        outputs,
        {edge: [out], chrom((0, 0)): [chrom((0, "a"))]},
        check=False,
    )
    task = Task(inputs, outputs, delta, name="broken", check=False)
    path = tmp_path / "broken.json"
    save_task(task, str(path))
    return str(path)


def test_whole_zoo_is_clean_by_default(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out and "0 warning(s)" in out


def test_single_zoo_target(capsys):
    assert main(["check", "identity"]) == 0
    assert "checked 1 subject(s)" in capsys.readouterr().out


def test_deep_mode_clean(capsys):
    assert main(["check", "identity", "--deep"]) == 0
    # the transformed task is checked as a second subject
    assert "checked 2 subject(s)" in capsys.readouterr().out


def test_unknown_target_is_usage_error():
    with pytest.raises(SystemExit):
        main(["check", "no-such-task"])


def test_corrupt_json_fails_with_rc301(corrupt_task_file, capsys):
    assert main(["check", corrupt_task_file]) == 1
    out = capsys.readouterr().out
    assert "RC301" in out and "delta-not-total" in out


def test_json_format(corrupt_task_file, capsys):
    assert main(["check", corrupt_task_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-check/1"
    assert payload["ok"] is False
    assert [d["code"] for d in payload["diagnostics"]] == ["RC301"]
    assert payload["diagnostics"][0]["witness"]


def test_sarif_format(corrupt_task_file, capsys):
    assert main(["check", corrupt_task_file, "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "RC301" in rule_ids and "RC401" in rule_ids
    assert [r["ruleId"] for r in run["results"]] == ["RC301"]


def test_ignore_suppresses(corrupt_task_file, capsys):
    assert main(["check", corrupt_task_file, "--ignore", "RC301"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_select_restricts(corrupt_task_file, capsys):
    assert main(["check", corrupt_task_file, "--select", "RC1"]) == 0
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["check", "identity", "--format", "json", "--output", str(dest)]) == 0
    payload = json.loads(dest.read_text())
    assert payload["ok"] is True
    assert "wrote" in capsys.readouterr().out


def test_self_check_exits_zero(capsys):
    assert main(["check", "--self"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_self_check_no_tools(capsys):
    assert main(["check", "--self", "--no-tools"]) == 0
    out = capsys.readouterr().out
    assert "mypy" not in out and "ruff" not in out


def test_self_rejects_targets():
    with pytest.raises(SystemExit):
        main(["check", "identity", "--self"])


def test_self_rejects_deep():
    with pytest.raises(SystemExit):
        main(["check", "--self", "--deep"])


# -- effects mode -----------------------------------------------------------


def test_effects_clean_against_committed_baseline(capsys):
    assert main(["check", "--effects"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_effects_combines_with_self(capsys):
    assert main(["check", "--effects", "--self", "--no-tools"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_effects_empty_baseline_reports_rc50x(tmp_path, capsys):
    # with no declarations, the intentional clock/interning effects of
    # the live tree surface as findings — proving the gate has teeth
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps({"schema": "repro-effects-baseline/1", "declared": {}})
    )
    assert main(["check", "--effects", "--baseline", str(empty)]) == 1
    out = capsys.readouterr().out
    assert "RC503" in out and "RC505" in out


def test_effects_select_filters_codes(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps({"schema": "repro-effects-baseline/1", "declared": {}})
    )
    assert (
        main(
            [
                "check",
                "--effects",
                "--baseline",
                str(empty),
                "--select",
                "RC503",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "RC503" in out and "RC505" not in out


def test_effects_sarif_output(capsys):
    assert main(["check", "--effects", "--format", "sarif"]) == 0
    sarif = json.loads(capsys.readouterr().out)
    rule_ids = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
    assert {"RC501", "RC511"} <= rule_ids


def test_effects_missing_baseline_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["check", "--effects", "--baseline", str(tmp_path / "absent.json")])


def test_effects_rejects_targets():
    with pytest.raises(SystemExit):
        main(["check", "identity", "--effects"])


def test_baseline_flag_requires_effects(tmp_path):
    with pytest.raises(SystemExit):
        main(["check", "--baseline", str(tmp_path / "b.json")])


def test_write_baseline_requires_effects():
    with pytest.raises(SystemExit):
        main(["check", "--write-baseline"])


def test_write_baseline_roundtrip(tmp_path, capsys):
    dest = tmp_path / "baseline.json"
    assert main(["check", "--effects", "--write-baseline", "--baseline", str(dest)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(dest.read_text())
    assert payload["schema"] == "repro-effects-baseline/1"
    # the regenerated baseline judges the live tree clean
    assert main(["check", "--effects", "--baseline", str(dest)]) == 0
    capsys.readouterr()


def test_effects_run_records_diag_counters(tmp_path, capsys):
    trace = tmp_path / "trace-check.json"
    assert main(["check", "--effects", "--trace", str(trace)]) == 0
    capsys.readouterr()
    payload = json.loads(trace.read_text())
    assert payload["meta"]["command"] == "check"
    counters = payload["counters"]
    assert counters.get("check.errors") == 0
    assert counters.get("check.warnings") == 0
