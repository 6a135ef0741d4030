"""Level-3 effect analysis (`repro.check.effects`).

Synthetic package trees inject the exact faults the analysis exists to
catch — an ``os.environ`` read buried under a persisted decide entry
point, a warm-table mutation inside a pool worker — and the tests pin
both the code and the call-path witness.  A second group runs the
analysis over the live package against the committed baseline: the
suite fails if a new undeclared effect lands in ``src/repro``.
"""

import json
import os
import textwrap

import pytest

from repro.check.effects import (
    BASELINE_SCHEMA,
    Baseline,
    analyze_package,
    boundary_effect,
    effects_result,
    evaluate,
    load_baseline,
    render_baseline,
)


def _analyze_tree(root, files):
    for rel, source in files.items():
        full = os.path.join(str(root), rel.replace("/", os.sep))
        os.makedirs(os.path.dirname(full) or str(root), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(source))
    return analyze_package(str(root))


#: a minimal diskstore boundary module, shaped like the real one
_DISKSTORE = """
    def load(namespace, key):
        return None

    def store(namespace, key, value):
        return value
"""


def test_boundary_classification():
    assert boundary_effect("repro.obs.recorder") == "obs"
    assert boundary_effect("repro.topology.diskstore") == "diskstore"
    assert boundary_effect("repro.solvability.decision") is None


def test_env_read_under_persisted_entry_is_rc502_with_call_path(tmp_path):
    # the acceptance fault: an os.environ read two calls below a
    # diskstore-persisted decide entry point
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "solvability/decision.py": """
                import os

                from ..topology import diskstore

                def decide_solvability(task):
                    cached = diskstore.load("verdict", task)
                    if cached is None:
                        cached = _compute(task)
                        diskstore.store("verdict", task, cached)
                    return cached

                def _compute(task):
                    return _fast_mode() or task

                def _fast_mode():
                    return os.environ.get("REPRO_FAST") == "1"
            """,
        },
    )
    assert (
        analysis.entry_points["repro.solvability.decision.decide_solvability"]
        == "persisted"
    )
    diags = evaluate(analysis)
    rc502 = [d for d in diags if d.code == "RC502"]
    assert len(rc502) == 1
    witness = rc502[0].witness
    assert "decide_solvability" in witness
    assert "_compute" in witness
    assert "_fast_mode" in witness
    assert "os.environ.get" in witness


def test_env_read_is_hard_error_baseline_cannot_declare_it(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "mod.py": """
                import os

                from .topology import diskstore

                def entry(key):
                    diskstore.store("x", key, os.environ.get("HOME"))
            """,
        },
    )
    baseline = Baseline(declared={"repro.mod.entry": {"env-read": "declared anyway"}})
    assert any(d.code == "RC502" for d in evaluate(analysis, baseline))


def test_unseeded_rng_under_memoized_entry_is_rc501(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "mod.py": """
                import functools
                import random

                class Table:
                    @functools.lru_cache(maxsize=None)
                    def lookup(self, key):
                        return random.random() + key
            """,
        },
    )
    assert analysis.entry_points["repro.mod.Table.lookup"] == "memoized"
    diags = evaluate(analysis)
    assert any(d.code == "RC501" for d in diags)


def test_clock_under_cache_is_declarable_in_baseline(tmp_path):
    files = {
        "topology/diskstore.py": _DISKSTORE,
        "mod.py": """
            import time

            from .topology import diskstore

            def entry(key):
                t0 = time.perf_counter()
                diskstore.store("x", key, t0)
        """,
    }
    analysis = _analyze_tree(tmp_path, files)
    assert any(d.code == "RC503" for d in evaluate(analysis))
    declared = Baseline(declared={"repro.mod.entry": {"clock": "telemetry only"}})
    assert not any(d.code == "RC503" for d in evaluate(analysis, declared))


def test_seeded_rng_is_allowed_under_cache(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "mod.py": """
                import random

                from .topology import diskstore

                def entry(key):
                    rng = random.Random(key)
                    diskstore.store("x", key, rng.random())
            """,
        },
    )
    diags = evaluate(analysis)
    assert not any(d.code.startswith("RC50") for d in diags)


def test_warm_table_mutation_in_pool_worker_is_rc512(tmp_path):
    # the acceptance fault: a worker mutating a pre-fork warm table
    analysis = _analyze_tree(
        tmp_path,
        {
            "analysis/parallel.py": """
                _WARM = {}

                def run_parallel(pool, jobs):
                    return list(pool.imap_unordered(_chunk, jobs))

                def _chunk(job):
                    _WARM[job] = _compute(job)
                    return _WARM[job]

                def _compute(job):
                    return job * 2
            """,
        },
    )
    assert "repro.analysis.parallel._chunk" in analysis.worker_entries
    rc512 = [d for d in evaluate(analysis) if d.code == "RC512"]
    assert len(rc512) == 1
    assert "_WARM" in rc512[0].witness
    assert "_chunk" in rc512[0].witness


def test_lambda_dispatch_is_rc511(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "analysis/parallel.py": """
                def run_parallel(pool, jobs):
                    return pool.imap_unordered(lambda j: j + 1, jobs)
            """,
        },
    )
    rc511 = [d for d in evaluate(analysis) if d.code == "RC511"]
    assert len(rc511) == 1
    assert "lambda" in rc511[0].message


def test_undeclared_gauge_in_worker_is_rc513_and_policy_silences(tmp_path):
    files = {
        "analysis/parallel.py": """
            from ..obs import gauge_set

            def run_parallel(pool, jobs):
                return list(pool.map_async(_chunk, jobs).get())

            def _chunk(job):
                gauge_set("worker.depth", job)
                return job
        """,
        "obs/__init__.py": """
            def gauge_set(name, value):
                pass

            def set_gauge_policy(name, policy):
                pass
        """,
    }
    analysis = _analyze_tree(tmp_path, files)
    assert any(d.code == "RC513" for d in evaluate(analysis))

    files["analysis/parallel.py"] = """
        from ..obs import gauge_set, set_gauge_policy

        set_gauge_policy("worker.depth", "max")

        def run_parallel(pool, jobs):
            return list(pool.map_async(_chunk, jobs).get())

        def _chunk(job):
            gauge_set("worker.depth", job)
            return job
    """
    declared = _analyze_tree(tmp_path, files)
    assert not any(d.code == "RC513" for d in evaluate(declared))


def test_obs_boundary_does_not_propagate_clock(tmp_path):
    # obs internals read clocks; the boundary must stop that from
    # tainting every instrumented function
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "obs/recorder.py": """
                import time

                def span(name):
                    return time.perf_counter()
            """,
            "mod.py": """
                from .obs.recorder import span
                from .topology import diskstore

                def entry(key):
                    span("entry")
                    diskstore.store("x", key, 1)
            """,
        },
    )
    diags = evaluate(analysis)
    assert not any(d.code == "RC503" for d in diags)
    assert "obs" in analysis.effects_of("repro.mod.entry")


def test_stale_baseline_entry_is_rc509_warning(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "mod.py": """
                def pure(x):
                    return x + 1
            """,
        },
    )
    baseline = Baseline(declared={"repro.mod.pure": {"clock": "long gone"}})
    rc509 = [d for d in evaluate(analysis, baseline) if d.code == "RC509"]
    assert len(rc509) == 1
    assert rc509[0].severity == "warning"


def test_inline_suppression_silences_an_effect_finding(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "mod.py": """
                import time

                from .topology import diskstore

                def entry(key):
                    t0 = time.perf_counter()  # repro: ignore[RC503]
                    diskstore.store("x", key, t0)
            """,
        },
    )
    assert not any(d.code == "RC503" for d in evaluate(analysis))


def test_render_baseline_excludes_hard_errors_and_keeps_reasons(tmp_path):
    analysis = _analyze_tree(
        tmp_path,
        {
            "topology/diskstore.py": _DISKSTORE,
            "mod.py": """
                import os
                import time

                from .topology import diskstore

                def entry(key):
                    t0 = time.perf_counter()
                    diskstore.store("x", key, (t0, os.environ.get("HOME")))
            """,
        },
    )
    previous = Baseline(declared={"repro.mod.entry": {"clock": "kept reason"}})
    payload = render_baseline(analysis, previous)
    assert payload["schema"] == BASELINE_SCHEMA
    assert payload["declared"]["repro.mod.entry"]["clock"] == "kept reason"
    # env-read is a hard error: never declarable, never written out
    assert "env-read" not in payload["declared"].get("repro.mod.entry", {})


def test_load_baseline_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"schema": "nope/9", "declared": {}}))
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_load_baseline_missing_explicit_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_baseline(str(tmp_path / "absent.json"))


# -- the live package against the committed baseline ------------------------


def test_live_package_is_effect_clean():
    result = effects_result()
    assert result.ok, "\n".join(d.render() for d in result.diagnostics)
    # the committed baseline must also carry no stale entries
    assert not any(d.code == "RC509" for d in result.diagnostics)


def test_live_entry_points_include_the_caching_layers():
    analysis = analyze_package()
    entries = analysis.entry_points
    assert entries.get("repro.analysis.census.decide_class") == "persisted"
    assert entries.get("repro.topology.subdivision.SubdivisionTower.level") == "persisted"
    assert entries.get("repro.topology.homology.ChainBasis.positions") == "memoized"
    assert "repro.analysis.corpus._shard_worker" in analysis.worker_entries
    assert "repro.runtime.conformance._conform_entry" in analysis.worker_entries


def test_live_census_gauge_policy_is_declared():
    analysis = analyze_package()
    assert "corpus.tasks_per_second" in analysis.declared_policies
