"""Round-trip and fault-tolerance tests for the persistent tower store.

:mod:`repro.topology.diskstore` is an accelerator, never a correctness
dependency: everything it serves must be byte-equal (as mathematics) to a
fresh recomputation, corruption must heal silently, and both disable
switches — programmatic and environment — must bypass it completely.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.analysis import CorpusConfig, run_corpus
from repro.obs import tracing
from repro.splitting.pipeline import TransformResult, link_connected_form
from repro.tasks.zoo.random_tasks import random_single_input_task
from repro.topology import diskstore
from repro.topology.complexes import SimplicialComplex
from repro.topology.subdivision import SubdivisionTower, barycentric_subdivision


@pytest.fixture()
def store(tmp_path):
    """An isolated, enabled store directory for one test."""
    path = str(tmp_path / "store")
    with diskstore.store_at(path):
        yield path


def _tower_fingerprint(result):
    """The mathematical content of a SubdivisionResult, identity-free."""
    return (
        result.base.facets,
        result.complex.facets,
        tuple((s, result.carrier(s).facets) for s in result.base.simplices()),
    )


# -- directory resolution and gating -------------------------------------------


class TestResolution:
    def test_store_at_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskstore.ENV_VAR, "/from-env")
        with diskstore.store_at(str(tmp_path / "o")) as path:
            assert diskstore.resolve_store_dir() == path
        assert diskstore.resolve_store_dir() == "/from-env"

    def test_environment_then_default(self, monkeypatch):
        monkeypatch.setenv(diskstore.ENV_VAR, "/from-env")
        assert diskstore.resolve_store_dir() == "/from-env"
        monkeypatch.delenv(diskstore.ENV_VAR)
        assert diskstore.resolve_store_dir() == diskstore.DEFAULT_DIR

    @pytest.mark.parametrize("value", ["0", "off", "FALSE", " no ", "disabled"])
    def test_off_values_disable(self, value, monkeypatch):
        monkeypatch.setenv(diskstore.ENV_VAR, value)
        assert diskstore.resolve_store_dir() is None
        assert not diskstore.store_enabled()

    def test_store_disabled_context(self, store):
        assert diskstore.store_enabled()
        with diskstore.store_disabled():
            assert not diskstore.store_enabled()
            assert diskstore.load("tower", "anykey") is None
            assert diskstore.store("tower", "anykey", object()) is None
            with diskstore.store_disabled():
                pass
            assert not diskstore.store_enabled()  # restores the outer state
        assert diskstore.store_enabled()


# -- raw load/store ------------------------------------------------------------


class TestRawRoundTrip:
    def test_round_trip(self, store):
        key = diskstore.content_hash("payload")
        assert diskstore.load("tower", key) is None  # cold miss
        path = diskstore.store("tower", key, {"answer": 42})
        assert path is not None and os.path.exists(path)
        assert diskstore.load("tower", key) == {"answer": 42}

    def test_namespaces_do_not_collide(self, store):
        key = diskstore.content_hash("same-key")
        diskstore.store("tower", key, "a tower")
        diskstore.store("transform", key, "a transform")
        assert diskstore.load("tower", key) == "a tower"
        assert diskstore.load("transform", key) == "a transform"

    def test_unpicklable_objects_are_swallowed(self, store):
        key = diskstore.content_hash("lambda")
        assert diskstore.store("tower", key, lambda: None) is None
        assert diskstore.load("tower", key) is None

    def test_content_keys_are_stable_and_distinct(self):
        k1 = SimplicialComplex([("a", "b"), ("b", "c")])
        k2 = SimplicialComplex([("b", "c"), ("a", "b")])  # same complex
        k3 = SimplicialComplex([("a", "c")])
        assert diskstore.complex_key(k1) == diskstore.complex_key(k2)
        assert diskstore.complex_key(k1) != diskstore.complex_key(k3)


# -- subdivision towers --------------------------------------------------------


class TestTowerPersistence:
    def test_cold_write_then_warm_read_is_identical(self, store):
        k = SimplicialComplex([("a", "b", "c")])
        cold = SubdivisionTower(k, barycentric_subdivision).level(2)
        # a brand-new tower (no in-memory levels) must load, not rebuild
        with tracing() as rec:
            before = rec.counters.get("diskstore.tower.hit", 0)
            warm = SubdivisionTower(k, barycentric_subdivision).level(2)
            assert rec.counters.get("diskstore.tower.hit", 0) == before + 1
        assert _tower_fingerprint(warm) == _tower_fingerprint(cold)

    def test_corrupted_entries_recompute_and_heal(self, store):
        k = SimplicialComplex([("a", "b", "c")])
        cold = SubdivisionTower(k, barycentric_subdivision).level(2)
        entries = glob.glob(os.path.join(store, "tower", "*", "*.pkl"))
        assert entries
        for path in entries:
            with open(path, "wb") as fh:
                fh.write(b"not a pickle")
        with tracing() as rec:
            before = rec.counters.get("diskstore.tower.corrupt", 0)
            again = SubdivisionTower(k, barycentric_subdivision).level(2)
            corrupted = rec.counters.get("diskstore.tower.corrupt", 0) - before
        assert corrupted >= 1
        assert _tower_fingerprint(again) == _tower_fingerprint(cold)
        # the torn entries were replaced by fresh, loadable ones
        healed = glob.glob(os.path.join(store, "tower", "*", "*.pkl"))
        assert healed
        final = SubdivisionTower(k, barycentric_subdivision).level(2)
        assert _tower_fingerprint(final) == _tower_fingerprint(cold)

    def test_store_disabled_never_touches_the_disk(self, store):
        k = SimplicialComplex([("a", "b", "c")])
        with diskstore.store_disabled():
            SubdivisionTower(k, barycentric_subdivision).level(2)
        assert not glob.glob(os.path.join(store, "tower", "*", "*.pkl"))


# -- transform and verdict caches ----------------------------------------------


class TestPipelineCaches:
    def test_transform_round_trip(self, store):
        task = random_single_input_task(3)
        cold = link_connected_form(task)
        with tracing() as rec:
            before = rec.counters.get("diskstore.transform.hit", 0)
            warm = link_connected_form(random_single_input_task(3))
            assert rec.counters.get("diskstore.transform.hit", 0) == before + 1
        assert isinstance(warm, TransformResult)
        assert warm.task.output_complex.facets == cold.task.output_complex.facets
        assert warm.n_splits == cold.n_splits

    def test_census_verdicts_round_trip(self, store, tmp_path):
        # a census stores one outcome per isomorphism class; a second run
        # on the same store loads every one of them
        config = CorpusConfig(0, 6)
        cold = run_corpus(config, str(tmp_path / "cold"))
        with tracing() as rec:
            before = rec.counters.get("diskstore.verdict.hit", 0)
            warm = run_corpus(config, str(tmp_path / "warm"))
            hits = rec.counters.get("diskstore.verdict.hit", 0) - before
        assert hits == sum(not r["dedup"] for r in warm.records) > 0
        assert warm.census.as_tuple() == cold.census.as_tuple()

    def test_census_with_store_off_matches_store_on(self, store, tmp_path):
        config = CorpusConfig(0, 6)
        with_store = run_corpus(config, str(tmp_path / "on")).census
        with diskstore.store_disabled():
            without = run_corpus(config, str(tmp_path / "off")).census
        assert without.as_tuple() == with_store.as_tuple()


# -- failure taxonomy (I/O errors vs corruption vs bugs) ------------------------


class TestFailureTaxonomy:
    """I/O errors, corruption and programming errors are three animals.

    Regression tests for the old blanket ``except Exception`` handlers:
    an ``EACCES`` on a healthy entry must not delete it, a torn pickle
    must heal, and a genuine bug must propagate instead of reading as a
    cache miss.
    """

    def test_load_io_error_keeps_entry_warns_and_counts(
        self, store, monkeypatch
    ):
        import builtins

        key = diskstore.content_hash("healthy")
        path = diskstore.store("tower", key, "a healthy value")
        assert path is not None

        real_open = builtins.open

        def denied(file, *args, **kwargs):
            if str(file).endswith(".pkl"):
                raise PermissionError(13, "permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", denied)
        with tracing() as rec:
            before = rec.counters.get("diskstore.tower.io_error", 0)
            with pytest.warns(RuntimeWarning, match="entry kept"):
                assert diskstore.load("tower", key) is None
            assert (
                rec.counters.get("diskstore.tower.io_error", 0) == before + 1
            )
        # the entry was NOT deleted: once the disk recovers, it still hits
        monkeypatch.setattr(builtins, "open", real_open)
        assert diskstore.load("tower", key) == "a healthy value"

    def test_load_corruption_heals_and_counts(self, store):
        # a torn pickle, and an older pickle whose reconstructor
        # (complexes._reconstruct_complex) no longer exists: loading it
        # raises AttributeError
        stale = (
            b"crepro.topology.complexes\n_reconstruct_complex\n"
            b"(crepro.topology.complexes\nSimplicialComplex\n)NtR."
        )
        for bad in (b"definitely not a pickle", stale):
            key = diskstore.content_hash(repr(bad))
            path = diskstore.store("tower", key, "soon torn")
            with open(path, "wb") as fh:
                fh.write(bad)
            with tracing() as rec:
                before = rec.counters.get("diskstore.tower.corrupt", 0)
                assert diskstore.load("tower", key) is None
                assert (
                    rec.counters.get("diskstore.tower.corrupt", 0) == before + 1
                )
            # healed: the bad entry is gone, a rewrite round-trips
            assert not os.path.exists(path)
            diskstore.store("tower", key, "fresh value")
            assert diskstore.load("tower", key) == "fresh value"

    def test_load_programming_errors_propagate(self, store, monkeypatch):
        import pickle as pickle_mod

        key = diskstore.content_hash("buggy-load")
        diskstore.store("tower", key, "value")

        def broken(fh):
            raise KeyError("a bug in a __setstate__ hook")

        monkeypatch.setattr(pickle_mod, "load", broken)
        with pytest.raises(KeyError, match="__setstate__"):
            diskstore.load("tower", key)

    def test_store_io_error_warns_counts_and_returns_none(
        self, store, monkeypatch
    ):
        key = diskstore.content_hash("unwritable")

        def full_disk(src, dst):
            raise OSError(28, "no space left on device", dst)

        monkeypatch.setattr(os, "replace", full_disk)
        with tracing() as rec:
            before = rec.counters.get("diskstore.tower.io_error", 0)
            with pytest.warns(RuntimeWarning, match="cannot write"):
                assert diskstore.store("tower", key, "value") is None
            assert (
                rec.counters.get("diskstore.tower.io_error", 0) == before + 1
            )
        # the failed write left no temp litter behind
        assert not glob.glob(os.path.join(store, "tower", "*", "*.tmp"))

    def test_store_unpicklable_counts(self, store):
        key = diskstore.content_hash("unpicklable")
        with tracing() as rec:
            before = rec.counters.get("diskstore.tower.unpicklable", 0)
            assert diskstore.store("tower", key, lambda: None) is None
            assert (
                rec.counters.get("diskstore.tower.unpicklable", 0)
                == before + 1
            )

    def test_store_programming_errors_propagate_and_clean_up(
        self, store, monkeypatch
    ):
        import pickle as pickle_mod

        key = diskstore.content_hash("buggy-store")

        def broken(obj, fh, protocol=None):
            raise KeyError("a bug in a __reduce__ hook")

        monkeypatch.setattr(pickle_mod, "dump", broken)
        with pytest.raises(KeyError, match="__reduce__"):
            diskstore.store("tower", key, "value")
        assert not glob.glob(os.path.join(store, "tower", "*", "*.tmp"))
