"""The load-generator half of the client: workloads, percentiles."""

from __future__ import annotations

import pytest

from repro.service.client import (
    DEFAULT_SPEC_POOL,
    _split_url,
    make_workload,
    percentile,
    workload_duplication,
    zipf_weights,
)


class TestSplitUrl:
    def test_scheme_optional(self):
        assert _split_url("http://127.0.0.1:8642") == ("127.0.0.1", 8642)
        assert _split_url("127.0.0.1:8642/") == ("127.0.0.1", 8642)

    @pytest.mark.parametrize("bad", ["localhost", "http://", ":99", "a:b"])
    def test_malformed_urls_raise(self, bad):
        with pytest.raises(ValueError):
            _split_url(bad)


class TestWorkload:
    def test_seeded_streams_replay_identically(self):
        a = make_workload(50, seed=7)
        b = make_workload(50, seed=7)
        assert a == b
        assert make_workload(50, seed=8) != a

    def test_zipf_skew_produces_duplicate_heavy_traffic(self):
        stream = make_workload(120, seed=0)
        assert workload_duplication(stream) >= 10.0

    def test_specs_come_from_the_pool(self):
        stream = make_workload(30, pool=("consensus", "fork"), seed=0)
        assert {r["task"] for r in stream} <= {"consensus", "fork"}
        assert all(r["op"] == "decide" for r in stream)

    def test_default_pool_names_resolve(self):
        from repro.service.execution import ZOO

        assert set(DEFAULT_SPEC_POOL) <= set(ZOO)

    def test_zipf_weights_decrease(self):
        weights = zipf_weights(5, skew=1.2)
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile(values, 0) == 1.0
        # odd lengths: rank ceil(p/100 * n), where round-half-even read
        # one rank low
        five = [float(v) for v in range(1, 6)]
        assert percentile(five, 50) == 3.0
        assert percentile(five, 90) == 5.0
        nine = [float(v) for v in range(1, 10)]
        assert percentile(nine, 50) == 5.0
        assert percentile(nine, 90) == 9.0
        big = [float(v) for v in range(1, 151)]
        assert percentile(big, 50) == 75.0
        assert percentile(big, 90) == 135.0
        assert percentile(big, 99) == 149.0

    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 150)
