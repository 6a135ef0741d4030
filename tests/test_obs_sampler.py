"""Unit tests for the background resource sampler and slope fitting.

The soak gate is only as sound as these pieces: samples must land in
the ring deterministically (injected clock, explicit timestamps), a
broken source must not kill the rest of a sample, and the least-squares
slope must be exact on synthetic series.
"""

import time

import pytest

from repro.obs.metrics import build_metrics, validate_metrics
from repro.obs.recorder import Recorder
from repro.obs.sampler import (
    ResourceSampler,
    fit_slope,
    read_rss_bytes,
    series_slopes,
)


class TestReadRss:
    def test_reads_a_plausible_resident_size(self):
        rss = read_rss_bytes()
        # a running CPython interpreter is somewhere in 1 MiB .. 100 GiB
        assert 1 << 20 < rss < 100 << 30


class TestResourceSampler:
    def test_sample_once_records_all_sources(self):
        sampler = ResourceSampler({"a": lambda: 1.0, "b": lambda: 2.0})
        values = sampler.sample_once(at=sampler._started)
        assert values == {"a": 1.0, "b": 2.0}
        assert len(sampler) == 1
        assert sampler.points("a") == [(0.0, 1.0)]

    def test_broken_source_skips_only_itself(self):
        sampler = ResourceSampler(
            {"good": lambda: 7.0, "bad": lambda: 1 / 0}
        )
        values = sampler.sample_once()
        assert values == {"good": 7.0}
        assert sampler.points("bad") == []

    def test_ring_is_bounded(self):
        sampler = ResourceSampler({"x": lambda: 0.0}, capacity=3)
        for i in range(10):
            sampler.sample_once(at=sampler._started + i)
        assert len(sampler) == 3
        assert [t for t, _ in sampler.points("x")] == [7.0, 8.0, 9.0]

    def test_series_export_is_a_valid_resources_section(self):
        sampler = ResourceSampler({"x": lambda: 5.0}, interval=0.5)
        sampler.sample_once(at=sampler._started)
        series = sampler.series()
        assert series["interval_seconds"] == 0.5
        assert series["names"] == ["x"]
        assert series["samples"] == [{"t": 0.0, "values": {"x": 5.0}}]
        payload = build_metrics(Recorder(), resources=series)
        assert validate_metrics(payload) == []

    def test_thread_samples_and_stop_appends_endpoint(self):
        counter = [0]

        def source():
            counter[0] += 1
            return float(counter[0])

        sampler = ResourceSampler({"n": source}, interval=0.01)
        with sampler:
            deadline = time.monotonic() + 2.0
            while len(sampler) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        n_after_stop = len(sampler)
        assert n_after_stop >= 3  # t=0 anchor + ticks + stop endpoint
        time.sleep(0.05)
        assert len(sampler) == n_after_stop  # the thread really stopped

    def test_start_twice_is_an_error(self):
        sampler = ResourceSampler({"x": lambda: 0.0}, interval=10.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ResourceSampler({}, interval=0.0)
        with pytest.raises(ValueError):
            ResourceSampler({}, capacity=0)


class TestFitSlope:
    def test_exact_on_a_line(self):
        points = [(float(t), 3.0 * t + 10.0) for t in range(10)]
        assert fit_slope(points) == pytest.approx(3.0)

    def test_flat_series_is_zero(self):
        assert fit_slope([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]) == 0.0

    def test_degenerate_inputs_read_as_no_growth(self):
        assert fit_slope([]) == 0.0
        assert fit_slope([(1.0, 2.0)]) == 0.0
        assert fit_slope([(1.0, 2.0), (1.0, 9.0)]) == 0.0  # zero t-variance

    def test_sawtooth_noise_averages_out(self):
        # +/-1 sawtooth around a flat line: max-min would say "growth 2",
        # least squares says ~0
        points = [(float(t), 100.0 + (1.0 if t % 2 else -1.0)) for t in range(20)]
        assert abs(fit_slope(points)) < 0.05


class TestSeriesSlopes:
    def _resources(self, n=20, slope=2.0, warm_bump=50.0):
        samples = []
        for t in range(n):
            value = slope * t + (warm_bump if t < 3 else 0.0)
            samples.append({"t": float(t), "values": {"x": value}})
        return {"samples": samples}

    def test_warmup_fraction_excludes_the_transient(self):
        slopes = series_slopes(self._resources(), warmup_fraction=0.25)
        assert slopes["x"] == pytest.approx(2.0)

    def test_zero_warmup_sees_the_transient(self):
        biased = series_slopes(self._resources(), warmup_fraction=0.0)["x"]
        clean = series_slopes(self._resources(), warmup_fraction=0.25)["x"]
        assert abs(biased - 2.0) > abs(clean - 2.0)

    def test_empty_resources_yield_no_slopes(self):
        assert series_slopes({"samples": []}) == {}
        assert series_slopes({}) == {}

    def test_rejects_bad_warmup_fraction(self):
        with pytest.raises(ValueError):
            series_slopes(self._resources(), warmup_fraction=1.0)
