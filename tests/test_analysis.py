"""Unit tests for the analysis layer."""

from repro.analysis import Census, analyze_task, run_census
from repro.tasks.zoo import path_task
from repro.tasks.zoo.random_tasks import random_sparse_task


class TestTaskReport:
    def test_hourglass(self, hourglass):
        report = analyze_task(hourglass)
        assert report.solvable is False
        assert report.lap_count == 1
        assert report.n_splits == 1
        assert report.o_prime_components == 2
        assert report.canonical is True
        text = str(report)
        assert "unsolvable" in text
        assert "corollary" in text

    def test_pinwheel(self, pinwheel):
        report = analyze_task(pinwheel)
        assert report.lap_count == 9
        assert report.o_prime_components == 3
        assert report.solvable is False

    def test_identity(self, identity3):
        report = analyze_task(identity3)
        assert report.solvable is True
        assert report.lap_count == 0
        assert "Ch^0" in str(report)

    def test_two_process(self):
        report = analyze_task(path_task(3))
        assert report.solvable is True
        assert report.n_splits == 0

    def test_lines_structure(self, identity3):
        report = analyze_task(identity3)
        assert len(report.lines()) >= 7


class TestCensus:
    def test_random_population(self):
        census = run_census(range(8))
        assert census.population == 8
        assert census.solvable + census.unsolvable + census.unknown == 8
        assert sum(census.certificates.values()) == 8

    def test_sparse_population(self):
        census = run_census(range(5), generator=random_sparse_task)
        assert census.population == 5

    def test_zoo_census_certificates(self, hourglass, pinwheel, identity3):
        from repro.solvability import decide_solvability

        census = Census()
        for task in (hourglass, pinwheel, identity3):
            census.add(decide_solvability(task, max_rounds=1))
        assert census.unsolvable == 2
        assert census.solvable == 1
        assert census.certificates["witness-map"] == 1
