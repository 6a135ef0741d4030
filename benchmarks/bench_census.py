"""Population census — the obstruction species over random tasks.

Not a paper figure per se, but the quantitative backdrop of the paper's
Section 7 discussion: among random chromatic tasks, how often does each
obstruction fire, and how deep do the solvability witnesses sit?
"""

from repro.analysis import run_census
from repro.tasks.zoo.random_tasks import random_sparse_task


def test_census_dense(benchmark, report):
    census = benchmark(run_census, range(20))
    assert census.unknown == 0 or census.unknown < census.population
    report.row(
        family="dense-random",
        population=census.population,
        solvable=census.solvable,
        unsolvable=census.unsolvable,
        unknown=census.unknown,
        certificates=dict(census.certificates),
    )


def test_census_sparse(benchmark, report):
    census = benchmark(run_census, range(15), generator=random_sparse_task)
    report.row(
        family="sparse-random",
        population=census.population,
        solvable=census.solvable,
        unsolvable=census.unsolvable,
        unknown=census.unknown,
        certificates=dict(census.certificates),
    )
