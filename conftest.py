"""Repo-level pytest plumbing shared by the test and benchmark trees.

``--benchmark-smoke`` shrinks the ``perf``-marked benches
(``benchmarks/bench_obs.py``) to tiny inputs, so
``pytest benchmarks -m perf --benchmark-smoke`` checks that they run
without the full-size measurement cost.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--benchmark-smoke",
        action="store_true",
        default=False,
        help="run perf benchmarks on tiny populations (schema/no-crash check)",
    )


@pytest.fixture
def smoke(request) -> bool:
    """True when ``--benchmark-smoke`` asked for the down-scaled perf run."""
    return bool(request.config.getoption("--benchmark-smoke"))
