"""Call-graph construction (`repro.check.callgraph`).

Half of these tests build graphs over synthetic package trees (pinning
resolution rules in isolation); the other half spot-check the graph of
the live package, so resolution regressions surface on real code.
"""

import os
import textwrap

import pytest

from repro.check.callgraph import (
    build_call_graph,
    find_path,
    iter_reachable,
    module_name,
)


def _write_tree(root, files):
    for rel, source in files.items():
        full = os.path.join(root, rel.replace("/", os.sep))
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(source))
    return str(root)


def test_module_name_mapping():
    assert module_name("analysis/census.py") == "repro.analysis.census"
    assert module_name("tasks/zoo/__init__.py") == "repro.tasks.zoo"
    assert module_name("io.py") == "repro.io"


def test_local_and_imported_calls_resolve(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "alpha.py": """
                from .beta import helper

                def top():
                    helper()
                    local()

                def local():
                    pass
            """,
            "beta.py": """
                def helper():
                    pass
            """,
        },
    )
    g = build_call_graph(root)
    callees = {s.callee for s in g.callees("repro.alpha.top")}
    assert "repro.beta.helper" in callees
    assert "repro.alpha.local" in callees


def test_method_resolution_through_self_and_bases(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "shapes.py": """
                class Base:
                    def area(self):
                        return 0

                class Square(Base):
                    def describe(self):
                        return self.area()
            """,
        },
    )
    g = build_call_graph(root)
    callees = {s.callee for s in g.callees("repro.shapes.Square.describe")}
    assert "repro.shapes.Base.area" in callees


def test_constructor_edges_reach_new_and_init(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "things.py": """
                class Thing:
                    def __new__(cls):
                        return super().__new__(cls)

                    def __init__(self):
                        self.x = 1

                def make():
                    return Thing()
            """,
        },
    )
    g = build_call_graph(root)
    callees = {s.callee for s in g.callees("repro.things.make")}
    assert "repro.things.Thing.__new__" in callees
    assert "repro.things.Thing.__init__" in callees


def test_dispatch_table_references_become_edges(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "rules.py": """
                def rule_a(x):
                    return x

                def rule_b(x):
                    return x

                RULES = (rule_a, rule_b)

                def apply_all(x):
                    for rule in RULES:
                        rule(x)
            """,
        },
    )
    g = build_call_graph(root)
    callees = {s.callee for s in g.callees("repro.rules.apply_all")}
    assert "repro.rules.rule_a" in callees
    assert "repro.rules.rule_b" in callees


def test_find_path_is_shortest(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "chain.py": """
                def a():
                    b()
                    c()

                def b():
                    c()

                def c():
                    pass
            """,
        },
    )
    g = build_call_graph(root)
    assert find_path(g, "repro.chain.a", "repro.chain.c") == [
        "repro.chain.a",
        "repro.chain.c",
    ]
    assert find_path(g, "repro.chain.c", "repro.chain.a") is None


def test_iter_reachable_covers_transitive_closure(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "chain.py": """
                def a():
                    b()

                def b():
                    c()

                def c():
                    pass

                def island():
                    pass
            """,
        },
    )
    g = build_call_graph(root)
    reach = set(iter_reachable(g, "repro.chain.a"))
    assert {"repro.chain.a", "repro.chain.b", "repro.chain.c"} <= reach
    assert "repro.chain.island" not in reach


# -- the live package -------------------------------------------------------


@pytest.fixture(scope="module")
def live_graph():
    return build_call_graph()


def test_live_graph_has_core_functions(live_graph):
    assert "repro.solvability.decision.decide_solvability" in live_graph.functions
    assert "repro.analysis.census.run_census" in live_graph.functions


def test_live_decide_reaches_obstruction_checks(live_graph):
    # the OBSTRUCTION_CHECKS dispatch table must produce real edges, or
    # the effect analysis would silently skip the whole obstruction layer
    reach = set(
        iter_reachable(live_graph, "repro.solvability.decision.decide_solvability")
    )
    assert "repro.solvability.obstructions.corollary_5_5" in reach


def test_live_census_store_path(live_graph):
    path = find_path(
        live_graph,
        "repro.analysis.census.decide_class",
        "repro.topology.diskstore.load",
    )
    assert path is not None and len(path) == 2
