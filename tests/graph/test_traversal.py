"""Unit tests for traversal and structure utilities."""

from __future__ import annotations

import random

import pytest

from repro.graph.datagraph import DataGraph
from repro.graph.traversal import (
    descendants_within,
    is_acyclic,
    strongly_connected_components,
)
from repro.workload.random_graphs import random_cyclic, random_dag


@pytest.fixture
def chain() -> tuple[DataGraph, list[int]]:
    g = DataGraph()
    nodes = [g.add_root()]
    for i in range(4):
        node = g.add_node(f"N{i}")
        g.add_edge(nodes[-1], node)
        nodes.append(node)
    return g, nodes


class TestDescendantsWithin:
    def test_depth_zero_is_empty(self, chain):
        g, nodes = chain
        assert descendants_within(g, nodes[0], 0) == set()

    def test_depth_limits(self, chain):
        g, nodes = chain
        assert descendants_within(g, nodes[0], 2) == set(nodes[1:3])
        assert descendants_within(g, nodes[0], 10) == set(nodes[1:])

    def test_excludes_start_even_on_cycles(self):
        g = DataGraph()
        a = g.add_node("A")
        b = g.add_node("B")
        g.add_edge(a, b)
        g.add_edge(b, a)
        assert descendants_within(g, a, 5) == {b}


class TestAcyclicity:
    def test_dag_detected(self, diamond_dag):
        assert is_acyclic(diamond_dag)

    def test_cycle_detected(self, figure4_graph):
        assert not is_acyclic(figure4_graph)

    def test_random_dags_are_acyclic(self):
        rng = random.Random(5)
        for _ in range(10):
            assert is_acyclic(random_dag(rng, 30, 10))


class TestScc:
    def test_sccs_partition_nodes(self, figure4_graph):
        comps = strongly_connected_components(figure4_graph)
        all_nodes = set().union(*comps)
        assert all_nodes == set(figure4_graph.nodes())
        assert sum(len(c) for c in comps) == figure4_graph.num_nodes

    def test_two_cycles_found(self, figure4_graph):
        comps = strongly_connected_components(figure4_graph)
        big = [c for c in comps if len(c) > 1]
        assert len(big) == 2
        assert all(len(c) == 2 for c in big)

    def test_dag_has_singleton_sccs(self, diamond_dag):
        comps = strongly_connected_components(diamond_dag)
        assert all(len(c) == 1 for c in comps)

    def test_scc_on_random_cyclic_consistent_with_acyclicity(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_cyclic(rng, 25, 12)
            has_big = any(
                len(c) > 1 for c in strongly_connected_components(g)
            ) or any(g.has_edge(n, n) for n in g.nodes())
            assert has_big == (not is_acyclic(g))
