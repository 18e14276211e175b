"""Unit tests for the propagate baseline."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import MaintenanceError
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.index.stability import (
    is_minimal_1index,
    is_valid_1index,
    minimum_1index_size,
)
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.workload.random_graphs import candidate_edges, random_dag


class TestCorrectness:
    def test_insert_keeps_index_valid(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = PropagateMaintainer(index)
        stats = maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert is_valid_1index(index)
        assert stats.splits == 2
        assert stats.merges == 0  # propagate never merges

    def test_insert_leaves_mergeable_inodes_behind(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        PropagateMaintainer(index).insert_edge(
            figure2_builder.oid(2), figure2_builder.oid(4)
        )
        # valid but NOT minimal: {4} and {5} (and {7}, {8}) should merge
        assert not is_minimal_1index(index)
        assert index.num_inodes == minimum_1index_size(graph) + 2

    def test_delete_keeps_index_valid(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = PropagateMaintainer(index)
        stats = maintainer.delete_edge(figure2_builder.oid(2), figure2_builder.oid(5))
        assert is_valid_1index(index)
        assert stats.merges == 0

    def test_trivial_paths_match_split_merge(self):
        b = (
            GraphBuilder()
            .node("a1", "A").node("a2", "A").node("b1", "B")
            .edge("root", "a1").edge("root", "a2")
            .edge("a1", "b1").edge("a2", "b1")
        )
        graph = b.build()
        index = OneIndex.build(graph)
        maintainer = PropagateMaintainer(index)
        stats = maintainer.delete_edge(b.oid("a2"), b.oid("b1"))
        assert stats.trivial


class TestDegradation:
    def test_index_never_smaller_than_split_merge(self):
        """Propagate's index size dominates split/merge's along any run."""
        rng = random.Random(7)
        g1 = random_dag(rng, 60, 20)
        g2 = g1.copy()
        sm = SplitMergeMaintainer(OneIndex.build(g1))
        pr = PropagateMaintainer(OneIndex.build(g2))
        edges = candidate_edges(g1, random.Random(8), 15, acyclic=True)
        for u, v in edges:
            sm.insert_edge(u, v)
            pr.insert_edge(u, v)
            assert pr.index_size() >= sm.index_size()
            assert is_valid_1index(pr.index)

    def test_split_only_growth_is_monotone_under_inserts(self):
        rng = random.Random(21)
        g = random_dag(rng, 50, 15)
        maintainer = PropagateMaintainer(OneIndex.build(g))
        sizes = [maintainer.index_size()]
        for u, v in candidate_edges(g, rng, 10, acyclic=True):
            maintainer.insert_edge(u, v)
            sizes.append(maintainer.index_size())
        assert sizes == sorted(sizes)


class TestSubgraphAddition:
    def test_propagate_subgraph_addition_valid_but_not_minimal(self):
        host = GraphBuilder().edge("root", "hook").build()
        hook = host.nodes_with_label("hook")[0]
        sub = DataGraph()
        s_root = sub.add_node("S", oid=500)
        child = sub.add_node("C", oid=501)
        sub.add_edge(s_root, child)
        index = OneIndex.build(host)
        maintainer = PropagateMaintainer(index)
        mapping, stats = maintainer.add_subgraph(sub, s_root, [(hook, s_root)])
        assert is_valid_1index(index)
        assert index.covers(mapping[s_root])
        del stats


MAINTAINERS = {
    "propagate": lambda graph: PropagateMaintainer(OneIndex.build(graph)),
    "split/merge": lambda graph: SplitMergeMaintainer(OneIndex.build(graph)),
    "A(2) split/merge": lambda graph: AkSplitMergeMaintainer(AkIndexFamily.build(graph, 2)),
}


@pytest.mark.parametrize("name", MAINTAINERS)
class TestEveryMaintainerAddsASubgraphTheSameWay:
    """Figure 6's first step is shared, so its input handling is too."""

    def test_cross_edges_may_come_from_an_iterator(self, name, figure2_builder):
        graph = figure2_builder.build()
        maintainer = MAINTAINERS[name](graph)
        sub = DataGraph()
        s_root = sub.add_node("S", oid=500)
        leaf = sub.add_node("C", oid=501)
        sub.add_edge(s_root, leaf)
        edges = [
            (figure2_builder.oid(1), s_root),
            (figure2_builder.oid(2), s_root),
            (leaf, figure2_builder.oid(8)),
        ]
        mapping, _ = maintainer.add_subgraph(sub, s_root, (edge for edge in edges))
        for a, b in edges:
            assert graph.has_edge(mapping.get(a, a), mapping.get(b, b))
        maintainer.structure.check_invariants()

    def test_an_empty_subgraph_is_refused(self, name, figure2_graph):
        maintainer = MAINTAINERS[name](figure2_graph)
        before = figure2_graph.num_nodes
        with pytest.raises(MaintenanceError, match="empty subgraph"):
            maintainer.add_subgraph(DataGraph(), 0)
        assert figure2_graph.num_nodes == before
