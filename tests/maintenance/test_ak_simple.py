"""Unit tests for the simple A(k) baseline."""

from __future__ import annotations

import random

import pytest

from repro.graph.builder import GraphBuilder
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.index.stability import minimum_ak_size
from repro.maintenance.ak_simple import SimpleAkMaintainer
from repro.workload.random_graphs import candidate_edges, random_dag


def fresh_ak_index(graph, k):
    return StructuralIndex.from_partition(graph, blocks_of(ak_class_maps(graph, k)[k]))


def is_valid_ak(index, graph, k) -> bool:
    """Every inode extent sits inside one true k-bisimilarity class."""
    minimum = ak_class_maps(graph, k)[k]
    return all(len({minimum[w] for w in block}) == 1 for block in index.as_blocks())


@pytest.fixture
def maintained(figure2_builder):
    graph = figure2_builder.build()
    index = fresh_ak_index(graph, 2)
    return figure2_builder, graph, index, SimpleAkMaintainer(index, 2)


class TestCorrectness:
    def test_insert_keeps_index_valid(self, maintained):
        b, graph, index, maintainer = maintained
        maintainer.insert_edge(b.oid(2), b.oid(4))
        index.check_invariants()
        assert is_valid_ak(index, graph, 2)

    def test_delete_keeps_index_valid(self, maintained):
        b, graph, index, maintainer = maintained
        maintainer.delete_edge(b.oid(2), b.oid(5))
        index.check_invariants()
        assert is_valid_ak(index, graph, 2)

    def test_never_merges_so_size_is_monotone_under_inserts(self):
        rng = random.Random(3)
        graph = random_dag(rng, 40, 10)
        index = fresh_ak_index(graph, 2)
        maintainer = SimpleAkMaintainer(index, 2)
        sizes = [index.num_inodes]
        for u, v in candidate_edges(graph, rng, 10, acyclic=True):
            maintainer.insert_edge(u, v)
            sizes.append(index.num_inodes)
            assert is_valid_ak(index, graph, 2)
        assert sizes == sorted(sizes)

    def test_accumulates_excess_nodes(self):
        """The Figure 13 phenomenon: quality degrades without merges."""
        rng = random.Random(17)
        graph = random_dag(rng, 50, 15)
        index = fresh_ak_index(graph, 2)
        maintainer = SimpleAkMaintainer(index, 2)
        edges = candidate_edges(graph, rng, 10, acyclic=True)
        for u, v in edges:
            maintainer.insert_edge(u, v)
        for u, v in edges:
            maintainer.delete_edge(u, v)
        # back at the original graph: any excess is pure degradation
        assert index.num_inodes >= minimum_ak_size(graph, 2)

    def test_reconstruct_restores_minimum(self, maintained):
        b, graph, index, maintainer = maintained
        maintainer.insert_edge(b.oid(2), b.oid(4))
        maintainer.delete_edge(b.oid(2), b.oid(4))
        maintainer.reconstruct()
        index.check_invariants()
        assert index.num_inodes == minimum_ak_size(graph, 2)


class TestSignatureRecursion:
    def test_sigs_separate_exactly_the_k_classes(self, figure2_graph):
        index = fresh_ak_index(figure2_graph, 2)
        maintainer = SimpleAkMaintainer(index, 2)
        classes = ak_class_maps(figure2_graph, 2)[2]
        sig_of = {n: maintainer._ksig(n, 2) for n in figure2_graph.nodes()}
        for a in figure2_graph.nodes():
            for b in figure2_graph.nodes():
                assert (sig_of[a] == sig_of[b]) == (classes[a] == classes[b])


class TestAffectedRegion:
    def test_far_away_nodes_untouched(self):
        # a long chain: updates at the top only affect depth k-1
        builder = GraphBuilder()
        previous = "root"
        for i in range(8):
            builder.node(f"n{i}", f"L{i % 2}")
            builder.edge(previous, f"n{i}")
            previous = f"n{i}"
        builder.node("side", "S")
        builder.edge("root", "side")
        graph = builder.build()
        k = 2
        index = fresh_ak_index(graph, k)
        maintainer = SimpleAkMaintainer(index, k)
        deep = builder.oid("n6")
        inode_before = index.inode_of(deep)
        maintainer.insert_edge(builder.oid("side"), builder.oid("n0"))
        assert index.inode_of(deep) == inode_before
