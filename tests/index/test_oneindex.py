"""Unit tests for the OneIndex veneer."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidIndexError
from repro.graph.datagraph import DataGraph
from repro.index.construction import stabilize_from_labels
from repro.index.oneindex import OneIndex
from repro.index.stability import is_minimum_1index, is_valid_1index
from repro.workload.random_graphs import random_cyclic


class TestBuild:
    def test_signature_build_is_minimum(self, figure2_graph):
        index = OneIndex.build(figure2_graph)
        assert is_minimum_1index(index)

    def test_worklist_build_matches(self, figure2_graph):
        signature = OneIndex.build(figure2_graph)
        assert signature.as_blocks() == stabilize_from_labels(figure2_graph).as_blocks()

    def test_build_on_cyclic(self, figure4_graph):
        index = OneIndex.build(figure4_graph)
        assert is_valid_1index(index)
        assert is_minimum_1index(index)

    @pytest.mark.parametrize("seed", range(5))
    def test_build_random(self, seed):
        g = random_cyclic(random.Random(seed), 40, 15)
        index = OneIndex.build(g)
        assert is_valid_1index(index)
        assert is_minimum_1index(index)


class TestHelpers:
    def test_copy_preserves_type_and_blocks(self, figure2_graph):
        index = OneIndex.build(figure2_graph)
        clone = index.copy()
        assert isinstance(clone, OneIndex)
        assert clone.as_blocks() == index.as_blocks()

    def test_compression_ratio(self, figure2_graph):
        index = OneIndex.build(figure2_graph)
        assert index.compression_ratio() == pytest.approx(
            index.num_inodes / figure2_graph.num_nodes
        )

    def test_compression_ratio_empty_graph(self):
        g = DataGraph()
        index = OneIndex(g)
        with pytest.raises(InvalidIndexError):
            index.compression_ratio()

    def test_from_partition_returns_oneindex(self, figure2_graph):
        blocks = [[n] for n in figure2_graph.nodes()]
        index = OneIndex.from_partition(figure2_graph, blocks)
        assert isinstance(index, OneIndex)
