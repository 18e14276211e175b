"""Unit tests for the quality metric (Section 3)."""

from __future__ import annotations

import pytest

from repro.index.akindex import AkIndexFamily
from repro.index.construction import label_partition, partition_index
from repro.index.oneindex import OneIndex
from repro.index.stability import minimum_1index_size, minimum_ak_size
from repro.metrics.quality import (
    ak_family_quality,
    ak_index_quality,
    one_index_quality,
    quality_from_sizes,
)


class TestQualityFromSizes:
    def test_zero_at_minimum(self):
        assert quality_from_sizes(100, 100) == 0.0

    def test_five_percent(self):
        assert quality_from_sizes(105, 100) == pytest.approx(0.05)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            quality_from_sizes(99, 100)

    def test_zero_minimum_rejected(self):
        with pytest.raises(ValueError):
            quality_from_sizes(5, 0)


class TestIndexQuality:
    def test_fresh_1index_has_zero_quality(self, figure2_graph):
        index = OneIndex.build(figure2_graph)
        assert one_index_quality(index) == 0.0

    def test_discrete_partition_quality(self, figure2_graph):
        discrete = partition_index(
            figure2_graph, {n: n for n in figure2_graph.nodes()}
        )
        n = figure2_graph.num_nodes
        minimum = minimum_1index_size(figure2_graph)
        assert one_index_quality(discrete) == pytest.approx(n / minimum - 1)

    def test_ak_quality(self, figure2_graph):
        from repro.index.construction import ak_class_maps, blocks_of
        from repro.index.base import StructuralIndex

        index = StructuralIndex.from_partition(
            figure2_graph, blocks_of(ak_class_maps(figure2_graph, 2)[2])
        )
        assert ak_index_quality(index, 2) == 0.0
        # the label partition viewed as an A(0)-index is also minimum
        a0 = partition_index(figure2_graph, label_partition(figure2_graph))
        assert ak_index_quality(a0, 0) == 0.0

    def test_family_quality(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 3)
        assert ak_family_quality(family) == 0.0

    def test_minimum_size_helpers_agree(self, figure2_graph):
        deep = minimum_ak_size(figure2_graph, 10)
        assert deep == minimum_1index_size(figure2_graph)
