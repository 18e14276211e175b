"""Unit tests for the A(k)-index family and its refinement tree."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidIndexError, StructuralIndexError
from repro.index.akindex import AkIndexFamily
from repro.index.construction import ak_class_maps
from repro.index.stability import is_minimum_ak
from repro.workload.random_graphs import random_cyclic


class TestBuild:
    def test_build_is_minimum_per_level(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 3)
        family.check_invariants()
        assert family.is_minimum()

    def test_sizes_monotone_in_level(self, figure4_graph):
        family = AkIndexFamily.build(figure4_graph, 4)
        sizes = family.sizes()
        assert sizes == sorted(sizes)

    def test_k_zero_family(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 0)
        family.check_invariants()
        assert family.sizes() == [5]

    def test_negative_k_rejected(self, figure2_graph):
        with pytest.raises(ValueError):
            AkIndexFamily.build(figure2_graph, -1)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        g = random_cyclic(random.Random(seed), 35, 12)
        family = AkIndexFamily.build(g, 3)
        family.check_invariants()
        assert family.is_minimum()


class TestTree:
    def test_parent_contains_child_extent(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 3)
        for level in range(1, 4):
            for token in family.tokens_at(level):
                parent = family.parent_of(level, token)
                assert family.extent_at(level, token) <= family.extent_at(
                    level - 1, parent
                )

    def test_children_partition_parent(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 3)
        for level in range(3):
            for token in family.tokens_at(level):
                union: set[int] = set()
                for child in family.children_of(level, token):
                    child_extent = family.extent_at(level + 1, child)
                    assert not (union & child_extent)
                    union |= child_extent
                assert union == family.extent_at(level, token)

    def test_level_bounds_enforced(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        with pytest.raises(InvalidIndexError):
            family.num_inodes(3)
        with pytest.raises(StructuralIndexError):
            family.parent_of(0, next(family.tokens_at(0)))
        with pytest.raises(StructuralIndexError):
            family.children_of(2, next(family.tokens_at(2)))

    def test_class_at_and_labels(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        for node in figure2_graph.nodes():
            token = family.class_at(2, node)
            assert node in family.extent_at(2, token)
            assert family.label_of(2, token) == figure2_graph.label(node)

    def test_class_at_unknown_dnode(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 1)
        with pytest.raises(StructuralIndexError):
            family.class_at(1, 424242)


class TestMaterialisation:
    def test_level_index_matches_class_map(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        index = family.level_index()
        index.check_invariants()
        assert is_minimum_ak(index, 2)

    def test_level_index_of_level_zero(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        index = family.level_index(0)
        assert index.num_inodes == family.num_inodes(0)

    def test_iedge_counts(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        index = family.level_index(2)
        assert family.count_intra_iedges(2) == index.num_iedges

    def test_inter_iedges_bounded_by_edges(self, figure4_graph):
        family = AkIndexFamily.build(figure4_graph, 3)
        assert family.count_inter_iedges() <= 3 * figure4_graph.num_edges
