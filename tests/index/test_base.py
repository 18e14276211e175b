"""Unit tests for the StructuralIndex partition container."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidIndexError, StructuralIndexError
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.workload.random_graphs import random_cyclic


def label_blocks(graph: DataGraph) -> list[list[int]]:
    blocks: dict[str, list[int]] = {}
    for node in graph.nodes():
        blocks.setdefault(graph.label(node), []).append(node)
    return list(blocks.values())


@pytest.fixture
def indexed_figure2(figure2_graph):
    index = StructuralIndex.from_partition(figure2_graph, label_blocks(figure2_graph))
    return figure2_graph, index


class TestConstruction:
    def test_from_partition_covers_graph(self, indexed_figure2):
        graph, index = indexed_figure2
        index.check_invariants()
        assert index.num_inodes == 5  # ROOT, A, D, B, C

    def test_from_partition_rejects_mixed_labels(self, tiny_tree):
        nodes = list(tiny_tree.nodes())
        with pytest.raises(InvalidIndexError):
            StructuralIndex.from_partition(tiny_tree, [nodes])

    def test_from_partition_rejects_missing_nodes(self, tiny_tree):
        with pytest.raises(InvalidIndexError):
            StructuralIndex.from_partition(tiny_tree, [[tiny_tree.root]])

    def test_from_partition_rejects_duplicates(self, tiny_tree):
        blocks = label_blocks(tiny_tree)
        blocks.append(blocks[0])
        with pytest.raises(InvalidIndexError):
            StructuralIndex.from_partition(tiny_tree, blocks)

    def test_empty_blocks_ignored(self, tiny_tree):
        index = StructuralIndex.from_partition(
            tiny_tree, label_blocks(tiny_tree) + [[]]
        )
        index.check_invariants()


class TestLookups:
    def test_inode_of_and_extent(self, indexed_figure2):
        graph, index = indexed_figure2
        for node in graph.nodes():
            assert node in index.extent(index.inode_of(node))

    def test_uncovered_dnode_raises(self, indexed_figure2):
        _, index = indexed_figure2
        with pytest.raises(StructuralIndexError):
            index.inode_of(999)

    def test_labels(self, indexed_figure2):
        graph, index = indexed_figure2
        for inode in index.inodes():
            labels = {graph.label(w) for w in index.extent(inode)}
            assert labels == {index.label_of(inode)}


class TestIedges:
    def test_iedges_derived_from_partition(self, indexed_figure2):
        graph, index = indexed_figure2
        for source, target in graph.edges():
            assert index.has_iedge(index.inode_of(source), index.inode_of(target))

    def test_support_counts_edges(self, indexed_figure2):
        graph, index = indexed_figure2
        a_block = next(i for i in index.inodes() if index.label_of(i) == "A")
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        # dnode 1 (A) has edges to 3, 4, 5 (B): support 3
        assert index.support(a_block, b_block) == 3

    def test_succ_extent(self, indexed_figure2):
        graph, index = indexed_figure2
        a_block = next(i for i in index.inodes() if index.label_of(i) == "A")
        succ = index.succ_extent(a_block)
        assert succ == {w for n in index.extent(a_block) for w in graph.succ(n)}

    def test_note_edge_added_and_removed(self, indexed_figure2):
        graph, index = indexed_figure2
        a = graph.nodes_with_label("A")[0]
        c = graph.nodes_with_label("C")[0]
        graph.add_edge(a, c)
        index.note_edge_added(a, c)
        index.check_invariants()
        graph.remove_edge(a, c)
        index.note_edge_removed(a, c)
        index.check_invariants()

    def test_rebuild_iedges_matches_incremental(self, indexed_figure2):
        _, index = indexed_figure2
        snapshot = {i: dict(index._succ_support[i]) for i in index.inodes()}
        index.rebuild_iedges()
        assert snapshot == {i: dict(index._succ_support[i]) for i in index.inodes()}

    def test_dnode_iparents(self, indexed_figure2):
        graph, index = indexed_figure2
        five = [n for n in graph.nodes() if graph.label(n) == "B"][-1]
        parents = index.dnode_iparents(five)
        assert parents == frozenset(index.inode_of(p) for p in graph.pred(five))


class TestSurgery:
    def test_split_off(self, indexed_figure2):
        graph, index = indexed_figure2
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        member = next(iter(index.extent(b_block)))
        new = index.split_off(b_block, [member])
        assert index.extent(new) == {member}
        assert member not in index.extent(b_block)
        index.check_invariants()

    def test_split_off_whole_extent_rejected(self, indexed_figure2):
        _, index = indexed_figure2
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        with pytest.raises(StructuralIndexError):
            index.split_off(b_block, list(index.extent(b_block)))

    def test_split_off_empty_rejected(self, indexed_figure2):
        _, index = indexed_figure2
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        with pytest.raises(StructuralIndexError):
            index.split_off(b_block, [])

    def test_split_off_foreign_member_rejected(self, indexed_figure2):
        graph, index = indexed_figure2
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        with pytest.raises(StructuralIndexError):
            index.split_off(b_block, [graph.root])

    def test_merge_restores_split(self, indexed_figure2):
        _, index = indexed_figure2
        before = index.as_blocks()
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        member = next(iter(index.extent(b_block)))
        new = index.split_off(b_block, [member])
        index.merge_inodes([b_block, new])
        assert index.as_blocks() == before
        index.check_invariants()

    def test_merge_rejects_mixed_labels(self, indexed_figure2):
        _, index = indexed_figure2
        a_block = next(i for i in index.inodes() if index.label_of(i) == "A")
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        with pytest.raises(InvalidIndexError):
            index.merge_inodes([a_block, b_block])

    def test_merge_needs_two(self, indexed_figure2):
        _, index = indexed_figure2
        a_block = next(i for i in index.inodes() if index.label_of(i) == "A")
        with pytest.raises(StructuralIndexError):
            index.merge_inodes([a_block, a_block])

    def test_move_dnode_label_guard(self, indexed_figure2):
        graph, index = indexed_figure2
        a_block = next(i for i in index.inodes() if index.label_of(i) == "A")
        c = graph.nodes_with_label("C")[0]
        with pytest.raises(InvalidIndexError):
            index.move_dnode(c, a_block)

    def test_move_dnode_noop_on_same_inode(self, indexed_figure2):
        graph, index = indexed_figure2
        a = graph.nodes_with_label("A")[0]
        index.move_dnode(a, index.inode_of(a))
        index.check_invariants()

    def test_add_and_drop_dnode(self, indexed_figure2):
        graph, index = indexed_figure2
        new = graph.add_node("Z")
        inode = index.add_dnode(new)
        assert index.inode_of(new) == inode
        index.check_invariants()
        index.drop_dnode(new)
        graph.remove_node(new)
        assert not index.covers(new)
        assert not index.has_inode(inode)  # emptied singleton removed
        index.check_invariants()

    def test_add_dnode_into_existing_inode(self, indexed_figure2):
        graph, index = indexed_figure2
        b_block = next(i for i in index.inodes() if index.label_of(i) == "B")
        new = graph.add_node("B")
        assert index.add_dnode(new, b_block) == b_block
        index.check_invariants()

    def test_absorb_blocks(self, indexed_figure2):
        graph, index = indexed_figure2
        x = graph.add_node("X")
        y = graph.add_node("X")
        z = graph.add_node("Y")
        graph.add_edge(x, z)
        graph.add_edge(y, z)
        ids = index.absorb_blocks([[x, y], [z]])
        assert len(ids) == 2
        index.check_invariants()

    def test_absorb_blocks_rejects_covered(self, indexed_figure2):
        graph, index = indexed_figure2
        with pytest.raises(StructuralIndexError):
            index.absorb_blocks([[graph.root]])


class TestSelfLoops:
    def test_self_loop_support_counted_once(self):
        g = DataGraph()
        a = g.add_node("A")
        g.add_edge(a, a)
        index = StructuralIndex.from_partition(g, [[a]])
        inode = index.inode_of(a)
        assert index.support(inode, inode) == 1
        index.check_invariants()

    def test_self_iedge_merge(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_edge(a, b)
        g.add_edge(b, a)
        index = StructuralIndex.from_partition(g, [[a], [b]])
        survivor = index.merge_inodes([index.inode_of(a), index.inode_of(b)])
        assert index.support(survivor, survivor) == 2
        index.check_invariants()

    def test_move_node_with_self_loop(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_edge(a, a)
        index = StructuralIndex.from_partition(g, [[a], [b]])
        source = index.inode_of(a)
        index.move_dnode(a, index.inode_of(b))
        assert index.remove_if_empty(source)
        merged = index.inode_of(a)
        assert index.support(merged, merged) == 1
        index.check_invariants()


class TestMergeFuzz:
    def test_random_split_merge_cycles_keep_supports_exact(self):
        rng = random.Random(3)
        g = random_cyclic(rng, 30, 15)
        index = StructuralIndex.from_partition(g, label_blocks(g))
        for _ in range(60):
            inode = rng.choice(list(index.inodes()))
            extent = list(index.extent(inode))
            if len(extent) > 1 and rng.random() < 0.6:
                count = rng.randrange(1, len(extent))
                index.split_off(inode, rng.sample(extent, count))
            else:
                label = index.label_of(inode)
                same = [i for i in index.inodes() if index.label_of(i) == label]
                if len(same) > 1:
                    index.merge_inodes(rng.sample(same, 2))
            index.check_invariants()

    def test_copy_is_independent(self, indexed_figure2):
        _, index = indexed_figure2
        clone = index.copy()
        b_block = next(i for i in clone.inodes() if clone.label_of(i) == "B")
        member = next(iter(clone.extent(b_block)))
        clone.split_off(b_block, [member])
        index.check_invariants()
        clone.check_invariants()
        assert index.num_inodes + 1 == clone.num_inodes
