"""Unit tests for the touched-set accumulator (incremental publication).

The contract (DESIGN.md §8): after any journaled batch, the
:class:`TouchedSet` must hold a **superset** of the dnodes/inodes whose
frozen-snapshot entry would differ from the previous version — including
after rollback (conservative: the touches stay) and after a wholesale
rebuild (``full`` forces the next publish to a complete capture).
"""

from __future__ import annotations

import pytest

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.index.akindex import AkIndexFamily
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    GuardedMaintainer,
    Transaction,
    TouchedSet,
)


def build_graph() -> tuple[DataGraph, dict[str, int]]:
    graph = DataGraph()
    root = graph.add_root()
    a1 = graph.add_node("a")
    a2 = graph.add_node("a")
    b1 = graph.add_node("b")
    b2 = graph.add_node("b")
    graph.add_edge(root, a1)
    graph.add_edge(root, a2)
    graph.add_edge(a1, b1)
    graph.add_edge(a2, b2)
    return graph, {"root": root, "a1": a1, "a2": a2, "b1": b1, "b2": b2}


class TestGraphTouches:
    def test_edge_ops_touch_both_endpoints(self):
        graph, n = build_graph()
        touched = TouchedSet()
        with Transaction(graph, touched=touched):
            graph.add_edge(n["b1"], n["b2"], EdgeKind.IDREF)
            graph.remove_edge(n["a1"], n["b1"])
        assert {n["b1"], n["b2"], n["a1"]} <= touched.dnodes

    def test_node_ops_touch_the_node(self):
        graph, n = build_graph()
        touched = TouchedSet()
        with Transaction(graph, touched=touched):
            new = graph.add_node("z")
            graph.relabel_node(n["b2"], "B")
            graph.set_value(n["a2"], 7)
        assert {new, n["b2"], n["a2"]} <= touched.dnodes

    def test_removed_node_stays_touched(self):
        graph, n = build_graph()
        touched = TouchedSet()
        with Transaction(graph, touched=touched):
            graph.remove_edge(n["a1"], n["b1"])
            graph.remove_node(n["b1"])
        # the dead dnode must be touched so evolve drops its entry
        assert n["b1"] in touched.dnodes

    def test_rollback_keeps_touches(self):
        graph, n = build_graph()
        touched = TouchedSet()
        with pytest.raises(ValueError):
            with Transaction(graph, touched=touched):
                graph.add_edge(n["b1"], n["b2"], EdgeKind.IDREF)
                raise ValueError("abort")
        # conservative superset: recapturing an unchanged dnode is safe,
        # missing a changed one is not — rollback keeps the touches
        assert {n["b1"], n["b2"]} <= touched.dnodes


class TestIndexTouches:
    def test_split_touches_mover_and_neighbourhood(self):
        graph, n = build_graph()
        index = OneIndex.build(graph)
        b_inode = index.inode_of(n["b1"])
        a_inode = index.inode_of(n["a1"])
        touched = TouchedSet()
        with Transaction(graph, index, touched=touched):
            new = index.split_off(b_inode, {n["b1"]})
        # the split block, the new block, and the parents whose iedge
        # sets now point at the new block
        assert {b_inode, new, a_inode} <= touched.inodes

    def test_merge_touches_survivor_other_and_third_parties(self):
        graph, n = build_graph()
        index = OneIndex.build(graph)
        b_inode = index.inode_of(n["b1"])
        split = index.split_off(b_inode, {n["b1"]})
        a_inode = index.inode_of(n["a1"])
        touched = TouchedSet()
        with Transaction(graph, index, touched=touched):
            index.merge_inodes([b_inode, split])
        assert {b_inode, split} <= touched.inodes
        # the parents' support tables were rewritten by the fold
        assert a_inode in touched.inodes


class TestLifecycle:
    def test_mark_all_short_circuits(self):
        touched = TouchedSet()
        touched.mark_all()
        assert touched.full and bool(touched)
        graph, n = build_graph()
        with Transaction(graph, touched=touched):
            graph.add_node("z")
        # full means "recapture everything": fine-grained tracking stops
        assert touched.dnodes == set()

    def test_clear_resets_everything(self):
        touched = TouchedSet()
        touched.dnodes.add(1)
        touched.inodes.add(2)
        touched.moved.add(3)
        touched.tokens.add((0, 4))
        touched.mark_all()
        touched.clear()
        assert not touched
        assert not touched.full
        assert not (touched.dnodes or touched.inodes or touched.moved or touched.tokens)

    def test_empty_is_falsy(self):
        assert not TouchedSet()


class TestAkLeafReporting:
    """Leaf membership changes reach the touched set through the journal."""

    def make(self, k: int):
        graph, n = build_graph()
        family = AkIndexFamily.build(graph, k)
        return graph, AkSplitMergeMaintainer(family), n, TouchedSet()

    def test_insert_node_reports_leaf_move_at_k0(self):
        graph, maintainer, n, touched = self.make(0)
        with Transaction(graph, maintainer.family, touched=touched):
            new, _ = maintainer.insert_node(n["a1"], "b")
        token = maintainer.family.levels[0].class_of[new]
        assert new in touched.moved
        assert (0, token) in touched.tokens
        assert token in touched.inodes  # level 0 is the leaf here

    def test_delete_node_reports_departure(self):
        graph, maintainer, n, touched = self.make(2)
        old_token = maintainer.family.levels[2].class_of[n["b1"]]
        with Transaction(graph, maintainer.family, touched=touched):
            maintainer.delete_node(n["b1"])
        assert n["b1"] in touched.moved
        assert (2, old_token) in touched.tokens
        assert old_token in touched.inodes

    def test_only_leaf_classes_are_touched_inodes(self):
        graph, maintainer, n, touched = self.make(2)
        leaf = maintainer.family.levels[2].extents
        before = set(leaf)
        with Transaction(graph, maintainer.family, touched=touched):
            maintainer.insert_edge(n["root"], n["b1"], EdgeKind.IDREF)  # splits b1 off
        assert {level for level, _ in touched.tokens} >= {1, 2}
        # (tokens of the other levels share the leaf's number space: the
        # set below holds nothing a leaf-level record did not name)
        assert touched.inodes <= before | set(leaf)
        assert touched.inodes >= before ^ set(leaf)

    def test_rebuild_marks_full(self):
        graph, maintainer, n, touched = self.make(2)
        guard = GuardedMaintainer(
            maintainer, GuardConfig(policy="degrade"), FaultInjector(at_record=1)
        )
        guard.track_touched(touched)
        guard.apply_batch([("insert_edge", (n["a1"], n["b2"], EdgeKind.IDREF))])
        assert guard.stats.degradations == 1 and touched.full
