"""Unit tests for the core data-graph model."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    RootError,
)
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind


class TestNodes:
    def test_add_node_allocates_fresh_oids(self):
        g = DataGraph()
        a = g.add_node("A")
        b = g.add_node("B")
        assert a != b
        assert g.label(a) == "A"
        assert g.label(b) == "B"

    def test_add_node_with_explicit_oid(self):
        g = DataGraph()
        assert g.add_node("A", oid=42) == 42
        # fresh allocation continues past explicit oids
        assert g.add_node("B") == 43

    def test_duplicate_explicit_oid_rejected(self):
        g = DataGraph()
        g.add_node("A", oid=5)
        with pytest.raises(DuplicateNodeError):
            g.add_node("B", oid=5)

    def test_label_must_be_string(self):
        g = DataGraph()
        with pytest.raises(TypeError):
            g.add_node(7)  # type: ignore[arg-type]

    def test_values_roundtrip_and_clear(self):
        g = DataGraph()
        a = g.add_node("A", value=10)
        assert g.value(a) == 10
        g.set_value(a, "text")
        assert g.value(a) == "text"
        g.set_value(a, None)
        assert g.value(a) is None

    def test_missing_node_raises(self):
        g = DataGraph()
        with pytest.raises(NodeNotFoundError):
            g.label(99)
        with pytest.raises(NodeNotFoundError):
            g.succ(99)

    def test_a_bool_is_no_oid(self):
        """``True`` never reads as node 1, whichever method looks it up."""
        g = DataGraph()
        a, b = g.add_node("A", oid=1), g.add_node("B", oid=2)
        g.add_edge(a, b)
        assert not g.has_node(True) and True not in g
        assert not g.has_edge(True, b) and not g.has_edge(0, True)
        for lookup in (g.label, g.value, g.succ, g.pred, g.out_degree):
            with pytest.raises(NodeNotFoundError):
                lookup(True)
        with pytest.raises(NodeNotFoundError):
            g.set_value(True, "x")
        with pytest.raises(NodeNotFoundError):
            g.remove_edge(True, b)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(b, True)
        assert g.has_edge(a, b) and g.value(a) is None

    def test_remove_node_removes_incident_edges(self):
        g = DataGraph()
        a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.remove_node(b)
        assert not g.has_node(b)
        assert g.num_edges == 0
        assert g.succ(a) == frozenset()
        assert g.pred(c) == frozenset()

    def test_contains_and_len(self):
        g = DataGraph()
        a = g.add_node("A")
        assert a in g
        assert 12345 not in g
        assert "not-an-oid" not in g
        assert len(g) == 1

    def test_relabel_node(self):
        g = DataGraph()
        a = g.add_node("A")
        g.relabel_node(a, "B")
        assert g.label(a) == "B"

    def test_relabel_root_rejected(self):
        g = DataGraph()
        root = g.add_root()
        with pytest.raises(RootError):
            g.relabel_node(root, "X")


class TestRoot:
    def test_root_has_distinguished_label(self):
        g = DataGraph()
        root = g.add_root()
        assert g.label(root) == ROOT_LABEL
        assert g.root == root
        assert g.has_root

    def test_second_root_rejected(self):
        g = DataGraph()
        g.add_root()
        with pytest.raises(RootError):
            g.add_root()

    def test_root_property_without_root(self):
        g = DataGraph()
        assert not g.has_root
        with pytest.raises(RootError):
            _ = g.root

    def test_edges_into_root_rejected(self):
        g = DataGraph()
        root = g.add_root()
        a = g.add_node("A")
        with pytest.raises(RootError):
            g.add_edge(a, root)

    def test_removing_root_clears_it(self):
        g = DataGraph()
        root = g.add_root()
        g.remove_node(root)
        assert not g.has_root


class TestEdges:
    def test_add_and_query_edge(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b)
        assert g.has_edge(a, b)
        assert not g.has_edge(b, a)
        assert g.succ(a) == frozenset({b})
        assert g.pred(b) == frozenset({a})
        assert g.out_degree(a) == 1
        assert g.in_degree(b) == 1

    def test_parallel_edges_rejected(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(a, b)

    def test_edge_kinds(self):
        g = DataGraph()
        a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
        g.add_edge(a, b)
        g.add_edge(a, c, EdgeKind.IDREF)
        assert g.edge_kind(a, b) is EdgeKind.TREE
        assert g.edge_kind(a, c) is EdgeKind.IDREF
        assert set(g.edges_of_kind(EdgeKind.IDREF)) == {(a, c)}

    def test_remove_edge(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b)
        g.remove_edge(a, b)
        assert not g.has_edge(a, b)
        assert g.num_edges == 0

    def test_remove_missing_edge_raises(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("B")
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(a, b)

    def test_edge_kind_of_missing_edge_raises(self):
        g = DataGraph()
        a, b = g.add_node("A"), g.add_node("B")
        with pytest.raises(EdgeNotFoundError):
            g.edge_kind(a, b)

    def test_self_loop_allowed(self):
        g = DataGraph()
        a = g.add_node("A")
        g.add_edge(a, a)
        assert g.has_edge(a, a)
        assert a in g.succ(a)
        assert a in g.pred(a)
        g.check_invariants()

    def test_edge_counting(self, tiny_tree):
        assert tiny_tree.num_edges == 3
        assert len(list(tiny_tree.edges())) == 3


class TestBulkOperations:
    def test_copy_is_independent(self, tiny_tree):
        clone = tiny_tree.copy()
        clone.add_node("Z")
        extra = clone.add_node("Z2")
        clone.add_edge(clone.root, extra)
        assert tiny_tree.num_nodes + 2 == clone.num_nodes
        assert tiny_tree.num_edges + 1 == clone.num_edges
        tiny_tree.check_invariants()
        clone.check_invariants()

    def test_copy_preserves_oids_labels_values(self):
        g = DataGraph()
        g.add_root()
        a = g.add_node("A", value=3)
        g.add_edge(g.root, a)
        clone = g.copy()
        assert clone.label(a) == "A"
        assert clone.value(a) == 3
        assert clone.root == g.root

    def test_add_subgraph_translates_oids(self, tiny_tree):
        other = DataGraph()
        x = other.add_node("X")
        y = other.add_node("Y")
        other.add_edge(x, y, EdgeKind.IDREF)
        mapping = tiny_tree.add_subgraph(other)
        assert set(mapping) == {x, y}
        assert tiny_tree.has_edge(mapping[x], mapping[y])
        assert tiny_tree.edge_kind(mapping[x], mapping[y]) is EdgeKind.IDREF
        tiny_tree.check_invariants()

    def test_subgraph_from_follows_tree_only(self):
        g = DataGraph()
        root = g.add_root()
        a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
        g.add_edge(root, a)
        g.add_edge(a, b)
        g.add_edge(a, c, EdgeKind.IDREF)
        sub = g.subgraph_from(a)
        assert set(sub.nodes()) == {a, b}
        sub_all = g.subgraph_from(a, follow_idref=True)
        assert set(sub_all.nodes()) == {a, b, c}

    def test_subgraph_from_copies_internal_idrefs(self):
        g = DataGraph()
        root = g.add_root()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(root, a)
        g.add_edge(a, b)
        g.add_edge(b, a, EdgeKind.IDREF)  # internal back-reference
        sub = g.subgraph_from(a)
        assert sub.has_edge(b, a)
        assert sub.edge_kind(b, a) is EdgeKind.IDREF

    def test_remove_nodes(self, tiny_tree):
        nodes = [n for n in tiny_tree.nodes() if n != tiny_tree.root]
        tiny_tree.remove_nodes(nodes)
        assert tiny_tree.num_nodes == 1
        tiny_tree.check_invariants()


class TestInvariants:
    def test_invariants_pass_on_fresh_graph(self, tiny_tree):
        tiny_tree.check_invariants()

    def test_labels_and_lookup(self, tiny_tree):
        assert tiny_tree.labels() == {ROOT_LABEL, "A", "B", "C"}
        (a,) = tiny_tree.nodes_with_label("A")
        assert tiny_tree.label(a) == "A"
