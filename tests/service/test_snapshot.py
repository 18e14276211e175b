"""Unit tests for immutable published versions (repro.service.snapshot)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, StructuralIndexError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.frozen import FrozenGraph
from repro.index.akindex import AkIndexFamily
from repro.index.frozen import FrozenIndex
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.query.evaluator import evaluate_on_graph
from repro.resilience import TouchedSet
from repro.resilience.guard import GuardConfig, GuardedMaintainer
from repro.service.snapshot import IndexSnapshot


class TestFrozenGraph:
    def test_capture_matches_live_graph(self, xmark_graph):
        frozen = FrozenGraph.capture(xmark_graph)
        assert frozen.num_nodes == xmark_graph.num_nodes
        assert frozen.num_edges == xmark_graph.num_edges
        assert frozen.root == xmark_graph.root
        for oid in xmark_graph.nodes():
            assert frozen.label(oid) == xmark_graph.label(oid)
            assert set(frozen.iter_succ(oid)) == set(xmark_graph.iter_succ(oid))
            assert set(frozen.iter_pred(oid)) == set(xmark_graph.iter_pred(oid))

    def test_capture_is_isolated_from_later_mutation(self, tiny_graph):
        frozen = FrozenGraph.capture(tiny_graph)
        (b,) = tiny_graph.nodes_with_label("b")
        (c,) = tiny_graph.nodes_with_label("c")
        before = set(frozen.iter_succ(b))
        tiny_graph.add_edge(b, c, EdgeKind.IDREF)
        tiny_graph.add_node("d")
        assert set(frozen.iter_succ(b)) == before
        assert frozen.num_nodes == tiny_graph.num_nodes - 1

    def test_rootless_graph(self):
        graph = DataGraph()
        graph.add_node("orphan")
        frozen = FrozenGraph.capture(graph)
        assert not frozen.has_root
        with pytest.raises(GraphError):
            frozen.root

    def test_evaluation_agrees_with_live_graph(self, xmark_graph):
        frozen = FrozenGraph.capture(xmark_graph)
        for expression in ("//person", "/site/people/person/name", "//item//name"):
            live = evaluate_on_graph(xmark_graph, expression).matches
            assert evaluate_on_graph(frozen, expression).matches == live


class TestFrozenIndex:
    def test_capture_matches_live_index(self, xmark_graph):
        index = OneIndex.build(xmark_graph)
        frozen = FrozenIndex.capture(index, FrozenGraph.capture(xmark_graph))
        assert frozen.num_inodes == index.num_inodes
        for inode in index.inodes():
            assert frozen.label_of(inode) == index.label_of(inode)
            assert frozen.extent(inode) == frozenset(index.extent(inode))
            assert set(frozen.isucc(inode)) == set(index.isucc(inode))

    def test_unknown_inode_raises(self, tiny_graph):
        index = OneIndex.build(tiny_graph)
        frozen = FrozenIndex.capture(index, FrozenGraph.capture(tiny_graph))
        with pytest.raises(StructuralIndexError):
            frozen.extent(10_000)


class TestIndexSnapshot:
    def test_capture_needs_exactly_one_source(self, tiny_graph):
        # one structure, by the signature: there is no pair to get wrong
        index = OneIndex.build(tiny_graph)
        family = AkIndexFamily.build(tiny_graph, 2)
        with pytest.raises(TypeError):
            IndexSnapshot.capture(0, tiny_graph)
        with pytest.raises(TypeError):
            IndexSnapshot.capture(0, tiny_graph, index, family)
        assert IndexSnapshot.capture(0, tiny_graph, index).kind == "one"
        assert IndexSnapshot.capture(0, tiny_graph, family).kind == "ak"

    def test_rejects_unknown_kind(self, tiny_graph):
        frozen = FrozenGraph.capture(tiny_graph)
        index = FrozenIndex.capture(OneIndex.build(tiny_graph), frozen)
        with pytest.raises(ValueError):
            IndexSnapshot(0, "two", 0, frozen, index)

    @pytest.mark.parametrize("kind", ["one", "ak"])
    def test_evaluate_agrees_with_graph_evaluation(self, xmark_graph, kind):
        if kind == "one":
            snapshot = IndexSnapshot.capture(
                0, xmark_graph, OneIndex.build(xmark_graph)
            )
        else:
            snapshot = IndexSnapshot.capture(
                0, xmark_graph, AkIndexFamily.build(xmark_graph, 2)
            )
        assert snapshot.kind == kind and snapshot.version == 0
        for expression in ("//person", "/site/people/person", "//open_auction//person"):
            expected = evaluate_on_graph(xmark_graph, expression).matches
            assert snapshot.evaluate(expression).matches == expected


class TestFrozenGraphEvolve:
    def test_untouched_entries_are_shared_not_copied(self, tiny_graph):
        prev = FrozenGraph.capture(tiny_graph)
        (b,) = tiny_graph.nodes_with_label("b")
        (c,) = tiny_graph.nodes_with_label("c")
        tiny_graph.add_edge(b, c, EdgeKind.IDREF)
        evolved = FrozenGraph.evolve(prev, tiny_graph, {b, c})
        for oid in tiny_graph.nodes():
            assert set(evolved.iter_succ(oid)) == set(tiny_graph.iter_succ(oid))
            if oid not in (b, c):
                # structural sharing: the exact same tuple objects
                assert evolved._succ[oid] is prev._succ[oid]
                assert evolved._pred[oid] is prev._pred[oid]

    def test_touched_dead_nodes_are_dropped(self, tiny_graph):
        prev = FrozenGraph.capture(tiny_graph)
        (c,) = tiny_graph.nodes_with_label("c")
        (a,) = tiny_graph.nodes_with_label("a")
        tiny_graph.remove_edge(a, c)
        tiny_graph.remove_node(c)
        evolved = FrozenGraph.evolve(prev, tiny_graph, {a, c})
        assert not evolved.has_node(c)
        assert evolved.num_nodes == tiny_graph.num_nodes
        assert prev.has_node(c)  # the previous version is untouched

    def test_missing_touched_key_serves_stale_data(self, tiny_graph):
        """The superset contract, demonstrated from the failure side."""
        prev = FrozenGraph.capture(tiny_graph)
        (b,) = tiny_graph.nodes_with_label("b")
        (c,) = tiny_graph.nodes_with_label("c")
        tiny_graph.add_edge(b, c, EdgeKind.IDREF)
        wrong = FrozenGraph.evolve(prev, tiny_graph, set())
        assert set(wrong.iter_succ(b)) != set(tiny_graph.iter_succ(b))


class TestFrozenIndexEvolve:
    def test_untouched_inodes_share_extents(self, xmark_graph):
        index = OneIndex.build(xmark_graph)
        frozen_graph = FrozenGraph.capture(xmark_graph)
        prev = FrozenIndex.capture(index, frozen_graph)
        some = next(iter(index.inodes()))
        evolved = FrozenIndex.evolve(prev, index, frozen_graph, {some})
        for inode in index.inodes():
            assert evolved.extent(inode) == frozenset(index.extent(inode))
            if inode != some:
                assert evolved._extent[inode] is prev._extent[inode]
                assert evolved._isucc[inode] is prev._isucc[inode]

    def test_touched_dead_inodes_are_dropped(self, tiny_graph):
        index = OneIndex.build(tiny_graph)
        frozen_graph = FrozenGraph.capture(tiny_graph)
        prev = FrozenIndex.capture(index, frozen_graph)
        ghost = index.new_inode("ghost")
        index.remove_if_empty(ghost)
        evolved = FrozenIndex.evolve(prev, index, frozen_graph, {ghost})
        assert ghost not in set(evolved.inodes())


def _apply_batch(graph, family_name: str, k: int = 2):
    """Build maintainer + touched set, apply one mixed batch."""
    if family_name == "one":
        maintainer = SplitMergeMaintainer(OneIndex.build(graph))
    else:
        maintainer = AkSplitMergeMaintainer(AkIndexFamily.build(graph, k))
    guarded = GuardedMaintainer(maintainer, GuardConfig(policy="degrade"))
    touched = TouchedSet()
    guarded.track_touched(touched)
    prev = IndexSnapshot.capture(0, graph, guarded.structure)
    (person,) = graph.nodes_with_label("people")
    guarded.apply_batch(
        [
            ("insert_node", (person, "person", None)),
            ("insert_node", (person, "person", None)),
            ("insert_edge", (graph.root, person, EdgeKind.IDREF)),
            ("delete_edge", (graph.root, person)),
        ]
    )
    return guarded, touched, prev


class TestIndexSnapshotEvolve:
    @pytest.mark.parametrize("family_name", ["one", "ak"])
    def test_evolve_is_byte_identical_to_fresh_capture(
        self, xmark_graph, family_name
    ):
        guarded, touched, prev = _apply_batch(xmark_graph, family_name)
        evolved = IndexSnapshot.evolve(prev, 1, xmark_graph, touched, guarded.structure)
        fresh = IndexSnapshot.capture(1, xmark_graph, guarded.structure)
        assert evolved.version == 1
        assert evolved.fingerprint() == fresh.fingerprint()

    @pytest.mark.parametrize("family_name", ["one", "ak"])
    def test_full_touched_set_falls_back_to_capture(self, xmark_graph, family_name):
        guarded, touched, prev = _apply_batch(xmark_graph, family_name)
        touched.mark_all()
        evolved = IndexSnapshot.evolve(prev, 1, xmark_graph, touched, guarded.structure)
        fresh = IndexSnapshot.capture(1, xmark_graph, guarded.structure)
        assert evolved.fingerprint() == fresh.fingerprint()

    def test_evolve_needs_exactly_one_source(self, tiny_graph):
        index = OneIndex.build(tiny_graph)
        prev = IndexSnapshot.capture(0, tiny_graph, index)
        with pytest.raises(TypeError):
            IndexSnapshot.evolve(prev, 1, tiny_graph, TouchedSet())
        with pytest.raises(TypeError):
            IndexSnapshot.evolve(prev, 1, tiny_graph, TouchedSet(), index, index)

    def test_fingerprint_excludes_version(self, tiny_graph):
        index = OneIndex.build(tiny_graph)
        v0 = IndexSnapshot.capture(0, tiny_graph, index)
        v7 = IndexSnapshot.capture(7, tiny_graph, index)
        assert v0.fingerprint() == v7.fingerprint()

    def test_fingerprint_differs_across_state_change(self, tiny_graph):
        index = OneIndex.build(tiny_graph)
        before = IndexSnapshot.capture(0, tiny_graph, index).fingerprint()
        maintainer = SplitMergeMaintainer(index)
        (b,) = tiny_graph.nodes_with_label("b")
        maintainer.insert_node(b, "new")
        after = IndexSnapshot.capture(1, tiny_graph, index).fingerprint()
        assert before != after
