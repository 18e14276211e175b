"""Generation-stamped views: every index mutator invalidates them.

``StructuralIndex.extent()`` and ``StructuralIndex.frozen()`` are
memoized per mutation generation.  The contract under test: repeated
calls between mutations return the same frozen object, and after
**any** mutator — including transaction rollback and the internal-swap
rebuild of ``reconstruct_from_scratch`` — the views agree with the live
partition and support tables again.
"""

from __future__ import annotations

import pytest

from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.maintenance.reconstruction import reconstruct_from_scratch
from repro.resilience import Transaction


def build() -> tuple[DataGraph, StructuralIndex, dict[str, int]]:
    """root -> {a1, a2} -> {b1, b2}: a 3-inode minimum 1-index."""
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
    index = OneIndex.build(graph)
    return graph, index, {"root": root, "a1": a1, "a2": a2, "b1": b1, "b2": b2}


def warm(index: StructuralIndex) -> None:
    index.frozen()
    for inode in list(index.inodes()):
        index.extent(inode)


def views(index: StructuralIndex) -> dict[int, tuple]:
    """Each inode's memoized extent, and what the frozen capture holds."""
    frozen = index.frozen()
    assert sorted(frozen.inodes()) == sorted(index.inodes())
    return {
        inode: (
            index.extent(inode),
            frozen.label_of(inode),
            frozen.extent(inode),
            frozenset(frozen.isucc(inode)),
        )
        for inode in index.inodes()
    }


def assert_views_live(index: StructuralIndex) -> None:
    for inode, (extent, label, frozen_extent, isucc) in views(index).items():
        live = frozenset(w for w in index.graph.nodes() if index.inode_of(w) == inode)
        assert extent == frozen_extent == live
        assert label == index.label_of(inode)
        assert isucc == frozenset(index.isucc(inode))


def _split_b(graph, index, n):
    index.split_off(index.inode_of(n["b1"]), {n["b1"]})


def _merge_back(graph, index, n):
    index.split_off(index.inode_of(n["b1"]), {n["b1"]})
    index.merge_inodes([index.inode_of(n["b1"]), index.inode_of(n["b2"])])


def _move(graph, index, n):
    target = index.new_inode("b")
    index.move_dnode(n["b1"], target)


def _add_dnode(graph, index, n):
    w = graph.add_node("b")
    graph.add_edge(n["a1"], w)
    index.add_dnode(w, index.inode_of(n["b1"]))


def _absorb_blocks(graph, index, n):
    w1 = graph.add_node("c")
    w2 = graph.add_node("c")
    graph.add_edge(n["b1"], w1)
    graph.add_edge(n["b2"], w2)
    index.absorb_blocks([[w1, w2]])


def _drop_dnode(graph, index, n):
    graph.remove_edge(n["a1"], n["b1"])
    index.drop_dnode(n["b1"])
    graph.remove_node(n["b1"])


def _note_edge_added(graph, index, n):
    graph.add_edge(n["b1"], n["b2"])
    index.note_edge_added(n["b1"], n["b2"])


def _note_edge_removed(graph, index, n):
    graph.remove_edge(n["a1"], n["b1"])
    index.note_edge_removed(n["a1"], n["b1"])


def _remove_if_empty(graph, index, n):
    index.remove_if_empty(index.new_inode("ghost"))


def _rebuild_iedges(graph, index, n):
    index.rebuild_iedges()


MUTATORS = {
    "split_off": _split_b,
    "merge_inodes": _merge_back,
    "new_inode_and_move_dnode": _move,
    "add_dnode": _add_dnode,
    "absorb_blocks": _absorb_blocks,
    "drop_dnode": _drop_dnode,
    "note_edge_added": _note_edge_added,
    "note_edge_removed": _note_edge_removed,
    "remove_if_empty": _remove_if_empty,
    "rebuild_iedges": _rebuild_iedges,
}


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_every_mutator_bumps_generation_and_refreshes_views(name):
    graph, index, nodes = build()
    warm(index)
    generation = index.generation
    MUTATORS[name](graph, index, nodes)
    assert index.generation > generation, f"{name} did not bump the generation"
    assert_views_live(index)


def test_views_are_memoized_between_mutations():
    graph, index, nodes = build()
    inode = index.inode_of(nodes["b1"])
    first = index.extent(inode)
    assert index.extent(inode) is first
    assert index.frozen() is index.frozen()
    capture = index.frozen()
    index.new_inode("ghost")
    recomputed = index.extent(inode)
    assert recomputed == first
    assert recomputed is not first
    assert index.frozen() is not capture


def test_rollback_refreshes_views():
    graph, index, nodes = build()
    warm(index)
    before = views(index)
    with pytest.raises(ValueError):
        with Transaction(graph, index):
            _split_b(graph, index, nodes)
            warm(index)
            raise ValueError("abort")
    assert_views_live(index)
    assert views(index) == before


def test_reconstruct_from_scratch_swap_refreshes_views():
    graph, index, nodes = build()
    # desynchronise the partition, then rebuild through the internal swap
    index.split_off(index.inode_of(nodes["b1"]), {nodes["b1"]})
    warm(index)
    generation = index.generation
    reconstruct_from_scratch(index)
    assert index.generation > generation
    assert_views_live(index)
