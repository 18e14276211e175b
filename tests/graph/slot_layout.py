"""The bulk constructor's reference: per-call builds and a slot-for-slot
comparison.

:meth:`DataGraph.from_columns` promises the graph that ``add_node`` on
each node in turn and ``add_edge`` on each edge in turn would give —
down to slot numbers and the order of every successor and predecessor
list — with only the slab layout (tight slots, no dead cells) and the
generation allowed to differ.  :func:`per_call_graph` is that sequence of
calls and :func:`assert_same_slots` states the promise field by field.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Any, Optional

from repro.graph.datagraph import DataGraph, EdgeKind

#: ``(oids, labels, values, sources, targets, kinds)``
Columns = tuple[list[int], list[str], list[Any], list[int], list[int], list[EdgeKind]]


def per_call_graph(
    oids: Sequence[int],
    labels: Sequence[str],
    values: Sequence[Any],
    sources: Sequence[int],
    targets: Sequence[int],
    kinds: Sequence[EdgeKind],
    root: Optional[int] = None,
) -> DataGraph:
    """The columns added one call at a time (``add_root`` for *root*)."""
    graph = DataGraph()
    for oid, label, value in zip(oids, labels, values):
        if oid == root:
            graph.add_root(oid=oid)
            if value is not None:
                graph.set_value(oid, value)
        else:
            graph.add_node(label, value, oid=oid)
    for source, target, kind in zip(sources, targets, kinds):
        graph.add_edge(source, target, kind)
    return graph


def columns_of(graph: DataGraph, rng: Optional[random.Random] = None) -> Columns:
    """The nodes and edges of *graph* as columns; with *rng*, the node
    order and the edge order are shuffled (so are the slot numbers and
    every adjacency order a build from them gives)."""
    nodes = sorted(graph.nodes())
    edges = sorted(graph.edges())
    if rng is not None:
        rng.shuffle(nodes)
        rng.shuffle(edges)
    return (
        nodes,
        [graph.label(oid) for oid in nodes],
        [graph.value(oid) for oid in nodes],
        [source for source, _ in edges],
        [target for _, target in edges],
        [graph.edge_kind(source, target) for source, target in edges],
    )


def slot_lists(graph: DataGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Every slot's successor and predecessor list, in slab order."""
    succ, pred = graph._succ_slabs, graph._pred_slabs
    slots = range(len(graph._oid_at))
    return [succ.to_list(slot) for slot in slots], [pred.to_list(slot) for slot in slots]


def assert_same_slots(bulk: DataGraph, reference: DataGraph) -> None:
    """*bulk* equals *reference* slot for slot: every field but the slab
    layout and the generation."""
    assert bulk._oid_at == reference._oid_at
    assert bulk._label_at == reference._label_at
    assert bulk._interner._names == reference._interner._names
    assert list(bulk._values.items()) == list(reference._values.items())
    assert bulk._idref == reference._idref
    assert bulk._next_oid == reference._next_oid
    assert bulk._root == reference._root
    assert bulk.num_edges == reference.num_edges
    assert bulk._free_slots == reference._free_slots
    assert list(bulk._slot_of.items()) == list(reference._slot_of.items())
    assert slot_lists(bulk) == slot_lists(reference)
    for mine, theirs in (
        (bulk._succ_slabs, reference._succ_slabs),
        (bulk._pred_slabs, reference._pred_slabs),
    ):
        assert mine.num_slots == theirs.num_slots
        assert mine._overlay == theirs._overlay
