"""The per-round signature refinement: the test-side reference.

Every round re-signs **every** dnode by ``(class(w), {class(p) | p parent
of w})`` and renumbers densely by first encounter — the textbook loop
that ``repro.index.construction`` ran before its refinement engine
re-signed only the children of the dnodes that moved.  It imports
nothing from that module, so the differential tests compare the engine
against code it does not share.

Both cores are read: the slab :class:`~repro.graph.datagraph.DataGraph`
in slot order (its pred slab in place) and the dict-backed
``tests.core.refimpl.DictGraph`` in node order.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

ClassMap = dict[int, int]


def label_partition(graph) -> ClassMap:
    """The A(0) partition: dense ids by first encounter of each label."""
    class_of: ClassMap = {}
    oid_at = getattr(graph, "_oid_at", None)
    if oid_at is not None:
        label_ids: dict[int, int] = {}
        label_at = graph._label_at
        for slot in range(len(oid_at)):
            oid = oid_at[slot]
            if oid < 0:
                continue
            cls = label_ids.get(label_at[slot])
            if cls is None:
                cls = label_ids[label_at[slot]] = len(label_ids)
            class_of[oid] = cls
        return class_of
    ids: dict[str, int] = {}
    for node in graph.nodes():
        label = graph.label(node)
        if label not in ids:
            ids[label] = len(ids)
        class_of[node] = ids[label]
    return class_of


def refine_by_signature(
    graph,
    class_of: ClassMap,
    items: Optional[list[tuple[int, Sequence[int]]]] = None,
) -> ClassMap:
    """One refinement round over every dnode: split classes by parents' classes.

    Two dnodes share a fresh class iff they shared one before *and* the
    sets of their parents' old classes coincide; fresh ids are dense by
    first encounter.  No parents keys as ``-1``, one parent class as the
    bare int, several as a frozenset.
    """
    ids: dict[tuple[int, object], int] = {}
    refined: ClassMap = {}
    pred_slabs = getattr(graph, "_pred_slabs", None)
    if items is None and pred_slabs is not None:
        oid_at = graph._oid_at
        offsets = pred_slabs._off
        lengths = pred_slabs._len
        data = pred_slabs._data
        for slot in range(len(oid_at)):
            node = oid_at[slot]
            if node < 0:
                continue
            count = lengths[slot]
            if count == 0:
                pkey: object = -1
            elif count == 1:
                pkey = class_of[data[offsets[slot]]]
            else:
                start = offsets[slot]
                classes = {class_of[p] for p in data[start : start + count]}
                pkey = classes.pop() if len(classes) == 1 else frozenset(classes)
            signature = (class_of[node], pkey)
            cls = ids.get(signature)
            if cls is None:
                cls = ids[signature] = len(ids)
            refined[node] = cls
        return refined
    if items is None:
        pred = graph._pred
        items = ((node, pred[node]) for node in graph.nodes())
    for node, parents in items:
        if not parents:
            pkey = -1
        elif len(parents) == 1:
            (parent,) = parents
            pkey = class_of[parent]
        else:
            classes = {class_of[p] for p in parents}
            pkey = classes.pop() if len(classes) == 1 else frozenset(classes)
        signature = (class_of[node], pkey)
        cls = ids.get(signature)
        if cls is None:
            cls = ids[signature] = len(ids)
        refined[node] = cls
    return refined


def reference_rounds(graph) -> list[ClassMap]:
    """The label partition, then every round's map up to the fixpoint.

    ``result[i]`` is the map after *i* rounds; the last round is the
    first that does not split a class (so ``len(result) - 1`` rounds).
    """
    items = None
    if not hasattr(graph, "_pred_slabs"):
        pred = graph._pred
        items = [(node, pred[node]) for node in graph.nodes()]
    maps = [label_partition(graph)]
    count = len(set(maps[0].values()))
    while True:
        maps.append(refine_by_signature(graph, maps[-1], items))
        new_count = len(set(maps[-1].values()))
        if new_count == count:
            return maps
        count = new_count


def reference_ak_maps(graph, k: int) -> list[ClassMap]:
    """Levels A(0)..A(k): *k* rounds, the fixpoint's map repeated past it."""
    maps = reference_rounds(graph)
    return [dict(maps[min(i, len(maps) - 1)]) for i in range(k + 1)]


def reference_partition(graph) -> ClassMap:
    """The minimum 1-index's class map: the fixpoint of the rounds."""
    return reference_rounds(graph)[-1]
