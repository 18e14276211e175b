"""Index construction and the partition-stabilization engine.

Two construction styles are provided:

* **Signature refinement** — the fixpoint computation of (backward)
  bisimulation: start from the label partition and refine every class by
  the *signature* ``(class(w), {class(p) | p parent of w})`` until the
  partition stops changing.  Round ``i`` yields exactly the minimum
  A(i)-index (Definition 4), and the fixpoint is the minimum 1-index
  (Lemma 1).  Only the first round signs every dnode; each later one
  re-signs the children of the dnodes that changed class in the round
  before (:class:`_SignatureRefinement`), so a round costs the in-degree
  of the dnodes it re-signs plus the out-degree of the previous round's
  movers, and the class map is renumbered once, in O(n), at the end.  The
  number of rounds is the bisimulation depth of the graph (≈ document
  depth for XML-like data).  This is the fast path for building indexes
  from scratch in Python.

* **Worklist stabilization** (:func:`stabilize`) — the compound-block
  splitting loop of Paige and Tarjan [12] exactly as transcribed in the
  paper's Figure 3 split phase, including the ``|I| <= 1/2 sum|J|``
  small-splitter rule and the three-way split by ``Succ(I)`` and
  ``Succ(I_rest)``.  The maintenance algorithms seed this engine with the
  compound blocks created by an update; the engine is also usable for full
  construction (seed with the label partition under one compound block)
  which the tests exploit to cross-check the two styles.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.intmap import PAGE_BITS, PAGE_MASK
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.obs import current as current_obs

ClassMap = dict[int, int]


# ----------------------------------------------------------------------
# Signature refinement
# ----------------------------------------------------------------------


def label_partition(graph: DataGraph) -> ClassMap:
    """Partition the dnodes by label: the A(0)-index (Definition 4).

    Class ids are dense ints in first-encounter order over the graph's
    **slot order**, and the keys are inserted in slot order.  Slot order
    is ascending oid order on a graph built by ascending additions; once
    a deleted node's slot is recycled the two differ, and slot order is
    the contract (every class map of this module follows it).
    """
    class_of: ClassMap = {}
    label_ids: dict[int, int] = {}
    oid_at, label_at = graph._oid_at, graph._label_at
    for slot in range(len(oid_at)):
        oid = oid_at[slot]
        if oid < 0:
            continue
        cls = label_ids.get(label_at[slot])
        if cls is None:
            cls = label_ids[label_at[slot]] = len(label_ids)
        class_of[oid] = cls
    return class_of


class _SignatureRefinement:
    """Signature refinement from the label partition, one round per call.

    Round *i* splits every class by the set of its members' parents'
    classes; after round *i* the partition is the minimum A(i)-index and
    at the fixpoint the minimum 1-index (Lemma 1).  Class ids are stable
    across rounds: when a class splits, the members that were not
    re-signed keep its id (or, when all of them were, its largest piece
    does) and every other piece takes a fresh id — its members are the
    round's *movers*.  A dnode none of whose parents moved keeps its
    parent-class set, so the next round re-signs only the children of
    the movers: a re-signed dnode has a parent under a fresh id that no
    un-re-signed one has, which is why the un-re-signed members of a
    class always form exactly one piece.

    The slabs are read in place through their offset/length headers; no
    per-node adjacency is copied out.
    """

    def __init__(self, graph: DataGraph) -> None:
        self.graph = graph
        #: dnode -> class id, keys in slot order (never re-inserted)
        self.class_of = label_partition(graph)
        #: class id -> member count (label ids are dense from 0)
        self.size = [count for _, count in sorted(Counter(self.class_of.values()).items())]
        oid_at = graph._oid_at
        #: the slots to re-sign next round: every live one, then the
        #: children of the last round's movers
        self.work = [slot for slot in range(len(oid_at)) if oid_at[slot] >= 0]

    def round(self) -> bool:
        """Re-sign the work list; True iff some class split."""
        graph = self.graph
        class_of, size = self.class_of, self.size
        oid_at = graph._oid_at
        pred = graph._pred_slabs
        p_off, p_len, p_data = pred._off, pred._len, pred._data
        by_class: dict[int, dict[object, list[int]]] = {}
        for slot in self.work:
            count = p_len[slot]
            if count == 0:
                pkey: object = -1
            elif count == 1:
                pkey = class_of[p_data[p_off[slot]]]
            else:
                start = p_off[slot]
                classes = {class_of[p] for p in p_data[start : start + count]}
                pkey = classes.pop() if len(classes) == 1 else frozenset(classes)
            cls = class_of[oid_at[slot]]
            pieces = by_class.get(cls)
            if pieces is None:
                by_class[cls] = {pkey: [slot]}
            else:
                piece = pieces.get(pkey)
                if piece is None:
                    pieces[pkey] = [slot]
                else:
                    piece.append(slot)
        movers: list[int] = []
        for cls, pieces in by_class.items():
            group = list(pieces.values())
            if sum(map(len, group)) < size[cls]:
                keep = None
            elif len(group) == 1:
                continue
            else:
                keep = max(group, key=len)
            for piece in group:
                if piece is keep:
                    continue
                fresh = len(size)
                size.append(len(piece))
                size[cls] -= len(piece)
                for slot in piece:
                    class_of[oid_at[slot]] = fresh
                movers.extend(piece)
        succ = graph._succ_slabs
        s_off, s_len, s_data = succ._off, succ._len, succ._data
        children: set[int] = set()
        for slot in movers:
            start = s_off[slot]
            children.update(s_data[start : start + s_len[slot]])
        pages = graph._slot_of._pages
        self.work = [pages[child >> PAGE_BITS][child & PAGE_MASK] for child in children]
        return bool(movers)

    def class_map(self) -> ClassMap:
        """The current partition, renumbered by first encounter in slot order."""
        ids: dict[int, int] = {}
        return {node: ids.setdefault(cls, len(ids)) for node, cls in self.class_of.items()}


def bisimulation_partition(graph: DataGraph, max_rounds: Optional[int] = None) -> ClassMap:
    """The coarsest label-respecting stable partition: the minimum 1-index.

    Runs the signature refinement to the fixpoint — the first round that
    moves no dnode, which is counted — or for at most *max_rounds*
    rounds (at least one).
    """
    obs = current_obs()
    with obs.span("construct.bisim_partition", nodes=graph.num_nodes) as span:
        refinement = _SignatureRefinement(graph)
        rounds, moved = 1, refinement.round()
        while moved and (max_rounds is None or rounds < max_rounds):
            rounds, moved = rounds + 1, refinement.round()
        span.set(rounds=rounds, classes=len(refinement.size))
        if moved:
            span.set(truncated=True)
        obs.add("construct.bisim_rounds", rounds)
        return refinement.class_map()


def ak_class_maps(graph: DataGraph, k: int) -> list[ClassMap]:
    """Class maps of the minimum A(0), A(1), ..., A(k)-indexes.

    ``result[i][w]`` is the A(i) class of dnode *w*: the partition after
    *i* rounds of the signature refinement, renumbered per level like
    :func:`label_partition`.  Past the fixpoint every level repeats the
    last.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    refinement = _SignatureRefinement(graph)
    maps = [refinement.class_map()]
    moved = True
    for _ in range(k):
        moved = moved and refinement.round()
        maps.append(refinement.class_map() if moved else dict(maps[-1]))
    return maps


def blocks_of(class_of: ClassMap) -> list[list[int]]:
    """Group a class map into explicit blocks (lists of dnodes)."""
    blocks: dict[int, list[int]] = {}
    for node, cls in class_of.items():
        blocks.setdefault(cls, []).append(node)
    return list(blocks.values())


def partition_index(graph: DataGraph, class_of: ClassMap) -> StructuralIndex:
    """Materialise a class map as a :class:`StructuralIndex`."""
    return StructuralIndex.from_partition(graph, blocks_of(class_of))


# ----------------------------------------------------------------------
# Worklist stabilization (Figure 3 split-phase engine)
# ----------------------------------------------------------------------


@dataclass
class SplitStats:
    """Bookkeeping about one run of the stabilization engine."""

    #: number of split operations performed (new inodes created)
    splits: int = 0
    #: largest number of inodes the index reached during the run
    peak_inodes: int = 0
    #: ids of inodes created by splitting (still-live ids only at the end)
    new_inodes: set[int] = field(default_factory=set)

    def note(self, index: StructuralIndex) -> None:
        self.peak_inodes = max(self.peak_inodes, index.num_inodes)


def stabilize(
    index: StructuralIndex,
    compound_blocks: list[list[int]],
    splitter_choice: str = "small",
) -> SplitStats:
    """Split inodes until the partition is stable with respect to itself.

    *compound_blocks* seeds the worklist: each entry is a set of inodes
    that together replace one block of a previously-stable partition (for
    edge maintenance this is ``[{v}, I[v] - {v}]``).  The engine repeatedly
    takes a compound block ``CB``, extracts a small member ``I``
    (``|I| <= 1/2 * |union CB|``), re-queues the remainder when it still
    has >= 2 members, and makes every inode stable with respect to
    ``Succ(I)`` and ``Succ(CB - {I})`` via the three-way split of [12].

    On return the partition is stable w.r.t. itself **provided** it was
    stable w.r.t. the coarser partition implied by the seeds, which is the
    precondition every caller in this library establishes.

    ``Succ`` sets are snapshot as frozen dnode sets before any splitting,
    which makes the engine insensitive to self-iedges (an inode in its own
    successor set is split like any other — the "messy details" the paper
    waves at in Section 5.1 reduce to this snapshot).

    *splitter_choice* selects which member of a compound block becomes the
    splitter: ``"small"`` (the default, the paper's
    ``|I| <= 1/2 sum|J|`` rule — the smallest member always qualifies) or
    ``"first"`` (an arbitrary member, ignoring the rule).  The latter
    exists only for the ablation benchmark that quantifies what the
    small-splitter rule buys.
    """
    if splitter_choice not in ("small", "first"):
        raise ValueError(f"unknown splitter_choice {splitter_choice!r}")
    obs = current_obs()
    track = obs.enabled
    queue_peak = 0
    stats = SplitStats()
    stats.note(index)
    queue: deque[list[int]] = deque()
    member_of: dict[int, list[int]] = {}

    def enqueue(block_ids: list[int]) -> None:
        live = [i for i in block_ids if index.has_inode(i)]
        if len(live) < 2:
            return
        queue.append(live)
        for inode in live:
            member_of[inode] = live

    for block in compound_blocks:
        enqueue(list(block))

    with obs.span("construct.stabilize", seeds=len(compound_blocks)) as span:
        while queue:
            if track and len(queue) > queue_peak:
                queue_peak = len(queue)
            compound = queue.popleft()
            compound[:] = [i for i in compound if index.has_inode(i)]
            if len(compound) < 2:
                for inode in compound:
                    member_of.pop(inode, None)
                continue
            if splitter_choice == "small":
                # The smallest member always satisfies |I| <= 1/2 * total.
                splitter = min(compound, key=index.extent_size)
            else:
                splitter = compound[0]
            rest = [i for i in compound if i != splitter]
            member_of.pop(splitter, None)
            if len(rest) >= 2:
                queue.append(rest)
                for inode in rest:
                    member_of[inode] = rest
            else:
                for inode in rest:
                    member_of.pop(inode, None)

            succ_splitter = frozenset(index.succ_extent(splitter))
            succ_rest = frozenset(index.succ_extent_of(rest))

            # Group Succ(I) by containing inode: K -> K ∩ Succ(I).
            touched: dict[int, set[int]] = {}
            for w in succ_splitter:
                touched.setdefault(index.inode_of(w), set()).add(w)

            for k_inode, k1 in touched.items():
                k11 = {w for w in k1 if w in succ_rest}
                k12 = k1 - k11
                pieces = _three_way_split(index, k_inode, k1, k11, k12, stats)
                if len(pieces) < 2:
                    continue
                holder = member_of.get(k_inode)
                if holder is not None:
                    holder.remove(k_inode)
                    member_of.pop(k_inode, None)
                    holder.extend(pieces)
                    for inode in pieces:
                        member_of[inode] = holder
                else:
                    enqueue(pieces)
            stats.note(index)
        span.set(
            splits=stats.splits, peak_inodes=stats.peak_inodes, queue_peak=queue_peak
        )
    if track:
        obs.add("construct.splits", stats.splits)
        obs.observe("construct.queue_peak", queue_peak)
    return stats


def _three_way_split(
    index: StructuralIndex,
    k_inode: int,
    k1: set[int],
    k11: set[int],
    k12: set[int],
    stats: SplitStats,
) -> list[int]:
    """Split ``K`` into the non-empty pieces of ``{K11, K12, K2}``.

    ``K2 = K - K1`` keeps the original inode id (it is never moved);
    returns the ids of all resulting pieces (1 to 3 of them).
    """
    k2_nonempty = len(k1) < index.extent_size(k_inode)
    pieces = [k_inode]
    if k2_nonempty:
        if k11:
            new = index.split_off(k_inode, k11)
            pieces.append(new)
            stats.splits += 1
            stats.new_inodes.add(new)
        if k12:
            new = index.split_off(k_inode, k12)
            pieces.append(new)
            stats.splits += 1
            stats.new_inodes.add(new)
    elif k11 and k12:
        # K == K1: a two-way split; move the smaller side.
        mover = k12 if len(k12) <= len(k11) else k11
        new = index.split_off(k_inode, mover)
        pieces.append(new)
        stats.splits += 1
        stats.new_inodes.add(new)
    stats.note(index)
    return pieces


def stabilize_from_labels(graph: DataGraph) -> StructuralIndex:
    """Full 1-index construction through the worklist engine.

    Used by the tests to cross-check :func:`bisimulation_partition`:
    materialise the label partition, make it stable w.r.t. the whole node
    set (split every block into "has a parent" / "has none"), then run
    :func:`stabilize` with all blocks in one compound block.
    """
    index = partition_index(graph, label_partition(graph))
    with_parents: dict[int, set[int]] = {}
    for node in graph.nodes():
        if graph.in_degree(node) > 0:
            with_parents.setdefault(index.inode_of(node), set()).add(node)
    for inode, members in list(with_parents.items()):
        if len(members) < index.extent_size(inode):
            index.split_off(inode, members)
    stabilize(index, [list(index.inodes())])
    return index
