"""Core structural-index representation (Section 3 of the paper).

A structural index is determined by a *partition* of the dnodes into
inodes; the index edges (iedges) are derived: there is an iedge
``I -> J`` iff some dedge runs from the extent of ``I`` to the extent of
``J``.  This module owns that representation:

* ``dnode -> inode`` mapping and inode extents (the partition);
* iedges with **support counts** — ``support(I, J)`` is the number of
  dedges between the two extents — so that splits, merges and dedge
  insertions/deletions can maintain the iedge set incrementally in time
  proportional to the work already being done on the extents;
* primitive partition surgery (:meth:`split_off`, :meth:`merge_inodes`,
  :meth:`move_dnode`) on which the maintenance algorithms are built.

Storage layout (the array-backed core)
--------------------------------------
Extents are compact unsorted ``array('q')`` runs, one per inode, paired
with two :class:`~repro.core.intmap.PagedIntMap` side tables: ``oid →
inode id`` (the partition map) and ``oid → position inside its extent
array``.  Membership is answered by the partition map, removal is an
O(1) swap-with-last through the position map, and :meth:`extent`
returns a generation-memoized frozen view; so is
:meth:`StructuralIndex.frozen`, the
:class:`~repro.index.frozen.FrozenIndex` a query reads, captured on the
first read of a generation.  Support tables remain plain
dict-of-dicts — there are few inodes and the tests introspect them.
The historical dict-of-sets implementation is retained as
``DictIndex`` in ``tests/core/refimpl.py`` (the differential-testing
oracle).  Wire dumps delta-encode the sorted extents; see
:mod:`repro.index.serialize` and DESIGN.md §13.

The invariant linking partition and iedges can always be re-derived from
scratch with :meth:`rebuild_iedges`; :meth:`check_invariants` compares the
incremental state against that oracle and is used heavily by the tests.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator
from typing import Optional

from repro.core.intmap import PAGE_BITS, PAGE_MASK, PagedIntMap
from repro.exceptions import InvalidIndexError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.frozen import FrozenIndex


class StructuralIndex:
    """A node-partition structural index over a :class:`DataGraph`.

    The class is policy-free: it enforces only that the partition covers
    the graph and that labels inside an inode agree.  *Which* partition
    constitutes a 1-index or an A(k)-index is the business of the
    construction and maintenance layers.
    """

    #: the structure protocol (:mod:`repro.index.structure`): the layers
    #: above serve, check and persist a bare partition as a 1-index, which
    #: has no level bound — ``k`` is the 0 its checkpoints carry
    kind = "one"
    k = 0

    def __init__(self, graph: DataGraph):
        self.graph = graph
        #: dnode oid -> inode id (the partition map)
        self._inode_of = PagedIntMap()
        #: dnode oid -> its position inside its inode's extent array
        self._pos_of = PagedIntMap()
        #: inode id -> compact unsorted extent array
        self._extent_arr: dict[int, array] = {}
        self._label: dict[int, str] = {}
        # support counts: _succ_support[I][J] = #dedges from extent(I) to extent(J)
        self._succ_support: dict[int, dict[int, int]] = {}
        self._pred_support: dict[int, dict[int, int]] = {}
        self._next_id = 0
        #: undo-log hook: a :class:`repro.resilience.MutationJournal` while
        #: a transaction is open, ``None`` (a no-op) otherwise.
        self._journal = None
        #: mutation counter: every mutator bumps it, invalidating the
        #: memoized frozen views (see :meth:`extent`/:meth:`frozen`)
        self._generation: int = 0
        self._extent_view: dict[int, frozenset[int]] = {}
        #: the read surface of this generation (see :meth:`frozen`)
        self._frozen: Optional[FrozenIndex] = None
        self._view_generation: int = 0

    # ------------------------------------------------------------------
    # Extent bookkeeping (internal)
    # ------------------------------------------------------------------

    def _extent_append(self, inode: int, dnode: int) -> None:
        arr = self._extent_arr[inode]
        self._pos_of[dnode] = len(arr)
        arr.append(dnode)

    def _extent_swap_remove(self, inode: int, dnode: int) -> None:
        arr = self._extent_arr[inode]
        pos = self._pos_of.pop(dnode)
        last = arr.pop()
        if last != dnode:
            arr[pos] = last
            self._pos_of[last] = pos

    def _fresh_views(self) -> None:
        if self._view_generation != self._generation:
            self._extent_view.clear()
            self._frozen = None
            self._view_generation = self._generation

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------

    @classmethod
    def from_partition(
        cls, graph: DataGraph, blocks: Iterable[Iterable[int]]
    ) -> "StructuralIndex":
        """Build an index from an explicit partition of the dnodes.

        Raises :class:`InvalidIndexError` if *blocks* is not a partition of
        the graph's nodes or if some block mixes labels.
        """
        index = cls(graph)
        inode_of = index._inode_of
        for block in blocks:
            members = list(block)
            if not members:
                continue
            labels = {graph.label(w) for w in members}
            if len(labels) != 1:
                raise InvalidIndexError(f"block {sorted(members)} mixes labels {labels}")
            inode = index.new_inode(labels.pop())
            for w in members:
                if inode_of.get(w) is not None:
                    raise InvalidIndexError(f"dnode {w} appears in two blocks")
                inode_of[w] = inode
                index._extent_append(inode, w)
        missing = set(graph.nodes()) - set(inode_of)
        if missing:
            raise InvalidIndexError(f"partition misses dnodes {sorted(missing)[:5]}...")
        index.rebuild_iedges()
        return index

    @classmethod
    def _from_partition_trusted(
        cls, graph: DataGraph, blocks: Iterable[Iterable[int]]
    ) -> "StructuralIndex":
        """:meth:`from_partition` minus validation, for construction output.

        The from-scratch builders hand over partitions that are correct
        by construction (label-homogeneous, covering, disjoint — the
        refinement loop only ever splits the label partition), so the
        per-dnode label and duplicate checks of the public entry point
        are pure overhead on the hot rebuild path.  Blocks are loaded
        with bulk fills: one C-level ``array('q')`` per extent plus the
        paged-map block writes of :meth:`PagedIntMap.set_all`.
        """
        index = cls(graph)
        inode_of = index._inode_of
        pos_of = index._pos_of
        label = graph.label
        for block in blocks:
            members = block if type(block) is list else list(block)
            if not members:
                continue
            inode = index.new_inode(label(members[0]))
            index._extent_arr[inode] = array("q", members)
            inode_of.set_all(members, inode)
            pos_of.set_enumerated(members)
        index.rebuild_iedges()
        return index

    def new_inode(self, label: str) -> int:
        """Create an empty inode with the given label and return its id."""
        inode = self._next_id
        self._next_id += 1
        self._extent_arr[inode] = array("q")
        self._label[inode] = label
        self._succ_support[inode] = {}
        self._pred_support[inode] = {}
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "inode_created", (inode,))
        return inode

    def _adopt_from(self, fresh: "StructuralIndex") -> None:
        """Swap this index's state wholesale for *fresh*'s.

        The reconstruction paths build a from-scratch index and adopt it
        in place (the caller object must keep its identity — services
        and maintainers hold references).  Bumps the generation since
        the swap bypasses the mutators.
        """
        self._inode_of = fresh._inode_of
        self._pos_of = fresh._pos_of
        self._extent_arr = fresh._extent_arr
        self._label = fresh._label
        self._succ_support = fresh._succ_support
        self._pred_support = fresh._pred_support
        self._next_id = fresh._next_id
        self._generation += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def inode_of(self, dnode: int) -> int:
        """The id of the inode whose extent contains *dnode* (``I[v]``)."""
        inode = self._inode_of.get(dnode)
        if inode is None:
            raise StructuralIndexError(f"dnode {dnode} is not covered by the index")
        return inode

    def covers(self, dnode: int) -> bool:
        """Whether *dnode* is assigned to some inode."""
        return dnode in self._inode_of

    def extent(self, inode: int) -> frozenset[int]:
        """The extent of *inode* as a frozen set.

        Memoized per generation: repeated reads between mutations share
        one frozen object.
        """
        self._require(inode)
        self._fresh_views()
        view = self._extent_view.get(inode)
        if view is None:
            view = self._extent_view[inode] = frozenset(self._extent_arr[inode])
        return view

    def extent_size(self, inode: int) -> int:
        """``|extent(inode)|``."""
        self._require(inode)
        return len(self._extent_arr[inode])

    def label_of(self, inode: int) -> str:
        """The label shared by the extent of *inode*."""
        self._require(inode)
        return self._label[inode]

    def has_inode(self, inode: int) -> bool:
        """Whether *inode* is a live inode id."""
        return inode in self._extent_arr

    def inodes(self) -> Iterator[int]:
        """Iterate over all live inode ids."""
        return iter(self._extent_arr)

    @property
    def num_inodes(self) -> int:
        """Number of inodes in the index."""
        return len(self._extent_arr)

    @property
    def num_iedges(self) -> int:
        """Number of distinct iedges."""
        return sum(len(targets) for targets in self._succ_support.values())

    def __len__(self) -> int:
        return len(self._extent_arr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StructuralIndex inodes={self.num_inodes} iedges={self.num_iedges}>"

    # ------------------------------------------------------------------
    # Index-graph navigation
    # ------------------------------------------------------------------

    def isucc(self, inode: int) -> Iterator[int]:
        """Index successors ``ISucc(I)`` (iterator over inode ids)."""
        self._require(inode)
        return iter(self._succ_support[inode])

    def ipred(self, inode: int) -> Iterator[int]:
        """Index predecessors (iterator over inode ids)."""
        self._require(inode)
        return iter(self._pred_support[inode])

    def frozen(self) -> FrozenIndex:
        """The read surface of this generation, which every query reads.

        A :class:`~repro.index.frozen.FrozenIndex` over the live graph,
        captured on the first read of a ``generation`` like
        :meth:`extent`'s views, so the write path never pays, and
        dropped by the next mutation — with it the label table and the
        query kernel's closure memo it carries.
        """
        self._fresh_views()
        capture = self._frozen
        if capture is None:
            capture = self._frozen = FrozenIndex.capture(self, self.graph)
        return capture

    @property
    def generation(self) -> int:
        """Mutation counter; bumped by every mutator.

        One integer comparison tells callers (and the memoized views
        below) whether anything changed since they last looked.
        """
        return self._generation

    def ipred_set(self, inode: int) -> frozenset[int]:
        """Index predecessors as a frozen set (hashable merge signature)."""
        self._require(inode)
        return frozenset(self._pred_support[inode])

    def has_iedge(self, source: int, target: int) -> bool:
        """Whether the iedge ``source -> target`` exists."""
        self._require(source)
        self._require(target)
        return target in self._succ_support[source]

    def support(self, source: int, target: int) -> int:
        """Number of dedges witnessing the iedge ``source -> target``."""
        self._require(source)
        self._require(target)
        return self._succ_support[source].get(target, 0)

    def succ_extent(self, inode: int) -> set[int]:
        """``Succ(I)``: dnode successors of the extent of *inode*."""
        self._require(inode)
        result: set[int] = set()
        graph = self.graph
        slot_of, succ_slabs = graph._slot_of, graph._succ_slabs
        for w in self._extent_arr[inode]:  # bulk set.update per segment
            result.update(succ_slabs.segment(slot_of[w]))
        return result

    def succ_extent_of(self, inodes: Iterable[int]) -> set[int]:
        """``Succ(I1 u I2 u ...)`` for a collection of inode ids."""
        result: set[int] = set()
        for inode in inodes:
            result.update(self.succ_extent(inode))
        return result

    def dnode_iparents(self, dnode: int) -> frozenset[int]:
        """Index parents of a *dnode*: ``{I[w'] | dnode in Succ(w')}``.

        In a valid 1-index this equals the index parents of ``I[dnode]``
        (see the proof of Lemma 3); on an intermediate partition the two
        may differ, and the dnode-level notion is the meaningful one.
        """
        return frozenset(map(self._inode_of.get, self.graph.iter_pred(dnode)))

    # ------------------------------------------------------------------
    # Partition surgery
    # ------------------------------------------------------------------

    def move_dnode(self, dnode: int, to_inode: int) -> None:
        """Move one dnode into another (existing) inode, updating iedges.

        Cost O(degree of *dnode*).  The source inode is *not* removed if
        it becomes empty; callers decide (see :meth:`remove_if_empty`).
        """
        self._require(to_inode)
        source = self.inode_of(dnode)
        if source == to_inode:
            return
        if self._label[to_inode] != self.graph.label(dnode):
            raise InvalidIndexError(
                f"cannot move dnode {dnode} ({self.graph.label(dnode)!r}) "
                f"into inode labeled {self._label[to_inode]!r}"
            )
        self._detach(dnode)
        self._extent_swap_remove(source, dnode)
        self._inode_of[dnode] = to_inode
        self._extent_append(to_inode, dnode)
        self._attach(dnode)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_moved", (dnode, source))

    def split_off(self, inode: int, members: Iterable[int]) -> int:
        """Split *members* out of *inode* into a fresh inode; return its id.

        *members* must be a non-empty proper subset of the extent.
        """
        member_list = list(members)
        extent = self.extent(inode)
        if not member_list:
            raise StructuralIndexError("cannot split off an empty set")
        for w in member_list:
            if w not in extent:
                raise StructuralIndexError(f"dnode {w} not in inode {inode}")
        if len(member_list) == len(extent):
            raise StructuralIndexError("cannot split off the whole extent")
        new_inode = self.new_inode(self._label[inode])
        for w in member_list:
            self.move_dnode(w, new_inode)
        return new_inode

    def merge_inodes(self, inodes: Iterable[int]) -> int:
        """Merge several inodes into one; return the surviving id.

        The largest extent survives (so the cost is proportional to the
        *smaller* extents).  Labels must agree.  Support counters are
        folded directly — no dnode adjacency is touched — so merging is
        O(members moved + iedges folded).
        """
        ids = list(dict.fromkeys(inodes))
        if len(ids) < 2:
            raise StructuralIndexError("merge needs at least two distinct inodes")
        labels = {self.label_of(i) for i in ids}
        if len(labels) != 1:
            raise InvalidIndexError(f"cannot merge inodes with labels {labels}")
        survivor = max(ids, key=lambda i: len(self._extent_arr[i]))
        for other in ids:
            if other != survivor:
                self._fold_into(survivor, other)
        return survivor

    def _fold_into(self, survivor: int, other: int) -> None:
        """Absorb *other* into *survivor* (extent, mapping, supports)."""
        before = None
        if self._journal is not None:
            # Before-image for rollback: other's whole entry plus the
            # survivor's support tables (third-party rows are derivable
            # from other's tables — see _undo_journal's "merge_folded").
            before = (
                survivor,
                other,
                self._label[other],
                frozenset(self._extent_arr[other]),
                dict(self._succ_support[other]),
                dict(self._pred_support[other]),
                dict(self._succ_support[survivor]),
                dict(self._pred_support[survivor]),
            )
        inode_of = self._inode_of
        pos_of = self._pos_of
        surv_arr = self._extent_arr[survivor]
        base = len(surv_arr)
        other_arr = self._extent_arr[other]
        for offset, w in enumerate(other_arr):
            inode_of[w] = survivor
            pos_of[w] = base + offset
        surv_arr.extend(other_arr)

        surv_succ = self._succ_support[survivor]
        surv_pred = self._pred_support[survivor]

        # survivor -> other edges become a survivor self-iedge.  Their pred
        # side lives in other's table, which is dropped wholesale below.
        count = surv_succ.pop(other, 0)
        if count:
            self._bump(surv_succ, survivor, count)
            self._bump(surv_pred, survivor, count)
        # other -> survivor edges, symmetrically.
        count = surv_pred.pop(other, 0)
        if count:
            self._bump(surv_succ, survivor, count)
            self._bump(surv_pred, survivor, count)

        # other's remaining outgoing edges (third parties and self-iedge).
        for target, count in self._succ_support[other].items():
            if target == survivor:
                continue  # already folded above
            if target == other:
                self._bump(surv_succ, survivor, count)
                self._bump(surv_pred, survivor, count)
                continue
            self._bump(surv_succ, target, count)
            target_pred = self._pred_support[target]
            target_pred.pop(other)
            self._bump(target_pred, survivor, count)
        # other's remaining incoming edges from third parties.
        for origin, count in self._pred_support[other].items():
            if origin in (survivor, other):
                continue  # already folded above
            self._bump(surv_pred, origin, count)
            origin_succ = self._succ_support[origin]
            origin_succ.pop(other)
            self._bump(origin_succ, survivor, count)

        del self._extent_arr[other]
        del self._label[other]
        del self._succ_support[other]
        del self._pred_support[other]
        self._generation += 1
        if before is not None:
            self._journal.record(self, "merge_folded", before)

    def remove_if_empty(self, inode: int) -> bool:
        """Delete *inode* if its extent is empty.  Returns whether deleted."""
        if inode not in self._extent_arr or len(self._extent_arr[inode]):
            return False
        if self._succ_support[inode] or self._pred_support[inode]:
            raise StructuralIndexError(
                f"empty inode {inode} still has iedges; supports corrupted"
            )
        label = self._label[inode]
        del self._extent_arr[inode]
        del self._label[inode]
        del self._succ_support[inode]
        del self._pred_support[inode]
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "inode_destroyed", (inode, label))
        return True

    def add_dnode(self, dnode: int, inode: Optional[int] = None) -> int:
        """Cover a newly created dnode.

        With *inode* given, join that inode (labels must match); otherwise a
        fresh singleton inode is created.  The dnode's edges, if any already
        exist, are accounted for.  Returns the inode id.
        """
        if self._inode_of.get(dnode) is not None:
            raise StructuralIndexError(f"dnode {dnode} is already covered")
        label = self.graph.label(dnode)
        if inode is None:
            inode = self.new_inode(label)
        elif self._label[inode] != label:
            raise InvalidIndexError(
                f"dnode {dnode} ({label!r}) cannot join inode labeled "
                f"{self._label[inode]!r}"
            )
        self._extent_append(inode, dnode)
        self._inode_of[dnode] = inode
        self._attach(dnode)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_covered", (dnode, inode))
        return inode

    def absorb_blocks(self, blocks: Iterable[Iterable[int]]) -> list[int]:
        """Cover a batch of new dnodes with a given partition of them.

        Used by subgraph addition (Section 5.2): the subgraph's own index
        blocks are adopted wholesale.  Every dnode in *blocks* must exist
        in the graph and be uncovered; all dedges among covered nodes that
        involve a new node are accounted.  Returns the new inode ids, one
        per block, in order.
        """
        new_ids: list[int] = []
        new_nodes: set[int] = set()
        inode_of = self._inode_of
        for block in blocks:
            members = list(block)
            if not members:
                continue
            inode = self.new_inode(self.graph.label(members[0]))
            new_ids.append(inode)
            for w in members:
                if inode_of.get(w) is not None:
                    raise StructuralIndexError(f"dnode {w} is already covered")
                if self.graph.label(w) != self._label[inode]:
                    raise InvalidIndexError(f"block mixes labels at dnode {w}")
                inode_of[w] = inode
                self._extent_append(inode, w)
                new_nodes.add(w)
        self._account_new_nodes(new_nodes, 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "blocks_absorbed", (frozenset(new_nodes),))
        return new_ids

    def _account_new_nodes(self, new_nodes: set[int], sign: int) -> None:
        """(Un)count the dedges incident to a batch of newly covered dnodes.

        Shared by :meth:`absorb_blocks` (``sign=1``) and its journal undo
        (``sign=-1``); both run against identical graph adjacency, so the
        traversal — including the internal-edge dedup — cancels exactly.
        """
        inode_of = self._inode_of
        for w in new_nodes:
            wi = inode_of[w]
            for c in self.graph.iter_succ(w):
                ci = inode_of.get(c)
                if ci is not None:
                    self._bump(self._succ_support[wi], ci, sign)
                    self._bump(self._pred_support[ci], wi, sign)
            for p in self.graph.iter_pred(w):
                if p in new_nodes or p == w:
                    continue  # internal edges were counted from the succ side
                pi = inode_of.get(p)
                if pi is not None:
                    self._bump(self._succ_support[pi], wi, sign)
                    self._bump(self._pred_support[wi], pi, sign)

    def drop_dnode(self, dnode: int) -> None:
        """Stop covering *dnode* (used when deleting nodes from the graph).

        The dnode's incident dedges must already be gone from the graph,
        or the support counters would drift.
        """
        inode = self.inode_of(dnode)
        self._detach(dnode)
        self._extent_swap_remove(inode, dnode)
        del self._inode_of[dnode]
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_dropped", (dnode, inode))
        self.remove_if_empty(inode)

    # ------------------------------------------------------------------
    # Dedge notifications
    # ------------------------------------------------------------------

    def note_edge_added(self, source: int, target: int) -> None:
        """Account for a dedge that was just added to the data graph."""
        si = self.inode_of(source)
        ti = self.inode_of(target)
        self._bump(self._succ_support[si], ti, 1)
        self._bump(self._pred_support[ti], si, 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "support_bumped", (si, ti, 1))

    def note_edge_removed(self, source: int, target: int) -> None:
        """Account for a dedge that was just removed from the data graph."""
        si = self.inode_of(source)
        ti = self.inode_of(target)
        self._bump(self._succ_support[si], ti, -1)
        self._bump(self._pred_support[ti], si, -1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "support_bumped", (si, ti, -1))

    # ------------------------------------------------------------------
    # Oracles / invariants
    # ------------------------------------------------------------------

    def rebuild_iedges(self) -> None:
        """Recompute all support counters from the partition (O(n + m))."""
        for inode in self._extent_arr:
            self._succ_support[inode] = {}
            self._pred_support[inode] = {}
        inode_of = self._inode_of
        succ_support = self._succ_support
        pred_support = self._pred_support
        graph = self.graph
        # walk the successor slabs in slot order and read the paged map's
        # pages directly — every oid seen here is live, so the absence
        # checks of ``get`` can't fire
        oid_at, succ_slabs = graph._oid_at, graph._succ_slabs
        pages = inode_of._pages
        for slot in range(len(oid_at)):
            source = oid_at[slot]
            if source < 0:
                continue
            targets = succ_slabs.segment(slot)
            if not targets:
                continue
            si = pages[source >> PAGE_BITS][source & PAGE_MASK]
            ssup = succ_support[si]
            for target in targets:
                ti = pages[target >> PAGE_BITS][target & PAGE_MASK]
                ssup[ti] = ssup.get(ti, 0) + 1
                psup = pred_support[ti]
                psup[si] = psup.get(si, 0) + 1
        self._generation += 1

    def blocks(self) -> list[frozenset[int]]:
        """The partition as a list of frozen extents."""
        return [frozenset(arr) for arr in self._extent_arr.values()]

    def leaf(self) -> "StructuralIndex":
        """The read surface a published version freezes: the index itself."""
        return self

    def derived_entries(self, dnodes: Iterable[int]) -> tuple:
        """Inodes whose iedges follow *dnodes*' adjacency with no journal
        record naming them: none — supports are stored, every bump journaled."""
        return ()

    def as_blocks(self) -> set[frozenset[int]]:
        """The partition as a set of frozen extents (order-insensitive)."""
        return {frozenset(arr) for arr in self._extent_arr.values()}

    def copy(self) -> "StructuralIndex":
        """An independent copy sharing the same graph object."""
        clone = StructuralIndex(self.graph)
        clone._inode_of = self._inode_of.copy()
        clone._pos_of = self._pos_of.copy()
        clone._extent_arr = {i: array("q", a) for i, a in self._extent_arr.items()}
        clone._label = dict(self._label)
        clone._succ_support = {i: dict(s) for i, s in self._succ_support.items()}
        clone._pred_support = {i: dict(p) for i, p in self._pred_support.items()}
        clone._next_id = self._next_id
        return clone

    def approx_bytes(self) -> int:
        """Approximate resident bytes of the index's storage.

        O(#inodes + #pages), cheap enough to publish as a gauge on every
        commit.  Support-table entries are estimated at a flat 56 bytes
        (dict slot + boxed key and count).
        """
        total = self._inode_of.approx_bytes() + self._pos_of.approx_bytes()
        total += sys.getsizeof(self._extent_arr) + sys.getsizeof(self._label)
        total += 64 * len(self._label)
        for arr in self._extent_arr.values():
            total += sys.getsizeof(arr) + 64
        for table in (self._succ_support, self._pred_support):
            total += sys.getsizeof(table)
            for inner in table.values():
                total += sys.getsizeof(inner) + 56 * len(inner) + 64
        return total

    def check_invariants(self) -> None:
        """Assert partition/iedge consistency, re-derived from graph adjacency.

        Every dnode must sit in the extent its map entry names (right
        position, right label), every extent must be non-empty, and each
        inode's incoming support row, recounted from its members'
        parents, must equal the stored one and be mirrored by the parent
        inodes' outgoing rows; then :meth:`check_totals`.  O(n + m).  The
        guard states the same facts in one pass with the graph's
        (:func:`repro.index.stability.audit_extents`); this is the
        reference it is differenced against.
        """
        graph = self.graph
        inode_at, pos_at = self._inode_of.get, self._pos_of.get
        extent_arr, succs, preds = self._extent_arr, self._succ_support, self._pred_support
        recount: dict[int, dict[int, int]] = {inode: {} for inode in extent_arr}
        for w in graph.nodes():
            inode, pos = inode_at(w), pos_at(w)
            arr = extent_arr.get(inode)
            assert arr is not None, f"partition does not cover dnode {w}"
            assert pos is not None and pos < len(arr) and arr[pos] == w, (
                f"mapping broken for dnode {w}: not at position {pos} of inode {inode}"
            )
            assert graph.label(w) == self._label.get(inode), (
                f"label mismatch in inode {inode} at dnode {w}"
            )
            row = recount[inode]
            for j in map(inode_at, graph.iter_pred(w)):
                row[j] = row.get(j, 0) + 1  # (an uncovered parent counts under None)
        for inode, row in recount.items():
            assert len(extent_arr[inode]), f"inode {inode} has an empty extent"
            stored = preds.get(inode)
            assert stored == row, f"supports of inode {inode} drifted: {stored} vs {row}"
            for j in row:
                assert succs.get(j, {}).get(inode) == stored[j], (
                    f"iedge from inode {j} to inode {inode} is not mirrored"
                )
        self.check_totals()

    def check_totals(self) -> None:
        """The facts no per-id check states.  Every dnode sits at its own
        position of exactly one extent, and every incoming iedge is
        mirrored by an outgoing one: equal totals leave no room for
        duplicates, overlaps or strays.  O(#inodes)."""
        extent_arr, succs, preds = self._extent_arr, self._succ_support, self._pred_support
        if sum(map(len, extent_arr.values())) != self.graph.num_nodes:
            raise AssertionError("extents overlap or hold dnodes outside the graph")
        if sum(map(len, succs.values())) != sum(map(len, preds.values())):
            raise AssertionError("an outgoing iedge has no incoming mirror")
        if not all(table.keys() == extent_arr.keys() for table in (self._label, succs, preds)):
            raise AssertionError("a dead inode leaked a map entry")

    # ------------------------------------------------------------------
    # Journal undo (repro.resilience)
    # ------------------------------------------------------------------

    def _undo_journal(self, op: str, payload: tuple) -> None:
        """Apply the inverse of one journaled mutation.

        Called by :meth:`repro.resilience.MutationJournal.rollback` with
        records in reverse order.  Undo paths may read graph adjacency
        (via ``_detach``/``_attach``): the journal interleaves graph and
        index records in one log, so by the time an index record is
        undone every later graph mutation has already been reverted and
        the adjacency matches what this record saw when it was written.
        """
        self._generation += 1
        if op == "support_bumped":
            si, ti, delta = payload
            self._bump(self._succ_support[si], ti, -delta)
            self._bump(self._pred_support[ti], si, -delta)
        elif op == "dnode_moved":
            dnode, from_inode = payload
            to_inode = self._inode_of[dnode]
            self._detach(dnode)
            self._extent_swap_remove(to_inode, dnode)
            self._inode_of[dnode] = from_inode
            self._extent_append(from_inode, dnode)
            self._attach(dnode)
        elif op == "dnode_covered":
            dnode, inode = payload
            self._detach(dnode)
            self._extent_swap_remove(inode, dnode)
            del self._inode_of[dnode]
        elif op == "dnode_dropped":
            dnode, inode = payload
            self._extent_append(inode, dnode)
            self._inode_of[dnode] = inode
            self._attach(dnode)
        elif op == "inode_created":
            (inode,) = payload
            del self._extent_arr[inode]
            del self._label[inode]
            del self._succ_support[inode]
            del self._pred_support[inode]
            self._next_id = inode
        elif op == "inode_destroyed":
            inode, label = payload
            self._extent_arr[inode] = array("q")
            self._label[inode] = label
            self._succ_support[inode] = {}
            self._pred_support[inode] = {}
        elif op == "merge_folded":
            (
                survivor,
                other,
                other_label,
                other_extent,
                other_succ,
                other_pred,
                surv_succ,
                surv_pred,
            ) = payload
            # Resurrect other wholesale and give survivor its old tables.
            # The extent arrays are rebuilt (positions may have shifted
            # since the record was written; set-membership is the
            # observable state, array order is not).
            other_members = set(other_extent)
            surv_arr = self._extent_arr[survivor]
            new_surv = array("q", (w for w in surv_arr if w not in other_members))
            self._extent_arr[survivor] = new_surv
            pos_of = self._pos_of
            inode_of = self._inode_of
            for pos, w in enumerate(new_surv):
                pos_of[w] = pos
            other_arr = array("q", sorted(other_members))
            self._extent_arr[other] = other_arr
            for pos, w in enumerate(other_arr):
                pos_of[w] = pos
                inode_of[w] = other
            self._label[other] = other_label
            self._succ_support[other] = dict(other_succ)
            self._pred_support[other] = dict(other_pred)
            self._succ_support[survivor] = dict(surv_succ)
            self._pred_support[survivor] = dict(surv_pred)
            # Third parties saw `other` popped and `survivor` bumped;
            # reverse both using other's old tables as the ledger.
            for target, count in other_succ.items():
                if target in (survivor, other):
                    continue
                target_pred = self._pred_support[target]
                self._bump(target_pred, survivor, -count)
                self._bump(target_pred, other, count)
            for origin, count in other_pred.items():
                if origin in (survivor, other):
                    continue
                origin_succ = self._succ_support[origin]
                self._bump(origin_succ, survivor, -count)
                self._bump(origin_succ, other, count)
        elif op == "blocks_absorbed":
            (new_nodes,) = payload
            members = set(new_nodes)
            self._account_new_nodes(members, -1)
            for w in members:
                self._extent_swap_remove(self._inode_of[w], w)
                del self._inode_of[w]
        else:  # pragma: no cover - guards against journal format drift
            raise ValueError(f"unknown index journal op {op!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _detach(self, dnode: int) -> None:
        """Remove all of *dnode*'s dedges from the support counters."""
        inode_of = self._inode_of
        inode = inode_of[dnode]
        for p in self.graph.iter_pred(dnode):
            pi = inode_of[p]
            self._bump(self._succ_support[pi], inode, -1)
            self._bump(self._pred_support[inode], pi, -1)
        for c in self.graph.iter_succ(dnode):
            if c == dnode:
                continue  # the self-loop was handled in the pred pass
            ci = inode_of[c]
            self._bump(self._succ_support[inode], ci, -1)
            self._bump(self._pred_support[ci], inode, -1)

    def _attach(self, dnode: int) -> None:
        """Add all of *dnode*'s dedges to the support counters."""
        inode_of = self._inode_of
        inode = inode_of[dnode]
        for p in self.graph.iter_pred(dnode):
            pi = inode_of[p]
            self._bump(self._succ_support[pi], inode, 1)
            self._bump(self._pred_support[inode], pi, 1)
        for c in self.graph.iter_succ(dnode):
            if c == dnode:
                continue
            ci = inode_of[c]
            self._bump(self._succ_support[inode], ci, 1)
            self._bump(self._pred_support[ci], inode, 1)

    @staticmethod
    def _bump(counter: dict[int, int], key: int, delta: int) -> None:
        """Adjust a support counter, deleting the entry when it hits zero."""
        new = counter.get(key, 0) + delta
        if new < 0:
            raise StructuralIndexError("support counter went negative; state corrupted")
        if new == 0:
            counter.pop(key, None)
        else:
            counter[key] = new

    def _require(self, inode: int) -> None:
        if inode not in self._extent_arr:
            raise StructuralIndexError(f"inode {inode} does not exist")
