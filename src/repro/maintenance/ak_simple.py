"""The "simple" A(k) update baseline (Section 7.2).

This is the comparator the paper evaluates its A(k) maintainer against:
the algorithm sketched at the end of Qun et al. [17], "obtained by fixing
a minor mistake".  After a dedge ``(u, v)`` changes:

1. a breadth-first search finds all potentially affected dnodes — the
   descendants of ``v`` up to depth ``k - 1``, plus ``v`` itself;
2. every inode containing an affected dnode is re-partitioned according
   to **k-bisimilarity computed by definition** on the data graph — the
   stand-alone A(k)-index retains no information about A(k-1), so the
   recursive definition

       sig_0(w) = label(w)
       sig_j(w) = ( sig_{j-1}(w), { sig_{j-1}(p) : p parent of w } )

   is evaluated from scratch for every member.  Unmemoised — as the
   paper's "fixing a minor mistake" leaves it — this walks every
   ancestor *path* of length <= k, which is what makes the algorithm
   exponential in k (the paper: "Notice that the cost of this simple
   algorithm is exponential in k").

The algorithm only ever splits, so the index monotonically degrades —
Figure 13's blow-up — and must be reconstructed periodically
(:class:`~repro.maintenance.reconstruction.ReconstructionPolicy`).
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.traversal import descendants_within
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.maintenance.base import UpdateStats


class SimpleAkMaintainer:
    """Stand-alone A(k) maintenance by definition (the baseline of §7.2)."""

    def __init__(self, index: StructuralIndex, k: int):
        self.structure = self.index = index
        self.graph: DataGraph = index.graph
        self.k = k

    def insert_edge(
        self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> UpdateStats:
        """Insert the dedge and re-split every possibly-unstable inode."""
        self.graph.add_edge(source, target, kind)
        self.index.note_edge_added(source, target)
        return self._repartition_affected(target)

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge and re-split every possibly-unstable inode."""
        self.graph.remove_edge(source, target)
        self.index.note_edge_removed(source, target)
        return self._repartition_affected(target)

    def index_size(self) -> int:
        """Current number of inodes."""
        return self.index.num_inodes

    def reconstruct(self) -> None:
        """Rebuild the index to the minimum A(k) from scratch."""
        classes = ak_class_maps(self.graph, self.k)[self.k]
        fresh = StructuralIndex.from_partition(self.graph, blocks_of(classes))
        self.index._adopt_from(fresh)

    #: guarded ``degrade`` fallback; the rebuild is the same operation the
    #: 5 % reconstruction policy triggers.
    rebuild_from_graph = reconstruct

    # ------------------------------------------------------------------

    def _repartition_affected(self, v: int) -> UpdateStats:
        stats = UpdateStats()
        index = self.index
        affected = descendants_within(self.graph, v, self.k - 1)
        affected.add(v)
        touched = {index.inode_of(w) for w in affected}

        for inode in sorted(touched):
            members = sorted(index.extent(inode))
            if len(members) == 1:
                continue
            groups: dict[Hashable, list[int]] = {}
            for w in members:
                groups.setdefault(self._ksig(w, self.k), []).append(w)
            if len(groups) < 2:
                continue
            ordered = sorted(groups.values(), key=len, reverse=True)
            for block in ordered[1:]:  # the largest group keeps the inode id
                index.split_off(inode, block)
                stats.splits += 1
                stats.moves += len(block)
        stats.trivial = stats.splits == 0
        stats.peak_inodes = index.num_inodes
        return stats

    def _ksig(self, w: int, depth: int) -> Hashable:
        """k-bisimilarity signature by definition (exponential in *depth*)."""
        if depth == 0:
            return self.graph.label(w)
        return (
            self._ksig(w, depth - 1),
            frozenset(self._ksig(p, depth - 1) for p in self.graph.iter_pred(w)),
        )
