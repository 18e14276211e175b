"""The paper's split/merge maintenance algorithm for the 1-index.

This is the primary contribution of Section 5, transcribed from Figure 3
(edge insertion/deletion) and Figure 6 (subgraph addition):

* the **split phase** first makes the index *correct* again: if the
  updated dnode ``v`` is no longer bisimilar to the rest of its inode,
  ``{v}`` is split out and the split is propagated with Paige–Tarjan's
  compound-block worklist (:func:`repro.index.construction.stabilize`);

* the **merge phase** then makes it *minimal* again: starting from
  ``I[v]`` it looks for an inode with the same label and the same set of
  index parents, merges, and cascades the search through the index
  successors of freshly merged inodes until no merge applies.

Guarantees (Theorem 1): starting from a minimal 1-index, the result is a
minimal 1-index; on acyclic data graphs it is the unique minimum 1-index.
The property tests assert both claims directly.

Deletion guard.  Figure 3's comment block returns early when *any* dedge
remains between the extents of ``I[u]`` and ``I[v]``; that test is too
weak (``v`` may have lost its only parent in ``I[u]`` while its siblings
kept theirs, leaving ``I[v]`` unstable).  Following the proof of Lemma 3
("the algorithm first checks if this edge update changes any index
predecessor–successor relations") we return early iff ``v`` itself still
has a parent in ``I[u]`` — i.e. iff v's *index-parent set* is unchanged.
For insertion the analogous dnode-level test coincides with the iedge
test on any stable index.  See DESIGN.md, "Algorithmic fidelity notes".
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.exceptions import MaintenanceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.base import StructuralIndex
from repro.index.construction import bisimulation_partition, blocks_of, stabilize
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import normalise_cross_edges, require_disjoint_oids
from repro.maintenance.reconstruction import (
    reconstruct_from_scratch,
    reconstruct_via_index_graph,
)
from repro.obs import current as current_obs


class SplitMergeMaintainer:
    """Split/merge maintenance of a 1-index (Figures 3 and 6).

    The maintainer takes ownership of both the graph and the index: all
    updates must go through it, otherwise the index silently drifts from
    the data.  The index passed in should be minimal (e.g. freshly built
    by :meth:`repro.index.OneIndex.build`); minimality is then preserved
    by every operation (Lemma 3).
    """

    def __init__(self, index: StructuralIndex, splitter_choice: str = "small"):
        self.structure = self.index = index
        self.graph: DataGraph = index.graph
        #: forwarded to :func:`repro.index.construction.stabilize`; only
        #: the ablation benchmark changes it.
        self.splitter_choice = splitter_choice

    # ------------------------------------------------------------------
    # Edge insertion / deletion (Figure 3)
    # ------------------------------------------------------------------

    def insert_edge(
        self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> UpdateStats:
        """Insert the dedge ``source -> target`` and repair the index."""
        index = self.index
        iu = index.inode_of(source)
        iv = index.inode_of(target)
        trivial = index.has_iedge(iu, iv)
        self.graph.add_edge(source, target, kind)
        index.note_edge_added(source, target)
        if trivial:
            stats = UpdateStats(trivial=True)
            stats.peak_inodes = index.num_inodes
            current_obs().add("one.trivial")
            return stats
        return self._split_then_merge(target)

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge ``source -> target`` and repair the index."""
        index = self.index
        iu = index.inode_of(source)
        self.graph.remove_edge(source, target)
        index.note_edge_removed(source, target)
        # Trivial iff v still has a parent in I[u]: its index-parent set,
        # and hence every dnode's, is unchanged (see the module docstring).
        trivial = any(index.inode_of(p) == iu for p in self.graph.iter_pred(target))
        if trivial:
            stats = UpdateStats(trivial=True)
            stats.peak_inodes = index.num_inodes
            current_obs().add("one.trivial")
            return stats
        return self._split_then_merge(target)

    def _split_then_merge(self, v: int) -> UpdateStats:
        """The non-trivial path of Figure 3: split phase, then merge phase."""
        obs = current_obs()
        index = self.index
        stats = UpdateStats()
        with obs.span("one.repair", dnode=v) as repair_span:
            # --- split phase ---------------------------------------------
            with obs.span("one.split_phase") as split_span:
                iv = index.inode_of(v)
                seeds: list[list[int]] = []
                if index.extent_size(iv) > 1:
                    singleton = index.split_off(iv, [v])
                    stats.splits += 1
                    seeds = [[singleton, iv]]
                split_stats = stabilize(index, seeds, self.splitter_choice)
                stats.splits += split_stats.splits
                stats.peak_inodes = max(split_stats.peak_inodes, index.num_inodes)
                split_span.set(splits=stats.splits, peak_inodes=stats.peak_inodes)
            # --- merge phase ---------------------------------------------
            with obs.span("one.merge_phase") as merge_span:
                self._merge_phase(index.inode_of(v), stats)
                merge_span.set(merges=stats.merges)
            repair_span.set(splits=stats.splits, merges=stats.merges)
        if obs.enabled:
            # one.merges is emitted inside _merge_phase; stats.splits here
            # is exactly the split phase's work.
            obs.add("one.splits", stats.splits)
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return stats

    def _merge_phase(self, start: int, stats: UpdateStats) -> None:
        """Figure 3's merge phase, beginning at inode *start* (= I[v])."""
        index = self.index
        queue: deque[int] = deque()
        merges_before = stats.merges

        partner = self._find_merge_partner(start)
        if partner is not None:
            merged = index.merge_inodes([start, partner])
            stats.merges += 1
            queue.append(merged)

        while queue:
            inode = queue.popleft()
            if not index.has_inode(inode):
                continue
            merged_any = self._merge_successor_groups(inode, queue, stats)
            del merged_any  # cascade is driven purely by the queue
        current_obs().add("one.merges", stats.merges - merges_before)

    def _find_merge_partner(self, inode: int) -> int | None:
        """An inode with the same label and index parents as *inode*.

        The paper looks "among I[v]'s siblings"; when ``I[v]`` has no
        index parents (v became unreachable) the sibling set is undefined
        and we fall back to a scan over parentless inodes.  The number of
        candidates examined is reported through the ``one.merge_probes``
        counter — the cost driver of the merge phase.
        """
        index = self.index
        label = index.label_of(inode)
        parents = index.ipred_set(inode)
        probes = 0
        try:
            if parents:
                seen: set[int] = set()
                for parent in parents:
                    for sibling in index.isucc(parent):
                        if sibling == inode or sibling in seen:
                            continue
                        seen.add(sibling)
                        probes += 1
                        if (
                            index.label_of(sibling) == label
                            and index.ipred_set(sibling) == parents
                        ):
                            return sibling
                return None
            for other in index.inodes():
                probes += 1
                if (
                    other != inode
                    and index.label_of(other) == label
                    and not index.ipred_set(other)
                ):
                    return other
            return None
        finally:
            current_obs().add("one.merge_probes", probes)

    def _merge_successor_groups(
        self, inode: int, queue: deque[int], stats: UpdateStats
    ) -> bool:
        """Merge equal-signature groups among ``ISucc(inode)``."""
        index = self.index
        groups: dict[tuple[str, frozenset[int]], list[int]] = {}
        for child in index.isucc(inode):
            signature = (index.label_of(child), index.ipred_set(child))
            groups.setdefault(signature, []).append(child)
        merged_any = False
        for members in groups.values():
            if len(members) < 2:
                continue
            survivor = index.merge_inodes(members)
            stats.merges += len(members) - 1
            queue.append(survivor)
            merged_any = True
        return merged_any

    # ------------------------------------------------------------------
    # Node insertion / deletion (composed from edge operations, as
    # Section 1 prescribes: "edge insertion and deletion constitute the
    # basic operations upon which other kinds of updates can be based")
    # ------------------------------------------------------------------

    def insert_node(
        self, parent: int, label: str, value: object = None
    ) -> tuple[int, UpdateStats]:
        """Create a new dnode under *parent*; returns (oid, stats).

        The fresh dnode starts in a singleton inode (trivially stable) and
        the connecting edge goes through :meth:`insert_edge`, whose merge
        phase folds the newcomer into an existing inode when one matches.
        """
        oid = self.graph.add_node(label, value)
        self.index.add_dnode(oid)
        stats = self.insert_edge(parent, oid)
        return oid, stats

    def delete_node(self, dnode: int) -> UpdateStats:
        """Delete a dnode and all its incident dedges.

        Every incident edge is removed through :meth:`delete_edge` (so the
        index stays minimal throughout), then the isolated dnode is
        dropped from its inode and the graph.
        """
        graph = self.graph
        index = self.index
        stats = UpdateStats()
        for p in list(graph.iter_pred(dnode)):
            if p != dnode:
                stats.absorb(self.delete_edge(p, dnode))
        for c in list(graph.iter_succ(dnode)):
            stats.absorb(self.delete_edge(dnode, c))
        index.drop_dnode(dnode)
        graph.remove_node(dnode)
        stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)
        return stats

    def set_value(self, dnode: int, value) -> UpdateStats:
        """Change a dnode's value.

        Values are not part of the bisimulation signature, so the index
        is untouched; the mutation still flows through the maintainer so
        it is journaled, batched, and replicated like every other op.
        """
        self.graph.set_value(dnode, value)
        stats = UpdateStats()
        stats.peak_inodes = self.index.num_inodes
        return stats

    # ------------------------------------------------------------------
    # Subgraph addition / deletion (Section 5.2)
    # ------------------------------------------------------------------

    def add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable[tuple[int, int]] = (),
        preserve_oids: bool = False,
    ) -> tuple[dict[int, int], UpdateStats]:
        """Figure 6: add a rooted subgraph plus its cross edges.

        *subgraph* is a separate :class:`DataGraph` (its own oids); its
        designated *subgraph_root* is where incoming cross edges point.
        *cross_edges* are ``(existing oid, subgraph oid)`` or
        ``(subgraph oid, existing oid)`` pairs — endpoints are resolved
        against the subgraph first (after translation), then the host
        graph.  Incoming edges to the root are batched: they are all added
        before a single merge pass, which is the optimisation the paper
        calls out; every other cross edge goes through
        :meth:`insert_edge`.

        With ``preserve_oids=True`` the subgraph's nodes keep their oids
        in the host graph (the corpus layer relies on this to know node
        locations before the op commits); the disjointness check then
        covers every subgraph oid, not just cross-edge endpoints.

        Returns the oid translation map and the aggregated stats.
        """
        if subgraph.num_nodes == 0:
            raise MaintenanceError("cannot add an empty subgraph")
        require_disjoint_oids(self.graph, subgraph, cross_edges, preserve_oids)
        obs = current_obs()
        index = self.index
        stats = UpdateStats()
        with obs.span("one.add_subgraph", nodes=subgraph.num_nodes) as span:
            mapping = self._add_subgraph(
                subgraph, subgraph_root, cross_edges, stats, preserve_oids
            )
            span.set(splits=stats.splits, merges=stats.merges)
        if obs.enabled:
            obs.add("one.subgraph_adds")
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return mapping, stats

    def _add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable[tuple[int, int]],
        stats: UpdateStats,
        preserve_oids: bool = False,
    ) -> dict[int, int]:
        """Figure 6's body (split out so :meth:`add_subgraph` can trace it)."""
        index = self.index

        # 1. Graph surgery + adopt the subgraph's own (minimum) 1-index.
        sub_partition = blocks_of(bisimulation_partition(subgraph))
        mapping = self.graph.add_subgraph(subgraph, preserve_oids)
        mapped_blocks = [[mapping[w] for w in block] for block in sub_partition]
        index.absorb_blocks(mapped_blocks)
        stats.peak_inodes = index.num_inodes

        root = mapping[subgraph_root]
        root_inode = index.inode_of(root)
        if index.extent_size(root_inode) > 1:
            # The root of a rooted subgraph normally sits in a singleton
            # inode ("the root of the new subgraph must be in an inode by
            # itself"); subgraphs with a cycle back into their root can
            # violate that, so force the split and propagate it.
            singleton = index.split_off(root_inode, [root])
            stats.splits += 1
            split_stats = stabilize(index, [[singleton, root_inode]], self.splitter_choice)
            stats.splits += split_stats.splits
            stats.peak_inodes = max(stats.peak_inodes, split_stats.peak_inodes)
            current_obs().add("one.splits", 1 + split_stats.splits)

        # 2. Batch all incoming cross edges to the root, merge once.
        incoming_root: list[tuple[int, int, EdgeKind]] = []
        other_edges: list[tuple[int, int, EdgeKind]] = []
        for a, b, kind in normalise_cross_edges(cross_edges):
            source = mapping.get(a, a)
            target = mapping.get(b, b)
            if target == root:
                incoming_root.append((source, target, kind))
            else:
                other_edges.append((source, target, kind))
        for source, target, kind in incoming_root:
            self.graph.add_edge(source, target, kind)
            index.note_edge_added(source, target)
        self._merge_phase(index.inode_of(root), stats)

        # 3. Remaining cross edges one at a time (Figure 6's final loop).
        for source, target, kind in other_edges:
            stats.absorb(self.insert_edge(source, target, kind))
        stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)
        return mapping

    def delete_subgraph(self, subgraph_root: int) -> UpdateStats:
        """Delete the subtree hanging off *subgraph_root*.

        The doomed node set is everything reachable from the root via
        TREE edges (mirroring how :meth:`add_subgraph` workloads extract
        subgraphs).  All edges crossing the boundary are deleted through
        :meth:`delete_edge` (keeping the index minimal), the interior is
        then dropped wholesale, and a final merge sweep re-minimises the
        inodes whose parent sets changed when interior support vanished.
        """
        obs = current_obs()
        index = self.index
        graph = self.graph
        doomed = set(graph.subgraph_from(subgraph_root).nodes())
        stats = UpdateStats()
        with obs.span("one.delete_subgraph", nodes=len(doomed)) as span:
            self._delete_subgraph(doomed, stats)
            span.set(splits=stats.splits, merges=stats.merges)
        if obs.enabled:
            obs.add("one.subgraph_dels")
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return stats

    def _delete_subgraph(self, doomed: set[int], stats: UpdateStats) -> None:
        """Body of :meth:`delete_subgraph` (split out so it can be traced)."""
        index = self.index
        graph = self.graph

        boundary: list[tuple[int, int]] = []
        for w in doomed:
            for p in graph.iter_pred(w):
                if p not in doomed:
                    boundary.append((p, w))
            for c in graph.iter_succ(w):
                if c not in doomed:
                    boundary.append((w, c))
        for source, target in boundary:
            stats.absorb(self.delete_edge(source, target))

        # Snapshot merge candidates before interior support disappears:
        # surviving inodes that shared an extent with doomed dnodes, and
        # their index successors, are the only inodes whose index-parent
        # sets can change below.
        touched: set[int] = set()
        for w in doomed:
            inode = index.inode_of(w)
            touched.add(inode)
            touched.update(index.isucc(inode))

        # Interior edges: no maintenance needed, both endpoints die.
        for w in doomed:
            for c in list(graph.iter_succ(w)):
                graph.remove_edge(w, c)
                index.note_edge_removed(w, c)
        for w in doomed:
            index.drop_dnode(w)
            graph.remove_node(w)
        # Inodes that lost an index parent may now merge with lookalikes.
        sweep_before = stats.merges
        queue: deque[int] = deque()
        for inode in touched:
            if not index.has_inode(inode):
                continue
            partner = self._find_merge_partner(inode)
            if partner is not None:
                merged = index.merge_inodes([inode, partner])
                stats.merges += 1
                queue.append(merged)
        while queue:
            inode = queue.popleft()
            if index.has_inode(inode):
                self._merge_successor_groups(inode, queue, stats)
        current_obs().add("one.merges", stats.merges - sweep_before)
        stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def index_size(self) -> int:
        """Current number of inodes."""
        return self.index.num_inodes

    def reconstruct(self) -> UpdateStats:
        """Merge the index back to its minimum (Section 7's reconstruction).

        Split/merge keeps the index minimal, which on cyclic data can
        still exceed the minimum.  Only journaled merges run, so the
        operation rolls back, scopes its post-check and publishes
        incrementally like any other.
        """
        before = self.index.num_inodes
        reconstruct_via_index_graph(self.index)
        after = self.index.num_inodes
        return UpdateStats(merges=before - after, peak_inodes=before, trivial=before == after)

    def rebuild_from_graph(self) -> None:
        """Discard the partition and rebuild the minimum 1-index.

        The guarded maintainer's ``degrade`` policy calls this after a
        rolled-back failure: whatever state the incremental machinery got
        wrong is replaced by a from-scratch construction over the (clean)
        data graph, and maintenance continues incrementally from there.
        """
        reconstruct_from_scratch(self.index)
