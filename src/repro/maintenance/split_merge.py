"""The paper's split/merge maintenance algorithm for the 1-index.

This is the primary contribution of Section 5, transcribed from Figure 3
(edge insertion/deletion) and Figure 6 (subgraph addition).  Each phase
is written once and every operation composes the two:

* the **split phase** first makes the index *correct* again: if the
  updated dnode ``v`` is no longer bisimilar to the rest of its inode,
  ``{v}`` is split out and the split is propagated with Paige–Tarjan's
  compound-block worklist.  It is the whole of the *propagate* baseline,
  so it is inherited from :class:`PropagateMaintainer` together with the
  lines of Figure 3 above it (the graph edit and the early return, with
  the corrected deletion guard) and Figure 6's first step;

* the **merge phase** (:meth:`SplitMergeMaintainer._merge_phase`, the
  second half of Figure 3) then makes it *minimal* again: from each of
  its start inodes it looks for an inode with the same label and the
  same set of index parents, merges, and cascades the search through
  the index successors of freshly merged inodes until no merge applies.
  An edge update starts it at ``I[v]``, Figure 6 at the subgraph root's
  inode once all edges into the root are in, and a subgraph deletion at
  every inode whose index-parent set the vanished interior changed.

Guarantees (Theorem 1): starting from a minimal 1-index, the result is a
minimal 1-index; on acyclic data graphs it is the unique minimum 1-index.
The property tests assert both claims directly.  Where the transcription
departs from the figures is listed in DESIGN.md §2, "Fidelity notes".
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graph.datagraph import DataGraph
from repro.maintenance.base import UpdateStats
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.reconstruction import reconstruct_via_index_graph
from repro.obs import current as current_obs


class SplitMergeMaintainer(PropagateMaintainer):
    """Split/merge maintenance of a 1-index (Figures 3 and 6).

    The index passed in should be minimal (e.g. freshly built by
    :meth:`repro.index.OneIndex.build`); minimality is then preserved by
    every operation (Lemma 3).
    """

    # ------------------------------------------------------------------
    # Edge insertion / deletion (Figure 3): the inherited prologue and
    # split phase, then the merge phase from I[v]
    # ------------------------------------------------------------------

    def _repair(self, v: int) -> UpdateStats:
        """The non-trivial path of Figure 3: split phase, then merge phase."""
        obs = current_obs()
        with obs.span("one.repair", dnode=v) as repair_span:
            stats = self._split_phase(v)
            with obs.span("one.merge_phase") as merge_span:
                self._merge_phase([self.index.inode_of(v)], stats)
                merge_span.set(merges=stats.merges)
            repair_span.set(splits=stats.splits, merges=stats.merges)
        return stats

    def _merge_phase(self, starts: Iterable[int], stats: UpdateStats) -> None:
        """Figure 3's merge phase: make the index *minimal* again.

        Each live inode of *starts* (``I[v]`` after an edge update, the
        subgraph root's inode in Figure 6, every inode a subgraph deletion
        left with a changed index-parent set) is merged with an inode of
        the same label and index parents when there is one; the search
        then cascades through the index successors of freshly merged
        inodes until no merge applies.
        """
        index = self.index
        queue: deque[int] = deque()
        merges_before = stats.merges
        for start in starts:
            if not index.has_inode(start):
                continue
            partner = self._find_merge_partner(start)
            if partner is not None:
                queue.append(index.merge_inodes([start, partner]))
                stats.merges += 1
        while queue:
            inode = queue.popleft()
            if not index.has_inode(inode):
                continue
            # Merge the equal-signature groups among ISucc(inode).
            groups: dict[tuple[str, frozenset[int]], list[int]] = {}
            for child in index.isucc(inode):
                signature = (index.label_of(child), index.ipred_set(child))
                groups.setdefault(signature, []).append(child)
            for members in groups.values():
                if len(members) >= 2:
                    queue.append(index.merge_inodes(members))
                    stats.merges += len(members) - 1
        current_obs().add("one.merges", stats.merges - merges_before)

    def _find_merge_partner(self, inode: int) -> int | None:
        """An inode with the same label and index parents as *inode*.

        The paper looks "among I[v]'s siblings".  A partner shares every
        index parent, so it is among the index children of whichever
        parent has the fewest, and only those are read; parent sets are
        compared as support-row key views.  When ``I[v]`` has no index
        parents (v became unreachable) the sibling set is undefined and we
        fall back to a scan over parentless inodes.  The number of
        candidates examined is reported through the ``one.merge_probes``
        counter — the cost driver of the merge phase.
        """
        index = self.index
        label = index.label_of(inode)
        labels, preds, succs = index._label, index._pred_support, index._succ_support
        parents = preds[inode].keys()
        probes = 0
        try:
            if parents:
                for sibling in succs[min(parents, key=lambda p: len(succs[p]))]:
                    if sibling == inode:
                        continue
                    probes += 1
                    if labels[sibling] == label and preds[sibling].keys() == parents:
                        return sibling
                return None
            for other in index.inodes():
                probes += 1
                if other != inode and labels[other] == label and not preds[other]:
                    return other
            return None
        finally:
            current_obs().add("one.merge_probes", probes)

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
        return UpdateStats(peak_inodes=self.index.num_inodes)

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
        obs = current_obs()
        index = self.index
        stats = UpdateStats()
        with obs.span("one.add_subgraph", nodes=subgraph.num_nodes) as span:
            # 1. Graph surgery + adopt the subgraph's own (minimum) 1-index.
            mapping, root, edges = self._adopt_subgraph(
                subgraph, subgraph_root, cross_edges, preserve_oids, stats
            )
            # 2. Batch all incoming cross edges to the root, merge once.
            for source, target, kind in edges:
                if target == root:
                    self.graph.add_edge(source, target, kind)
                    index.note_edge_added(source, target)
            self._merge_phase([index.inode_of(root)], stats)
            # 3. Remaining cross edges one at a time (Figure 6's final loop).
            for source, target, kind in edges:
                if target != root:
                    stats.absorb(self.insert_edge(source, target, kind))
            stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)
            span.set(splits=stats.splits, merges=stats.merges)
        if obs.enabled:
            obs.add("one.subgraph_adds")
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return mapping, stats

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
            self._merge_phase(touched, stats)
            stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)
            span.set(splits=stats.splits, merges=stats.merges)
        if obs.enabled:
            obs.add("one.subgraph_dels")
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return stats

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

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
