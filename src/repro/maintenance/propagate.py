"""The *propagate* baseline of Kaushik et al. [8] for the 1-index.

This is the only previously-known update algorithm for the 1-index the
paper compares against (Section 7.1).  It is exactly the **split phase**
of the split/merge algorithm — it restores correctness with Paige–Tarjan
propagation but never merges, so the index can only grow: Section 2
reports 3–5 % excess inodes after just 500 insertions, and Figure 9/10
show quality degrading roughly linearly until a periodic reconstruction
(:mod:`repro.maintenance.reconstruction`) resets it.

Sharing the split-phase engine with :class:`SplitMergeMaintainer` makes
the comparison honest: the *only* difference between the two maintainers
is the merge phase, so the measured deltas in quality and running time
isolate the paper's contribution.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.base import StructuralIndex
from repro.index.construction import stabilize
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import normalise_cross_edges, require_disjoint_oids
from repro.obs import current as current_obs


class PropagateMaintainer:
    """Split-only maintenance of a 1-index (the baseline of [8])."""

    def __init__(self, index: StructuralIndex, splitter_choice: str = "small"):
        self.structure = self.index = index
        self.graph: DataGraph = index.graph
        #: forwarded to :func:`repro.index.construction.stabilize`.
        self.splitter_choice = splitter_choice

    def insert_edge(
        self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> UpdateStats:
        """Insert the dedge and re-stabilise (no merging)."""
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
        return self._split_phase(target)

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge and re-stabilise (no merging).

        Uses the same corrected dnode-level trivial test as the
        split/merge maintainer (see that module's docstring).
        """
        index = self.index
        iu = index.inode_of(source)
        self.graph.remove_edge(source, target)
        index.note_edge_removed(source, target)
        trivial = any(index.inode_of(p) == iu for p in self.graph.iter_pred(target))
        if trivial:
            stats = UpdateStats(trivial=True)
            stats.peak_inodes = index.num_inodes
            current_obs().add("one.trivial")
            return stats
        return self._split_phase(target)

    def _split_phase(self, v: int) -> UpdateStats:
        obs = current_obs()
        index = self.index
        stats = UpdateStats()
        # Same span name as the split/merge maintainer's split phase: the
        # two algorithms differ only in the merge phase, so sharing the
        # name makes their traces directly comparable.
        with obs.span("one.split_phase") as span:
            iv = index.inode_of(v)
            seeds: list[list[int]] = []
            if index.extent_size(iv) > 1:
                singleton = index.split_off(iv, [v])
                stats.splits += 1
                seeds = [[singleton, iv]]
            split_stats = stabilize(index, seeds, self.splitter_choice)
            stats.splits += split_stats.splits
            stats.peak_inodes = max(split_stats.peak_inodes, index.num_inodes)
            span.set(splits=stats.splits, peak_inodes=stats.peak_inodes)
        if obs.enabled:
            obs.add("one.splits", stats.splits)
            obs.set_max("one.peak_inodes", stats.peak_inodes)
        return stats

    def add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: "Iterable[tuple[int, int]]" = (),
    ) -> tuple[dict[int, int], UpdateStats]:
        """Subgraph addition with *propagate* doing the edge insertions.

        This is alternative (2) of the Figure 12 experiment: the same
        build-union-connect skeleton as Figure 6, "but using propagate
        instead of insert_1_index_edge to insert the edges" — so no merge
        pass ever runs and quality decays with each addition.
        """
        from repro.index.construction import bisimulation_partition, blocks_of

        require_disjoint_oids(self.graph, subgraph, list(cross_edges))
        cross_edges = list(cross_edges)
        index = self.index
        stats = UpdateStats()
        sub_partition = blocks_of(bisimulation_partition(subgraph))
        mapping = self.graph.add_subgraph(subgraph)
        index.absorb_blocks([[mapping[w] for w in block] for block in sub_partition])
        root = mapping[subgraph_root]
        root_inode = index.inode_of(root)
        if index.extent_size(root_inode) > 1:
            singleton = index.split_off(root_inode, [root])
            stats.splits += 1
            split_stats = stabilize(index, [[singleton, root_inode]], self.splitter_choice)
            stats.splits += split_stats.splits
        for a, b, kind in normalise_cross_edges(cross_edges):
            stats.absorb(
                self.insert_edge(mapping.get(a, a), mapping.get(b, b), kind)
            )
        stats.peak_inodes = max(stats.peak_inodes, index.num_inodes)
        return mapping, stats

    def index_size(self) -> int:
        """Current number of inodes."""
        return self.index.num_inodes

    def rebuild_from_graph(self) -> None:
        """Rebuild the index from scratch (guarded ``degrade`` fallback).

        Resets to the minimum 1-index — the same state the baseline's
        periodic reconstruction produces.
        """
        from repro.maintenance.reconstruction import reconstruct_from_scratch

        reconstruct_from_scratch(self.index)
