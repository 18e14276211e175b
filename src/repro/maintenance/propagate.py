"""The *propagate* baseline of Kaushik et al. [8] for the 1-index.

This is the only previously-known update algorithm for the 1-index the
paper compares against (Section 7.1).  It is exactly the **split phase**
of the split/merge algorithm — it restores correctness with Paige–Tarjan
propagation but never merges, so the index can only grow: Section 2
reports 3–5 % excess inodes after just 500 insertions, and Figure 9/10
show quality degrading roughly linearly until a periodic reconstruction
(:mod:`repro.maintenance.reconstruction`) resets it.

The code says the same thing: :class:`SplitMergeMaintainer` *is* this
class plus the merge phase, so what the two algorithms share is written
here, once — ``insert_edge`` / ``delete_edge`` (the lines of Figure 3
above its split phase: the graph edit and the early return from an
update that changes no index predecessor–successor relation),
``_split_phase`` (Figure 3's split phase, the package's only caller of
:func:`repro.index.construction.stabilize`) and ``_adopt_subgraph``
(Figure 6's first step: union the subgraph's own 1-index, its root in an
inode by itself).  The *only* difference between the two maintainers is
the merge phase, so the measured deltas in quality and running time
isolate the paper's contribution.

Deletion guard.  Figure 3's comment block returns early when *any* dedge
remains between the extents of ``I[u]`` and ``I[v]``; that test is too
weak (``v`` may have lost its only parent in ``I[u]`` while its siblings
kept theirs, leaving ``I[v]`` unstable).  Following the proof of Lemma 3
("the algorithm first checks if this edge update changes any index
predecessor–successor relations") we return early iff ``v`` itself still
has a parent in ``I[u]`` — i.e. iff v's *index-parent set* is unchanged.
For insertion the analogous dnode-level test coincides with the iedge
test on any stable index.  See DESIGN.md §2, "Fidelity notes".
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import MaintenanceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.base import StructuralIndex
from repro.index.construction import bisimulation_partition, blocks_of, stabilize
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import normalise_cross_edges, require_disjoint_oids
from repro.maintenance.reconstruction import reconstruct_from_scratch
from repro.obs import current as current_obs


class PropagateMaintainer:
    """Split-only maintenance of a 1-index (the baseline of [8]).

    The maintainer takes ownership of both the graph and the index: all
    updates must go through it, otherwise the index silently drifts from
    the data.
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
        trivial = index.has_iedge(index.inode_of(source), index.inode_of(target))
        self.graph.add_edge(source, target, kind)
        index.note_edge_added(source, target)
        return self._edge_updated(target, trivial)

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge ``source -> target`` and repair the index."""
        index = self.index
        iu = index.inode_of(source)
        self.graph.remove_edge(source, target)
        index.note_edge_removed(source, target)
        # Trivial iff v still has a parent in I[u]: its index-parent set,
        # and hence every dnode's, is unchanged (see the module docstring).
        trivial = any(index.inode_of(p) == iu for p in self.graph.iter_pred(target))
        return self._edge_updated(target, trivial)

    def _edge_updated(self, v: int, trivial: bool) -> UpdateStats:
        """Return at once from a trivial update, repair after any other."""
        if not trivial:
            return self._repair(v)
        current_obs().add("one.trivial")
        return UpdateStats(trivial=True, peak_inodes=self.index.num_inodes)

    def _repair(self, v: int) -> UpdateStats:
        """What follows a non-trivial edge update: here, the split phase alone."""
        return self._split_phase(v)

    def _split_phase(self, v: int) -> UpdateStats:
        """Figure 3's split phase: make the index *correct* again.

        If ``v`` shares its inode, ``{v}`` is split out and the split is
        propagated with Paige–Tarjan's compound-block worklist.
        """
        obs = current_obs()
        index = self.index
        stats = UpdateStats()
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

    # ------------------------------------------------------------------
    # Subgraph addition (Figure 6)
    # ------------------------------------------------------------------

    def add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable[tuple[int, int]] = (),
    ) -> tuple[dict[int, int], UpdateStats]:
        """Subgraph addition with *propagate* doing the edge insertions.

        This is alternative (2) of the Figure 12 experiment: the same
        build-union-connect skeleton as Figure 6, "but using propagate
        instead of insert_1_index_edge to insert the edges" — so no merge
        pass ever runs and quality decays with each addition.
        """
        stats = UpdateStats()
        mapping, _, edges = self._adopt_subgraph(
            subgraph, subgraph_root, cross_edges, False, stats
        )
        for source, target, kind in edges:
            stats.absorb(self.insert_edge(source, target, kind))
        stats.peak_inodes = max(stats.peak_inodes, self.index.num_inodes)
        return mapping, stats

    def _adopt_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable[tuple[int, int]],
        preserve_oids: bool,
        stats: UpdateStats,
    ) -> tuple[dict[int, int], int, list[tuple[int, int, EdgeKind]]]:
        """Figure 6's first step: graph surgery, then adopt the subgraph's
        own (minimum) 1-index with its root in an inode by itself.

        Returns the oid translation map, the root's host oid and the
        cross edges as host ``(source, target, kind)`` triples — endpoints
        are resolved against the subgraph first, then the host graph.
        """
        if subgraph.num_nodes == 0:
            raise MaintenanceError("cannot add an empty subgraph")
        edges = normalise_cross_edges(cross_edges)
        require_disjoint_oids(self.graph, subgraph, edges, preserve_oids)
        index = self.index
        sub_partition = blocks_of(bisimulation_partition(subgraph))
        mapping = self.graph.add_subgraph(subgraph, preserve_oids)
        index.absorb_blocks([[mapping[w] for w in block] for block in sub_partition])
        stats.peak_inodes = index.num_inodes

        root = mapping[subgraph_root]
        if index.extent_size(index.inode_of(root)) > 1:
            # The root of a rooted subgraph normally sits in a singleton
            # inode ("the root of the new subgraph must be in an inode by
            # itself"); subgraphs with a cycle back into their root can
            # violate that, so force the split and propagate it.
            stats.absorb(self._split_phase(root))
        return mapping, root, [
            (mapping.get(a, a), mapping.get(b, b), kind) for a, b, kind in edges
        ]

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def index_size(self) -> int:
        """Current number of inodes."""
        return self.index.num_inodes

    def rebuild_from_graph(self) -> None:
        """Discard the partition and rebuild the minimum 1-index.

        The guarded maintainer's ``degrade`` policy calls this after a
        rolled-back failure: whatever state the incremental machinery got
        wrong is replaced by a from-scratch construction over the (clean)
        data graph — the same state the baseline's periodic
        reconstruction produces — and maintenance continues incrementally
        from there.
        """
        reconstruct_from_scratch(self.index)
