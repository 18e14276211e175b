"""Split/merge maintenance of the A(k)-index family (Section 6, Figure 7).

The paper maintains all of A(0), ..., A(k) together because the split and
merge decisions for the A(i)-index are made *relative to the
A(i-1)-index*.  Concretely, a dnode's A(i) class is fully determined by
its **level signature**

    sig_i(w) = ( class_{i-1}(w), { class_{i-1}(p) : p parent of w } )

(Definition 4 read constructively), so after an edge update the family is
repaired level by level, ``i = 1 .. k``:

1. the *affected* dnodes at level i are the update target ``v``, every
   dnode whose class changed at level i-1, and the children of those
   dnodes — nobody else's signature can have changed;
2. each affected dnode's new signature is computed and looked up among
   the candidate classes (the refinement-tree children of its level-(i-1)
   class): match → the dnode *merges* into that class; no match → a fresh
   class is *split* off for the signature group.

Classes left empty disappear; classes that kept unaffected members keep
their identity (their signature is unchanged — those members' inputs did
not change), which keeps the update local.  Because the minimal family is
the unique **minimum** family (Lemma 6), this refresh computes exactly
the same result as Figure 7's compound-block pseudocode — Theorem 2's
guarantee, ``family.is_minimum()``, is asserted directly by the property
tests after every update.

Cost: proportional to the affected neighbourhood (out-neighbours of
changed dnodes, k times), never to the graph size — the locality the
paper designs for.  The per-level work is reported through
:class:`UpdateStats` (``moves``, ``splits`` = classes created, ``merges``
= classes removed, ``levels_touched``).

Every write to the family goes through its journaled primitives
(:meth:`AkIndexFamily.move` / ``open_class`` / ``close_class`` /
``reparent``), so a transaction rolls a half-done refresh back and learns
what it touched from the journal alone; the maintainer keeps no state of
its own beside the family.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from repro.exceptions import MaintenanceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import normalise_cross_edges, require_disjoint_oids
from repro.obs import current as current_obs

LevelSig = tuple[int, frozenset[int]]


class AkSplitMergeMaintainer:
    """Maintains an :class:`AkIndexFamily` at the minimum (Theorem 2)."""

    def __init__(self, family: AkIndexFamily):
        self.structure = self.family = family
        self.graph: DataGraph = family.graph

    # ------------------------------------------------------------------
    # Edge insertion / deletion
    # ------------------------------------------------------------------

    def insert_edge(
        self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> UpdateStats:
        """Insert the dedge ``source -> target`` and repair all levels."""
        self.graph.add_edge(source, target, kind)
        return self._propagate({target})

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge ``source -> target`` and repair all levels."""
        self.graph.remove_edge(source, target)
        return self._propagate({target})

    def index_size(self) -> int:
        """Number of inodes of the A(k)-index (the leaf level)."""
        return self.family.num_inodes(self.family.k)

    def rebuild_from_graph(self) -> None:
        """Rebuild the whole family from the data graph (``degrade`` path).

        Replaces every level with a fresh minimum construction; tokens
        are not preserved across a rebuild.
        """
        self.family._adopt_from(AkIndexFamily.build(self.graph, self.family.k))

    # ------------------------------------------------------------------
    # Node insertion / deletion (composed from the edge machinery)
    # ------------------------------------------------------------------

    def insert_node(
        self, parent: int, label: str, value: object = None
    ) -> tuple[int, UpdateStats]:
        """Create a new dnode under *parent*; returns (oid, stats)."""
        graph = self.graph
        oid = graph.add_node(label, value)
        graph.add_edge(parent, oid)
        self.family.move(0, oid, self._level0_token(label))
        stats = self._propagate(set(), initial_changed={oid})
        return oid, stats

    def delete_node(self, dnode: int) -> UpdateStats:
        """Delete a dnode and its incident dedges; repair all levels."""
        return self._delete({dnode})

    def set_value(self, dnode: int, value: object) -> UpdateStats:
        """Change a dnode's value (values never affect A(k) equivalence)."""
        self.graph.set_value(dnode, value)
        return UpdateStats()

    # ------------------------------------------------------------------
    # Subgraph addition / deletion
    # ------------------------------------------------------------------

    def add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable[tuple[int, int]] = (),
        preserve_oids: bool = False,
    ) -> tuple[dict[int, int], UpdateStats]:
        """Add a rooted subgraph and its cross edges in one batch.

        All graph surgery happens first; the new dnodes then enter level 0
        by label and ripple up through the same level refresh as edge
        updates, with every new dnode marked changed — one pass over the
        family instead of one per cross edge (the batching Section 6
        inherits from Section 5.2).  Returns the oid translation map and
        the aggregated stats.  ``preserve_oids=True`` keeps the
        subgraph's oids in the host graph (identity mapping).
        """
        if subgraph.num_nodes == 0:
            raise MaintenanceError("cannot add an empty subgraph")
        cross_edges = list(cross_edges)
        require_disjoint_oids(self.graph, subgraph, cross_edges, preserve_oids)
        del subgraph_root  # the batched A(k) path needs no special root handling
        graph = self.graph
        mapping = graph.add_subgraph(subgraph, preserve_oids)
        new_nodes = set(mapping.values())
        entry_points: set[int] = set()
        for a, b, kind in normalise_cross_edges(cross_edges):
            source = mapping.get(a, a)
            target = mapping.get(b, b)
            graph.add_edge(source, target, kind)
            if target not in new_nodes:
                entry_points.add(target)

        for w in sorted(new_nodes):
            self.family.move(0, w, self._level0_token(graph.label(w)))
        stats = self._propagate(entry_points, initial_changed=new_nodes)
        return mapping, stats

    def delete_subgraph(self, subgraph_root: int) -> UpdateStats:
        """Delete the subtree (via TREE edges) rooted at *subgraph_root*."""
        return self._delete(set(self.graph.subgraph_from(subgraph_root).nodes()))

    def _delete(self, doomed: set[int]) -> UpdateStats:
        """Drop the *doomed* dnodes with every dedge that touches one."""
        graph = self.graph
        entry_points: set[int] = set()
        for w in doomed:
            for c in list(graph.iter_succ(w)):
                graph.remove_edge(w, c)
                if c not in doomed:
                    entry_points.add(c)
            for p in list(graph.iter_pred(w)):
                if p not in doomed:
                    graph.remove_edge(p, w)

        stats = UpdateStats()
        for level_no in range(self.family.k + 1):
            for w in doomed:
                self._uncover(level_no, w, stats)
        for w in doomed:
            graph.remove_node(w)
        # classes emptied here are removed outside _propagate's tally
        current_obs().add("ak.merges", stats.merges)
        stats.absorb(self._propagate(entry_points))
        return stats

    # ------------------------------------------------------------------
    # The level loop
    # ------------------------------------------------------------------

    def _propagate(
        self, entry_points: set[int], initial_changed: Optional[set[int]] = None
    ) -> UpdateStats:
        """Refresh levels 1..k.

        *entry_points* are dnodes whose physical parent set changed (their
        signature can change at *every* level even when nothing changed at
        the level below); *initial_changed* seeds the changed set (new
        dnodes from a subgraph addition, already placed at level 0).
        """
        obs = current_obs()
        stats = UpdateStats()
        graph = self.graph
        changed: set[int] = set(initial_changed or ())
        any_change = bool(changed)
        with obs.span("ak.propagate", entry_points=len(entry_points)) as span:
            for level_no in range(1, self.family.k + 1):
                affected = set(entry_points) | changed
                for w in changed:
                    affected.update(graph.iter_succ(w))
                if not affected:
                    break
                with obs.span(
                    "ak.level_refresh", level=level_no, affected=len(affected)
                ) as level_span:
                    changed = self._refresh_level(level_no, affected, stats)
                    level_span.set(changed=len(changed))
                if changed:
                    any_change = True
                    stats.levels_touched = level_no
            stats.trivial = not any_change and stats.moves == 0
            stats.peak_inodes = max(stats.peak_inodes, self.index_size())
            span.set(
                levels_touched=stats.levels_touched,
                moves=stats.moves,
                splits=stats.splits,
                merges=stats.merges,
                trivial=stats.trivial,
            )
        if obs.enabled:
            obs.add("ak.moves", stats.moves)
            obs.add("ak.splits", stats.splits)
            obs.add("ak.merges", stats.merges)
            if stats.trivial:
                obs.add("ak.trivial")
            obs.observe("ak.levels_touched", stats.levels_touched)
            obs.set_max("ak.peak_inodes", stats.peak_inodes)
        return stats

    def _refresh_level(
        self, level_no: int, affected: set[int], stats: UpdateStats
    ) -> set[int]:
        """Re-place every affected dnode at one level; return who moved."""
        graph = self.graph
        family = self.family
        level = family.levels[level_no]
        coarser = family.levels[level_no - 1]

        # New signatures, in deterministic order.
        ordered = sorted(affected)
        sigs: dict[int, LevelSig] = {}
        for w in ordered:
            sigs[w] = (
                coarser.class_of[w],
                frozenset(coarser.class_of[p] for p in graph.iter_pred(w)),
            )

        # Old classes of the affected dnodes (None = brand-new dnode).
        by_old: dict[Optional[int], list[int]] = {}
        for w in ordered:
            by_old.setdefault(level.class_of.get(w), []).append(w)

        # Candidate classes that keep their identity: any class under an
        # involved coarser class with at least one unaffected member — its
        # signature is unchanged and is read off a representative.
        sig_table: dict[LevelSig, int] = {}
        for coarse_token in sorted({sig[0] for sig in sigs.values()}):
            for token in sorted(coarser.children.get(coarse_token, ())):
                representative = None
                for member in level.extents[token]:
                    if member not in affected:
                        representative = member
                        break
                if representative is None:
                    continue  # fully affected; may reclaim its id below
                rep_sig = (
                    coarse_token,
                    frozenset(
                        coarser.class_of[p] for p in graph.iter_pred(representative)
                    ),
                )
                sig_table[rep_sig] = token

        # A fully-affected class keeps its id for its largest signature
        # group (id stability keeps the changed set, and hence the work at
        # the next level, small).
        for old_token in sorted(t for t in by_old if t is not None):
            members = by_old[old_token]
            if len(members) != len(level.extents[old_token]):
                continue
            counts: dict[LevelSig, int] = {}
            for w in members:
                counts[sigs[w]] = counts.get(sigs[w], 0) + 1
            best_sig: Optional[LevelSig] = None
            best_count = 0
            for w in members:  # members are sorted; first max wins
                if counts[sigs[w]] > best_count:
                    best_sig = sigs[w]
                    best_count = counts[sigs[w]]
            if best_sig is None or best_sig in sig_table:
                continue
            sig_table[best_sig] = old_token
            if best_sig[0] != level.parent[old_token]:
                family.reparent(level_no, old_token, best_sig[0])

        # Assign every affected dnode to the class of its signature.
        changed: set[int] = set()
        for w in ordered:
            sig = sigs[w]
            target = sig_table.get(sig)
            if target is None:
                target = sig_table[sig] = family.open_class(level_no, sig[0])
                stats.splits += 1
            if level.class_of.get(w) == target:
                continue
            family.move(level_no, w, target)
            changed.add(w)
            stats.moves += 1

        # Drop classes the refresh emptied.
        for old_token in by_old:
            if old_token is None:
                continue
            extent = level.extents.get(old_token)
            if extent is not None and not extent:
                family.close_class(level_no, old_token)
                stats.merges += 1
        return changed

    def _uncover(self, level_no: int, dnode: int, stats: UpdateStats) -> None:
        """Take a doomed dnode out of its class at one level; an emptied class goes."""
        family = self.family
        token = family.move(level_no, dnode, None)
        if not family.levels[level_no].extents[token]:
            family.close_class(level_no, token)
            stats.merges += 1

    def _level0_token(self, label: str) -> int:
        """The level-0 class of *label*, opened when none is live."""
        family = self.family
        token = family.label_tokens.get(label)
        if token is None or token not in family.levels[0].extents:
            token = family.open_class(0, label)
        return token
