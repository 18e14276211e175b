"""The mutation journal and transaction scope for atomic maintenance.

Every public mutator of :class:`~repro.graph.datagraph.DataGraph`,
:class:`~repro.index.base.StructuralIndex` and
:class:`~repro.index.akindex.AkIndexFamily` carries a journal hook::

    if self._journal is not None:
        self._journal.record(self, op, payload)

``_journal`` is ``None`` outside a transaction, so the hook costs one
attribute load and an ``is not None`` test — the zero-overhead contract
(``tests/resilience/test_journal.py`` counts it).  Inside a transaction
the hook appends an undo record *after* the mutation has been applied;
:meth:`MutationJournal.rollback` replays the records in reverse,
dispatching each to its target's ``_undo_journal``.

Graph and index records interleave in **one** shared log.  That ordering
is what makes rollback correct: index undo paths read graph adjacency
(``_detach``/``_attach``), and reverse-order replay guarantees the graph
looks exactly as it did when the index record was written.

The same log is the one feed of the :class:`TouchedSet`: what a batch
may have changed is read off its records, for either index family.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exceptions import RollbackError
from repro.graph.datagraph import DataGraph
from repro.index.structure import Structure

#: one undo record: (target structure, operation name, inverse payload)
JournalRecord = tuple[Any, str, tuple]


class TouchedSet:
    """Accumulator of everything a batch of mutations may have changed.

    The serving layer's copy-on-write publication
    (:meth:`repro.service.snapshot.IndexSnapshot.evolve`) re-captures
    only the *touched* entries of the previous frozen version and
    structurally shares the rest, so publish cost tracks the batch, not
    the corpus.  Correctness contract: the sets here must be a
    **superset** of what actually changed — recapturing an untouched key
    is wasted work but never wrong, while missing a touched key would
    serve stale data.  That is why rolled-back mutations stay recorded
    (the recapture just reproduces the shared entry) and why
    :meth:`mark_all` exists for wholesale events (``rebuild_from_graph``
    renames every inode, so the only safe answer is "everything").

    Fed by :meth:`MutationJournal.record` alone: every journaled graph,
    1-index or A(k)-family mutation maps to touched dnodes / inodes (see
    :meth:`observe`), and to the :attr:`moved` / :attr:`tokens` that also
    scope the post-check (:mod:`repro.resilience.invariants`).
    """

    __slots__ = ("dnodes", "inodes", "moved", "tokens", "full")

    def __init__(self) -> None:
        #: dnodes whose label/value/adjacency changed (including dead ones)
        self.dnodes: set[int] = set()
        #: published index entries — 1-index inodes, A(k) leaf tokens —
        #: whose extent or iedges changed (including dead ones)
        self.inodes: set[int] = set()
        #: dnodes whose inode (1-index) or class at any A(k) level changed
        self.moved: set[int] = set()
        #: A(k) ``(level, token)`` classes (dead too) whose members or links changed
        self.tokens: set[tuple[int, int]] = set()
        #: everything invalidated — evolve must fall back to full capture
        self.full: bool = False

    def mark_all(self) -> None:
        """Invalidate wholesale (index rebuilt: every id changed)."""
        self.full = True

    def clear(self) -> None:
        """Reset after a publish consumed the accumulated touches."""
        self.dnodes.clear()
        self.inodes.clear()
        self.moved.clear()
        self.tokens.clear()
        self.full = False

    def absorb(self, other: "TouchedSet") -> None:
        """Add everything *other* holds (the union is a superset of both)."""
        self.dnodes |= other.dnodes
        self.inodes |= other.inodes
        self.moved |= other.moved
        self.tokens |= other.tokens
        self.full |= other.full

    def __bool__(self) -> bool:
        return bool(
            self.full or self.dnodes or self.inodes or self.moved or self.tokens
        )

    # ------------------------------------------------------------------
    # Journal-record translation
    # ------------------------------------------------------------------

    def observe(self, target: Any, op: str, payload: tuple) -> None:
        """Fold one journal record into the touched sets.

        Op names are globally unique across the graph, index and family
        journals.  Records are appended *after* their mutation applied, so
        adjacency and partition lookups here see the post-mutation state —
        exactly what the next snapshot will capture.  Index records expand
        to the neighbour inodes whose support tables the mutation bumped
        (``_attach``/``_detach`` are not journaled per-bump), at the same
        O(degree) cost the mutation itself already paid.  Family records
        name ``(level, token)`` classes; those of the leaf level — the
        published one — are touched ``inodes`` too.
        """
        if self.full:
            return
        if op in ("edge_added", "edge_removed"):
            self.dnodes.add(payload[0])
            self.dnodes.add(payload[1])
        elif op in ("node_added", "node_removed", "relabeled", "value_set", "root_set"):
            self.dnodes.add(payload[0])
        elif op == "support_bumped":
            self.inodes.add(payload[0])
            self.inodes.add(payload[1])
        elif op in ("inode_created", "inode_destroyed"):
            self.inodes.add(payload[0])
        elif op == "dnode_moved":
            dnode, source = payload
            self.inodes.add(source)
            self.moved.add(dnode)
            self._touch_inode_neighbourhood(target, dnode)
        elif op in ("dnode_covered", "dnode_dropped"):
            dnode, inode = payload
            self.inodes.add(inode)
            self.moved.add(dnode)
            self._touch_inode_neighbourhood(target, dnode)
        elif op == "merge_folded":
            survivor, other = payload[0], payload[1]
            other_succ, other_pred = payload[4], payload[5]
            self.inodes.add(survivor)
            self.inodes.add(other)
            self.moved.update(payload[3])
            # third parties had `other` popped / `survivor` bumped in
            # their support tables — their iedge sets changed too
            self.inodes.update(other_succ)
            self.inodes.update(other_pred)
        elif op == "blocks_absorbed":
            (new_nodes,) = payload
            self.moved.update(new_nodes)
            for dnode in new_nodes:
                self._touch_inode_neighbourhood(target, dnode)
        elif op == "member_moved":
            level, dnode, old, new = payload
            self.moved.add(dnode)
            self.tokens.update(((level, old), (level, new)))  # None is inert
            if level == target.k:
                # both classes' entries change, and the iedges of the
                # classes of the dnode's parents (a parent not yet placed,
                # or re-placed later, touches its own class when it is)
                class_of = target.levels[level].class_of.get
                self.inodes.update((old, new))
                self.inodes.update(class_of(p) for p in target.graph.iter_pred(dnode))
                self.inodes.discard(None)
        elif op == "class_opened":
            level, _, under, _ = payload
            if level:  # the parent's child set changed
                self.tokens.add((level - 1, under))
        elif op == "class_closed":
            level, token, parent, _ = payload
            self.tokens.add((level, token))
            if level:
                self.tokens.add((level - 1, parent))
            if level == target.k:
                self.inodes.add(token)
        elif op == "class_reparented":
            # the class's own parent link changed, and both parents' child sets
            level, token, old, new = payload
            self.tokens.update(((level, token), (level - 1, old), (level - 1, new)))
        # unknown ops fall through silently: the journal's rollback path
        # is the format authority and raises on drift

    def _touch_inode_neighbourhood(self, index: Any, dnode: int) -> None:
        """Touch the inodes of *dnode* and of its graph neighbours."""
        inode_of = index._inode_of
        inode = inode_of.get(dnode)
        if inode is not None:
            self.inodes.add(inode)
        graph = index.graph
        if not graph.has_node(dnode):
            return
        for p in graph.iter_pred(dnode):
            pi = inode_of.get(p)
            if pi is not None:
                self.inodes.add(pi)
        for c in graph.iter_succ(dnode):
            ci = inode_of.get(c)
            if ci is not None:
                self.inodes.add(ci)


class MutationJournal:
    """An undo log shared by all structures enlisted in one transaction.

    *on_record*, when given, is invoked as ``on_record(op, count)`` after
    every append — the fault injector's hook point.  Because records are
    appended *after* their mutation applies, an exception raised from
    *on_record* leaves the log consistent: rollback undoes everything,
    including the mutation whose record triggered the fault.
    """

    __slots__ = ("records", "on_record", "touched")

    def __init__(
        self,
        on_record: Optional[Callable[[str, int], None]] = None,
        touched: Optional[TouchedSet] = None,
    ):
        self.records: list[JournalRecord] = []
        self.on_record = on_record
        self.touched = touched

    def record(self, target: Any, op: str, payload: tuple) -> None:
        """Append one undo record (called from the structures' hooks)."""
        self.records.append((target, op, payload))
        if self.touched is not None:
            self.touched.observe(target, op, payload)
        if self.on_record is not None:
            self.on_record(op, len(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def rollback(self) -> None:
        """Undo every recorded mutation, newest first.

        Raises :class:`RollbackError` if an undo step itself fails — the
        structures must then be considered corrupt.
        """
        records = self.records
        while records:
            target, op, payload = records.pop()
            try:
                target._undo_journal(op, payload)
            except Exception as exc:  # noqa: BLE001 - wrapped, state is lost
                records.clear()
                raise RollbackError(
                    f"undo of {op!r} on {type(target).__name__} failed: {exc}"
                ) from exc

    def clear(self) -> None:
        """Forget all records (commit)."""
        self.records.clear()


class Transaction:
    """Journal-attach/detach scope around one maintenance operation.

    Enlists a graph and the :class:`~repro.index.structure.Structure`
    maintained over it (none for graph-only surgery), then either
    :meth:`commit` (drop the log) or :meth:`rollback` (undo it: the exact
    pre-transaction state).  Usable as a context manager: an exception
    escaping the ``with`` block triggers rollback, normal exit commits.

    Transactions do not nest — the journal hooks hold a single slot.
    """

    def __init__(
        self,
        graph: DataGraph,
        structure: Optional[Structure] = None,
        on_record: Optional[Callable[[str, int], None]] = None,
        touched: Optional[TouchedSet] = None,
    ):
        self.enlisted = [graph] if structure is None else [graph, structure]
        self.journal = MutationJournal(on_record, touched=touched)
        self._active = False

    def begin(self) -> "Transaction":
        """Attach the journal to every enlisted structure."""
        if self._active:
            raise RollbackError("transaction is already active")
        if any(structure._journal is not None for structure in self.enlisted):
            raise RollbackError("structure is already enlisted in a transaction")
        for structure in self.enlisted:
            structure._journal = self.journal
        self._active = True
        return self

    def commit(self) -> None:
        """Detach the journal and keep all mutations."""
        self._detach()
        self.journal.clear()

    def rollback(self) -> None:
        """Detach the journal and restore the pre-transaction state."""
        self._detach()
        self.journal.rollback()

    def _detach(self) -> None:
        # Detach before touching state so the undo paths (which write the
        # internal dicts directly) can never re-enter the journal.
        if not self._active:
            raise RollbackError("transaction is not active")
        self._active = False
        for structure in self.enlisted:
            structure._journal = None

    def __enter__(self) -> "Transaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False
