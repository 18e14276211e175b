"""The write side of the service: queued updates, batching, coalescing.

Updates do not hit the maintainer one by one — they are enqueued,
drained in arrival order up to a batch bound, **coalesced**, and applied
as one guarded transaction.  Coalescing is where batching wins beyond
amortised snapshot publishing: real update streams are full of churn
(an edge inserted and deleted again within one batch window, repeated
identical operations), and every cancelled pair is maintenance work —
splits, merges, journaling — that never happens at all.

Coalescing rules (:func:`coalesce`), applied per edge ``(source,
target)`` key over the batch's arrival order:

* ``insert e`` followed later by ``delete e``  → both dropped (the edge
  was absent before the batch and is absent after it);
* ``delete e`` followed later by ``insert e`` of the same
  :class:`~repro.graph.datagraph.EdgeKind` → both dropped (present
  before, present after, same kind);
* an operation identical to the previous surviving operation on its key
  → duplicate, dropped (a validated stream never produces these, but a
  lossy client retry can).

Only adjacent *surviving* operations on the same key cancel, so chains
collapse fully (``insert, delete, insert, delete`` → nothing).
Operations on different keys never reorder relative to each other, and
**non-edge operations are barriers**: a subgraph addition or deletion
flushes the pending per-key state, because it may create or remove the
very endpoints queued edge operations refer to.  This keeps coalescing
sound without knowing subgraph member sets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import ServiceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.maintenance.operations import operation

#: the operations that coalesce; every other one is a barrier
EDGE_OPS = ("insert_edge", "delete_edge")


@dataclass(frozen=True)
class Update:
    """One queued mutation: an operation of the vocabulary plus its args.

    Name and argument count are checked against the operation table on
    construction, so a malformed update is refused before it is queued.

    ``trace_parent`` is the submitting thread's open span id (stamped by
    ``IndexService.submit`` from ``Observer.trace_context``); the writer
    thread reparents its commit span under it so a trace stitches the
    producer and the consumer of an update back together.  It is carried
    metadata, not identity — excluded from equality so coalescing still
    cancels identical operations submitted from different spans.
    """

    op: str
    args: tuple
    trace_parent: Optional[int] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        operation(self.op, len(self.args), ServiceError)

    # -- constructors --------------------------------------------------

    @classmethod
    def insert_edge(
        cls, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> "Update":
        """A dedge insertion."""
        return cls("insert_edge", (source, target, kind))

    @classmethod
    def delete_edge(cls, source: int, target: int) -> "Update":
        """A dedge deletion."""
        return cls("delete_edge", (source, target))

    @classmethod
    def insert_node(cls, parent: int, label: str, value: object = None) -> "Update":
        """A dnode creation under *parent*."""
        return cls("insert_node", (parent, label, value))

    @classmethod
    def delete_node(cls, dnode: int) -> "Update":
        """A dnode deletion."""
        return cls("delete_node", (dnode,))

    @classmethod
    def add_subgraph(
        cls,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: Iterable = (),
        preserve_oids: bool = False,
    ) -> "Update":
        """A rooted subgraph addition.

        ``preserve_oids=True`` keeps the subgraph's oids in the host
        graph (the corpus layer pre-allocates oids so it can compile
        later diffs before this op commits); the flag is only appended
        to the args when set, keeping the wire encoding of the common
        case unchanged.
        """
        args: tuple = (subgraph, subgraph_root, tuple(cross_edges))
        if preserve_oids:
            args += (True,)
        return cls("add_subgraph", args)

    @classmethod
    def delete_subgraph(cls, subgraph_root: int) -> "Update":
        """A rooted subgraph deletion."""
        return cls("delete_subgraph", (subgraph_root,))

    @classmethod
    def set_value(cls, dnode: int, value: object) -> "Update":
        """A dnode value change (index-neutral, but journaled/replicated)."""
        return cls("set_value", (dnode, value))

    @classmethod
    def reconstruct(cls) -> "Update":
        """Merge the 1-index back to its minimum (Section 7's reconstruction).

        Transacted, logged and replayed like any operation; refused on an
        A(k) service, whose maintenance keeps the minimum (Theorem 2).
        """
        return cls("reconstruct", ())

    # -- classification ------------------------------------------------

    @property
    def is_edge_op(self) -> bool:
        """Whether this update is an edge insert/delete (coalescable)."""
        return self.op in EDGE_OPS

    @property
    def edge_key(self) -> tuple[int, int]:
        """The ``(source, target)`` coalescing key of an edge op."""
        if not self.is_edge_op:
            raise ServiceError(f"{self.op!r} has no edge key")
        return (self.args[0], self.args[1])

    @property
    def edge_kind(self) -> Optional[EdgeKind]:
        """The kind of an ``insert_edge`` (``None`` for other ops)."""
        if self.op == "insert_edge":
            return self.args[2]
        return None

    def as_call(self) -> tuple[str, tuple]:
        """The ``(method, args)`` pair ``GuardedMaintainer.apply_batch`` takes."""
        return (self.op, self.args)


@dataclass
class CoalesceStats:
    """What one coalescing pass did to a batch."""

    examined: int = 0
    kept: int = 0
    cancelled: int = 0  # operations removed as insert/delete (or reverse) pairs
    deduplicated: int = 0  # operations removed as exact repeats

    @property
    def removed(self) -> int:
        """Total operations that will never touch the maintainer."""
        return self.cancelled + self.deduplicated

    def merge(self, other: "CoalesceStats") -> None:
        """Accumulate another pass's counts (service lifetime totals)."""
        self.examined += other.examined
        self.kept += other.kept
        self.cancelled += other.cancelled
        self.deduplicated += other.deduplicated


def coalesce(
    batch: list[Update], graph: Optional[DataGraph] = None
) -> tuple[list[Update], CoalesceStats]:
    """Reduce a batch to its net effect (see the module docstring).

    *graph* is the live data graph the batch is **about to be applied
    to** (i.e. none of the batch has run yet).  It is consulted for one
    rule only: a ``delete e`` → ``insert e`` pair cancels only when the
    insert provably restores the pre-batch edge kind, which is readable
    from the graph exactly when the delete is the first operation on
    that edge in the batch.  Without *graph*, that rule is disabled —
    never wrong, just less thorough.

    Returns the surviving operations in their original relative order
    plus the pass's :class:`CoalesceStats`.  The input list is not
    modified.
    """
    stats = CoalesceStats(examined=len(batch))
    # kept[i] is None once batch[i] has been cancelled/deduplicated;
    # per-key stacks hold *indexes* of surviving edge ops since the last
    # barrier, so cancellation can reach back and void them.
    kept: list[Optional[Update]] = list(batch)
    open_ops: dict[tuple[int, int], list[int]] = {}
    ops_on_key: dict[tuple[int, int], int] = {}
    for i, update in enumerate(batch):
        if not update.is_edge_op:
            open_ops.clear()  # barrier: subgraph/node ops may touch endpoints
            continue
        key = update.edge_key
        ops_on_key[key] = ops_on_key.get(key, 0) + 1
        stack = open_ops.setdefault(key, [])
        if stack:
            previous = kept[stack[-1]]
            assert previous is not None
            if previous.op == update.op and previous.args == update.args:
                kept[i] = None  # exact repeat of the surviving op
                stats.deduplicated += 1
                continue
            if previous.op == "insert_edge" and update.op == "delete_edge":
                # insert-then-delete of one edge is an identity on any
                # state where the insert is legal; net no-op
                kept[stack.pop()] = None
                kept[i] = None
                stats.cancelled += 2
                continue
            if (
                previous.op == "delete_edge"
                and update.op == "insert_edge"
                # the delete must be the batch's first touch of this key,
                # so the live graph still shows the pre-batch edge …
                and ops_on_key[key] == 2
                and graph is not None
                and graph.has_edge(*key)
                # … and the insert must restore its kind exactly
                and graph.edge_kind(*key) == update.edge_kind
            ):
                kept[stack.pop()] = None
                kept[i] = None
                stats.cancelled += 2
                continue
        stack.append(i)
    survivors = [u for u in kept if u is not None]
    stats.kept = len(survivors)
    return survivors, stats


class BoundedQueue:
    """A thread-safe bounded FIFO of :class:`Update` objects.

    Policy-free: :meth:`offer` reports rejection instead of deciding
    what rejection means — admission policy (block / shed / flush)
    lives in :class:`~repro.service.service.IndexService`, which owns
    the means to make room.  ``capacity <= 0`` means unbounded.
    """

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._items: list[Update] = []
        self._lock = threading.Lock()
        self.not_full = threading.Condition(self._lock)
        self.not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """Whether the queue is at capacity."""
        return 0 < self.capacity <= len(self._items)

    def offer(self, update: Update) -> bool:
        """Enqueue unless full; returns whether the update was admitted."""
        with self._lock:
            if self.full:
                return False
            self._items.append(update)
            self.not_empty.notify()
            return True

    def wait_not_full(self, timeout: Optional[float] = None) -> bool:
        """Block until space frees up (the ``block`` admission policy)."""
        with self.not_full:
            return self.not_full.wait_for(lambda: not self.full, timeout=timeout)

    def wait_not_empty(self, timeout: Optional[float] = None) -> bool:
        """Block until at least one update is queued (writer idle loop)."""
        with self.not_empty:
            return self.not_empty.wait_for(lambda: len(self._items) > 0, timeout=timeout)

    def holds(self, op: str) -> bool:
        """Whether an update named *op* is waiting."""
        with self._lock:
            return any(update.op == op for update in self._items)

    def drain(self, max_ops: int = 0) -> list[Update]:
        """Dequeue up to *max_ops* updates in FIFO order (0 = everything)."""
        with self._lock:
            if max_ops <= 0 or max_ops >= len(self._items):
                batch, self._items = self._items, []
            else:
                batch = self._items[:max_ops]
                del self._items[:max_ops]
            if batch:
                self.not_full.notify_all()
            return batch
