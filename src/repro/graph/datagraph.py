"""The data-graph model of Section 3 of the paper.

XML (and other semistructured data) is modelled as a directed, labeled
graph ``G = (V, E, root, Sigma, label, oid, value)``:

* each node ("dnode") carries a string *label*, a unique integer *oid*,
  and an optional *value*;
* each edge ("dedge") represents either an object–subobject (tree) or an
  IDREF (reference) relationship;
* a single distinguished root node is labeled ``ROOT`` and has no incoming
  edges.

Storage layout (the array-backed core)
--------------------------------------
The public API is the classic adjacency digraph — O(1) membership, O(1)
edge insert/delete, cheap ``succ``/``pred`` iteration — but the storage
is slab-backed rather than dict-of-sets (the historical representation
is retained as the test suite's oracle, ``tests/core/refimpl.py``):

* oids map to dense *slots* through a
  :class:`~repro.core.intmap.PagedIntMap`; a freed slot returns to a
  freelist and is recycled by the next node;
* per-slot labels are interned ints in an ``array('i')`` and adjacency
  lives in two :class:`~repro.core.slab.SlotSlabs` (one ``array('q')``
  data slab each for successors and predecessors);
* edge kinds need no side table: TREE is the default and the minority
  IDREF edges live in one set of packed ``(source << 48) | target``
  ints — which is why oids must satisfy ``0 <= oid < 2**48``.

Per node this costs ~60 bytes instead of ~600; see DESIGN.md §13 for the
layout, growth and compaction policies, and the dense-id ↔ oid contract.

Edges carry a *kind* flag (:data:`EdgeKind.TREE` or :data:`EdgeKind.IDREF`)
so workloads can manipulate only reference edges, exactly as the paper's
experiments do ("we first remove 20% of all the IDREF edges").  The index
algorithms themselves are kind-agnostic: a dedge is a dedge.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import lshift, or_
from typing import Any, Optional

from repro.core.intmap import PagedIntMap
from repro.core.labels import LabelInterner
from repro.core.sizing import deep_sizeof
from repro.core.slab import SlotSlabs
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    RootError,
)

#: Distinguished label of the single root node (Section 3 of the paper).
ROOT_LABEL = "ROOT"

#: Distinguished label used to mark subgraphs scheduled for deletion
#: (Section 5.2: "Have a special node with a distinguished label DELETE").
DELETE_LABEL = "DELETE"

#: Exclusive upper bound on oids: two oids must pack into one 96-bit int
#: (IDREF edge set) and index into paged arrays, so oids are confined to
#: ``[0, 2**48)`` — far beyond any real corpus.
OID_LIMIT = 1 << 48

_OID_SHIFT = 48


def _first_failing_call(calls: Iterable[tuple[Any, tuple]]) -> None:
    """Make *calls* in turn until one raises.  A whole-column check that
    failed sends the bulk constructor here, so the first failing call
    names the fault, exactly as the per-call build would."""
    for call, args in calls:
        call(*args)
    raise AssertionError("a column check failed where no single call fails")


def _all_instances(column: Sequence[Any], kind: type, but: tuple[type, ...] = ()) -> bool:
    """Whether every entry of *column* is a *kind* and none is a *but*:
    one test per distinct type, not per entry."""
    return all(issubclass(t, kind) and not issubclass(t, but) for t in set(map(type, column)))


class EdgeKind(enum.Enum):
    """Provenance of a dedge in the XML data model."""

    #: Object–subobject (containment) edge: the XML element tree.
    TREE = "tree"
    #: IDREF/reference edge: cross-references between elements.
    IDREF = "idref"


class DataGraph:
    """A directed, labeled data graph with a single distinguished root.

    Nodes are identified by integer oids.  The graph stores, per node, the
    label, the optional value, and adjacency as successor/predecessor
    slots in shared array slabs.

    The class enforces the data-model invariants lazily where cheap
    (duplicate nodes/edges, missing endpoints) and provides
    :meth:`check_invariants` for the expensive ones (single root, root has
    no in-edges, reachability is *not* required by the model and is not
    enforced).

    Examples
    --------
    >>> g = DataGraph()
    >>> r = g.add_root()
    >>> a = g.add_node("A")
    >>> g.add_edge(r, a)
    >>> g.label(a)
    'A'
    >>> sorted(g.succ(r))
    [1]
    """

    __slots__ = (
        "_slot_of",
        "_oid_at",
        "_label_at",
        "_free_slots",
        "_interner",
        "_values",
        "_succ_slabs",
        "_pred_slabs",
        "_idref",
        "_root",
        "_next_oid",
        "_num_edges",
        "_journal",
        "_generation",
        "_succ_view",
        "_pred_view",
        "_view_generation",
    )

    def __init__(self) -> None:
        #: oid -> dense slot (the remap table; see DESIGN.md §13)
        self._slot_of = PagedIntMap()
        #: slot -> oid (-1 for freed slots)
        self._oid_at = array("q")
        #: slot -> interned label id
        self._label_at = array("i")
        self._free_slots: list[int] = []
        self._interner = LabelInterner()
        self._values: dict[int, Any] = {}
        self._succ_slabs = SlotSlabs()
        self._pred_slabs = SlotSlabs()
        #: packed ``(source << 48) | target`` of the IDREF edges only
        self._idref: set[int] = set()
        self._root: Optional[int] = None
        self._next_oid: int = 0
        self._num_edges: int = 0
        #: undo-log hook: a :class:`repro.resilience.MutationJournal` while
        #: a transaction is open, ``None`` (a no-op) otherwise.
        self._journal = None
        #: mutation counter: every mutator bumps it, invalidating the
        #: memoized frozen views below (see :meth:`succ`/:meth:`pred`)
        self._generation: int = 0
        self._succ_view: dict[int, frozenset[int]] = {}
        self._pred_view: dict[int, frozenset[int]] = {}
        self._view_generation: int = 0

    @classmethod
    def from_columns(
        cls,
        oids: Sequence[int],
        labels: Sequence[str],
        values: Sequence[Any],
        sources: Sequence[int],
        targets: Sequence[int],
        kinds: Sequence[EdgeKind],
        root: Optional[int] = None,
    ) -> "DataGraph":
        """A graph of the given nodes and edges, laid out in one pass.

        Node ``i`` is ``(oids[i], labels[i], values[i])``, edge ``j`` is
        ``(sources[j], targets[j], kinds[j])``, and *root* (if given) names
        the node that becomes the root; it must carry ``ROOT``.  The result
        equals, slot for slot — successor and predecessor order included —
        :meth:`add_node` on each node in turn (:meth:`add_root` for *root*)
        followed by :meth:`add_edge` on each edge in turn, and bad columns
        raise what the first failing call would: :class:`TypeError` for a
        bad oid or label, :class:`DuplicateNodeError`,
        :class:`NodeNotFoundError`, :class:`RootError` or
        :class:`DuplicateEdgeError`.  The checks run over whole columns;
        only a failed one replays the calls, to name the fault.  Every
        adjacency slot is tight (:meth:`SlotSlabs.from_members`) and the
        generation moves once.  The corpus splice and the graph decoder
        build through it.
        """
        num_nodes, num_edges = len(oids), len(sources)
        if not len(labels) == len(values) == num_nodes:
            raise ValueError("node columns differ in length")
        if not len(targets) == len(kinds) == num_edges:
            raise ValueError("edge columns differ in length")
        graph = cls()
        slot_by_oid: dict[int, int] = {}
        if _all_instances(oids, int, but=(bool,)) and (
            not num_nodes or (min(oids) >= 0 and max(oids) < OID_LIMIT)
        ):
            slot_by_oid = dict(zip(oids, range(num_nodes)))
        if len(slot_by_oid) != num_nodes or not _all_instances(labels, str):
            replay = cls()
            _first_failing_call(
                (replay.add_node, (label, None, oid)) for oid, label in zip(oids, labels)
            )
        graph._slot_of.set_enumerated(oids)
        graph._oid_at = array("q", oids)
        graph._label_at = graph._interner.intern_all(labels)
        graph._values = {oid: value for oid, value in zip(oids, values) if value is not None}
        graph._next_oid = max(oids) + 1 if num_nodes else 0
        if root is not None:
            root_slot = graph._slot(root)
            if labels[root_slot] != ROOT_LABEL:
                raise RootError(f"root node {root} must carry the ROOT label")
            graph._root = root = oids[root_slot]

        source_slots = target_slots = None
        if _all_instances(sources, int, but=(bool,)) and _all_instances(targets, int, but=(bool,)):
            source_slots = list(map(slot_by_oid.get, sources))
            target_slots = list(map(slot_by_oid.get, targets))
        if (
            source_slots is None
            or None in source_slots
            or None in target_slots
            or (root is not None and root in targets)
            or len(set(map(or_, map(lshift, sources, repeat(_OID_SHIFT)), targets)))
            != num_edges
        ):
            graph._succ_slabs = SlotSlabs.from_members(num_nodes, (), ())
            graph._pred_slabs = SlotSlabs.from_members(num_nodes, (), ())
            _first_failing_call((graph.add_edge, edge) for edge in zip(sources, targets, kinds))
        graph._succ_slabs = SlotSlabs.from_members(num_nodes, source_slots, targets)
        graph._pred_slabs = SlotSlabs.from_members(num_nodes, target_slots, sources)
        graph._idref = {
            (source << _OID_SHIFT) | target
            for source, target, kind in zip(sources, targets, kinds)
            if kind is EdgeKind.IDREF
        }
        graph._num_edges = num_edges
        graph._generation = 1
        return graph

    # ------------------------------------------------------------------
    # Slot management (dense-id layer)
    # ------------------------------------------------------------------

    def _alloc_slot(self, oid: int, label_id: int) -> int:
        if self._free_slots:
            slot = self._free_slots.pop()
            self._oid_at[slot] = oid
            self._label_at[slot] = label_id
        else:
            slot = len(self._oid_at)
            self._oid_at.append(oid)
            self._label_at.append(label_id)
            self._succ_slabs.new_slot()
            self._pred_slabs.new_slot()
        self._slot_of[oid] = slot
        return slot

    def _release_slot(self, oid: int, slot: int) -> None:
        self._succ_slabs.clear_slot(slot)
        self._pred_slabs.clear_slot(slot)
        self._oid_at[slot] = -1
        self._label_at[slot] = -1
        del self._slot_of[oid]
        self._free_slots.append(slot)

    def _find(self, oid: int) -> Optional[int]:
        """The slot of node *oid*, or ``None``; a bool is no oid (``True``
        is not node 1), though ``PagedIntMap`` reads it as one."""
        return None if oid.__class__ is bool else self._slot_of.get(oid)

    def _slot(self, oid: int) -> int:
        slot = self._find(oid)
        if slot is None:
            raise NodeNotFoundError(oid)
        return slot

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def add_node(self, label: str, value: Any = None, oid: Optional[int] = None) -> int:
        """Add a node and return its oid.

        If *oid* is omitted a fresh oid is allocated.  Adding an explicit
        oid that already exists raises :class:`DuplicateNodeError`; oids
        must be ints in ``[0, OID_LIMIT)`` (:class:`TypeError` otherwise).
        """
        slot_of = self._slot_of
        if oid is None:
            oid = self._next_oid
            while slot_of.get(oid) is not None:  # skip oids taken explicitly
                oid += 1
        else:
            if not isinstance(oid, int) or isinstance(oid, bool):
                raise TypeError(f"oid must be an int, got {type(oid).__name__}")
            if oid < 0 or oid >= OID_LIMIT:
                raise TypeError(f"oid {oid} out of range [0, 2**48)")
            if slot_of.get(oid) is not None:
                raise DuplicateNodeError(oid)
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {type(label).__name__}")
        prev_next_oid = self._next_oid
        self._alloc_slot(oid, self._interner.intern(label))
        if value is not None:
            self._values[oid] = value
        self._next_oid = max(self._next_oid, oid + 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "node_added", (oid, prev_next_oid))
        return oid

    def add_root(self, oid: Optional[int] = None) -> int:
        """Add the distinguished ``ROOT`` node.

        Raises :class:`RootError` if a root already exists.
        """
        if self._root is not None:
            raise RootError("data graph already has a root node")
        root = self.add_node(ROOT_LABEL, oid=oid)
        self._root = root
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "root_set", (root,))
        return root

    def remove_node(self, oid: int) -> None:
        """Remove a node and all its incident edges."""
        slot = self._slot(oid)
        for target in self._succ_slabs.to_list(slot):
            self.remove_edge(oid, target)
        for source in self._pred_slabs.to_list(slot):
            self.remove_edge(source, oid)
        label = self._interner.name_of(self._label_at[slot])
        value = self._values.get(oid)
        was_root = self._root == oid
        self._values.pop(oid, None)
        self._release_slot(oid, slot)
        if was_root:
            self._root = None
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "node_removed", (oid, label, value, was_root))

    def has_node(self, oid: int) -> bool:
        """Return whether *oid* names a node of the graph."""
        return self._find(oid) is not None

    def label(self, oid: int) -> str:
        """Return the label of node *oid*."""
        return self._interner.name_of(self._label_at[self._slot(oid)])

    def value(self, oid: int) -> Any:
        """Return the optional value of node *oid* (``None`` if unset)."""
        self._slot(oid)
        return self._values.get(oid)

    def set_value(self, oid: int, value: Any) -> None:
        """Set (or clear, with ``None``) the value of node *oid*."""
        self._slot(oid)
        old = self._values.get(oid)
        if value is None:
            self._values.pop(oid, None)
        else:
            self._values[oid] = value
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "value_set", (oid, old))

    def relabel_node(self, oid: int, label: str) -> None:
        """Change the label of node *oid*.

        Relabeling invalidates any structural index built over the graph;
        maintenance of relabelings is out of the paper's scope (they can be
        modelled as node deletion + insertion).
        """
        slot = self._slot(oid)
        if oid == self._root and label != ROOT_LABEL:
            raise RootError("the root node must keep the ROOT label")
        old = self._interner.name_of(self._label_at[slot])
        self._label_at[slot] = self._interner.intern(label)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "relabeled", (oid, old))

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------

    def add_edge(self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE) -> None:
        """Add the dedge ``source -> target``.

        Raises :class:`DuplicateEdgeError` for parallel edges and
        :class:`RootError` for edges into the root (the model forbids them).
        """
        source_slot = self._slot(source)
        target_slot = self._slot(target)
        if self._succ_slabs.contains(source_slot, target):
            raise DuplicateEdgeError(source, target)
        if target == self._root:
            raise RootError("the root node cannot have incoming edges")
        self._succ_slabs.append(source_slot, target)
        self._pred_slabs.append(target_slot, source)
        if kind is EdgeKind.IDREF:
            self._idref.add((source << _OID_SHIFT) | target)
        self._num_edges += 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "edge_added", (source, target))

    def remove_edge(self, source: int, target: int) -> None:
        """Remove the dedge ``source -> target``."""
        source_slot = self._slot(source)
        target_slot = self._slot(target)
        if not self._succ_slabs.contains(source_slot, target):
            raise EdgeNotFoundError(source, target)
        packed = (source << _OID_SHIFT) | target
        if packed in self._idref:
            kind = EdgeKind.IDREF
            self._idref.discard(packed)
        else:
            kind = EdgeKind.TREE
        self._succ_slabs.remove(source_slot, target)
        self._pred_slabs.remove(target_slot, source)
        self._num_edges -= 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "edge_removed", (source, target, kind))

    def has_edge(self, source: int, target: int) -> bool:
        """Return whether the dedge ``source -> target`` exists."""
        slot = self._find(source)
        if slot is None or self._find(target) is None:
            return False
        return self._succ_slabs.contains(slot, target)

    def edge_kind(self, source: int, target: int) -> EdgeKind:
        """Return the :class:`EdgeKind` of an existing edge."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        if ((source << _OID_SHIFT) | target) in self._idref:
            return EdgeKind.IDREF
        return EdgeKind.TREE

    # ------------------------------------------------------------------
    # Views and queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        """The oid of the root node.

        Raises :class:`RootError` when the graph has no root yet.
        """
        if self._root is None:
            raise RootError("data graph has no root node")
        return self._root

    @property
    def has_root(self) -> bool:
        """Whether the root node has been created."""
        return self._root is not None

    @property
    def generation(self) -> int:
        """Mutation counter; bumped by every mutator.

        Lets callers (and the memoized views below) detect staleness with
        one integer comparison instead of re-reading adjacency.
        """
        return self._generation

    def succ(self, oid: int) -> frozenset[int]:
        """The successors (children) of node *oid* as a frozen set.

        Memoized per generation: repeated calls between mutations return
        the same frozen object instead of allocating a copy each time.
        """
        slot = self._slot(oid)
        if self._view_generation != self._generation:
            self._succ_view.clear()
            self._pred_view.clear()
            self._view_generation = self._generation
        view = self._succ_view.get(oid)
        if view is None:
            view = self._succ_view[oid] = frozenset(self._succ_slabs.segment(slot))
        return view

    def pred(self, oid: int) -> frozenset[int]:
        """The predecessors (parents) of node *oid* as a frozen set.

        Memoized per generation, like :meth:`succ`.
        """
        slot = self._slot(oid)
        if self._view_generation != self._generation:
            self._succ_view.clear()
            self._pred_view.clear()
            self._view_generation = self._generation
        view = self._pred_view.get(oid)
        if view is None:
            view = self._pred_view[oid] = frozenset(self._pred_slabs.segment(slot))
        return view

    def iter_succ(self, oid: int) -> Iterator[int]:
        """Iterate over the successors of *oid*.

        The graph must not be mutated during iteration.
        """
        return self._succ_slabs.iter_slot(self._slot(oid))

    def iter_pred(self, oid: int) -> Iterator[int]:
        """Iterate over the predecessors of *oid*.

        The graph must not be mutated during iteration.
        """
        return self._pred_slabs.iter_slot(self._slot(oid))

    def out_degree(self, oid: int) -> int:
        """Number of outgoing edges of *oid*."""
        return self._succ_slabs.length(self._slot(oid))

    def in_degree(self, oid: int) -> int:
        """Number of incoming edges of *oid*."""
        return self._pred_slabs.length(self._slot(oid))

    def nodes(self) -> Iterator[int]:
        """Iterate over all node oids (ascending)."""
        return iter(self._slot_of)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all dedges as ``(source, target)`` pairs."""
        oid_at = self._oid_at
        succ_slabs = self._succ_slabs
        for slot in range(len(oid_at)):
            source = oid_at[slot]
            if source < 0:
                continue
            for target in succ_slabs.iter_slot(slot):
                yield (source, target)

    def edges_of_kind(self, kind: EdgeKind) -> Iterator[tuple[int, int]]:
        """Iterate over all dedges of the given kind."""
        if kind is EdgeKind.IDREF:
            mask = OID_LIMIT - 1
            return ((packed >> _OID_SHIFT, packed & mask) for packed in self._idref)
        idref = self._idref
        return (
            (s, t)
            for s, t in self.edges()
            if ((s << _OID_SHIFT) | t) not in idref
        )

    def labels(self) -> set[str]:
        """The label alphabet Sigma actually used in the graph."""
        name_of = self._interner.name_of
        return {name_of(label_id) for label_id in set(self._label_at) if label_id >= 0}

    def nodes_with_label(self, label: str) -> list[int]:
        """All oids carrying *label* (linear scan; used by tests/tools)."""
        if label not in self._interner:
            return []
        label_id = self._interner.id_of(label)
        oid_at = self._oid_at
        label_at = self._label_at
        return sorted(
            oid_at[slot]
            for slot in range(len(oid_at))
            if oid_at[slot] >= 0 and label_at[slot] == label_id
        )

    @property
    def num_nodes(self) -> int:
        """Number of dnodes ``|V|``."""
        return len(self._slot_of)

    @property
    def num_edges(self) -> int:
        """Number of dedges ``|E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, oid: object) -> bool:
        return self._find(oid) is not None  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataGraph nodes={self.num_nodes} edges={self.num_edges} "
            f"labels={len(self.labels())}>"
        )

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------

    def copy(self) -> "DataGraph":
        """Return an independent deep copy of the graph."""
        clone = DataGraph()
        clone._slot_of = self._slot_of.copy()
        clone._oid_at = array("q", self._oid_at)
        clone._label_at = array("i", self._label_at)
        clone._free_slots = list(self._free_slots)
        clone._interner = self._interner.copy()
        clone._values = dict(self._values)
        clone._succ_slabs = self._succ_slabs.copy()
        clone._pred_slabs = self._pred_slabs.copy()
        clone._idref = set(self._idref)
        clone._root = self._root
        clone._next_oid = self._next_oid
        clone._num_edges = self._num_edges
        return clone

    def add_subgraph(self, other: "DataGraph", preserve_oids: bool = False) -> dict[int, int]:
        """Disjoint-union *other* into this graph.

        Every node of *other* (including its root, which loses its special
        status and keeps only its label) is added with a fresh oid; every
        edge is copied.  Returns the oid translation map
        ``old oid in other -> new oid in self``.

        With ``preserve_oids=True`` nodes keep their oids from *other*
        (the mapping is the identity); a collision with an existing node
        raises :class:`DuplicateNodeError`.  This lets callers that
        allocate oids up front — the corpus layer compiles document
        diffs against known oids before the op is applied — ship a
        subgraph through an asynchronous update stream and still know
        where every node landed.

        This is the raw graph-surgery part of subgraph addition
        (Section 5.2); index maintenance is layered on top by
        :meth:`repro.maintenance.split_merge.SplitMergeMaintainer.add_subgraph`.
        """
        mapping: dict[int, int] = {}
        for oid in other.nodes():
            if preserve_oids:
                mapping[oid] = self.add_node(other.label(oid), other.value(oid), oid=oid)
            else:
                mapping[oid] = self.add_node(other.label(oid), other.value(oid))
        for source, target in other.edges():
            self.add_edge(mapping[source], mapping[target], other.edge_kind(source, target))
        return mapping

    def subgraph_from(self, start: int, follow_idref: bool = False) -> "DataGraph":
        """Extract the subgraph of all nodes reachable from *start*.

        By default only TREE edges are traversed, matching the paper's
        subgraph-extraction protocol ("We do not traverse IDREF edges").
        Edges *between* extracted nodes are all copied regardless of kind.
        The extracted graph keeps the original oids and has no ROOT node
        unless *start* is the root.
        """
        self._slot(start)
        idref = self._idref
        reachable = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            node_slot = self._slot_of[node]
            for child in self._succ_slabs.iter_slot(node_slot):
                if child in reachable:
                    continue
                if not follow_idref and ((node << _OID_SHIFT) | child) in idref:
                    continue
                reachable.add(child)
                stack.append(child)
        sub = DataGraph()
        for oid in reachable:
            sub.add_node(self.label(oid), self._values.get(oid), oid=oid)
            if oid == self._root:
                sub._root = oid
        for oid in reachable:
            for child in self._succ_slabs.iter_slot(self._slot_of[oid]):
                if child in reachable:
                    sub.add_edge(oid, child, self.edge_kind(oid, child))
        return sub

    def remove_nodes(self, oids: Iterable[int]) -> None:
        """Remove a collection of nodes (and all incident edges)."""
        for oid in list(oids):
            if self.has_node(oid):
                self.remove_node(oid)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def approx_bytes(self, deep_values: bool = False) -> int:
        """Approximate resident bytes of the graph's storage.

        Cheap by construction — O(#pages + #overlays + #labels), not
        O(nodes) — so the serving layer can publish it as a gauge on
        every commit.  ``deep_values=True`` additionally walks the node
        values dict exactly (O(values); used by the memory benches),
        otherwise values are estimated at a flat 48 bytes per entry.
        """
        total = (
            self._slot_of.approx_bytes()
            + sys.getsizeof(self._oid_at)
            + sys.getsizeof(self._label_at)
            + sys.getsizeof(self._free_slots)
            + self._interner.approx_bytes()
            + self._succ_slabs.approx_bytes()
            + self._pred_slabs.approx_bytes()
            + sys.getsizeof(self._idref)
            + 32 * len(self._idref)
        )
        if deep_values:
            total += deep_sizeof(self._values)
        else:
            total += sys.getsizeof(self._values) + 48 * len(self._values)
        return total

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency; raise :class:`AssertionError` on bugs.

        Beyond the node bookkeeping this also verifies edge-kind
        consistency: every IDREF entry corresponds to a live edge,
        ``pred``/``succ`` mirror each other in *both* directions, the
        slot maps are bijective, and no IDREF edge targets the root.
        O(n + m).  The guard states the same per-oid facts in one pass
        with the structure's (:mod:`repro.index.stability`); this is the
        reference it is differenced against.
        """
        slot_of = self._slot_of
        for source, slot in slot_of.items():
            assert 0 <= slot < len(self._oid_at) and self._oid_at[slot] == source, (
                f"slot map broken for oid {source}"
            )
            assert self._label_at[slot] >= 0, f"label missing for oid {source}"
            targets = self._succ_slabs.to_list(slot)
            assert len(set(targets)) == len(targets), f"duplicate succ at {source}"
            for target in targets:
                target_slot = slot_of.get(target)
                assert target_slot is not None, f"dangling edge {source}->{target}"
                assert self._pred_slabs.contains(target_slot, source), (
                    f"pred missing for {source}->{target}"
                )
            sources = self._pred_slabs.to_list(slot)
            assert len(set(sources)) == len(sources), f"duplicate pred at {source}"
            for origin in sources:
                origin_slot = slot_of.get(origin)
                assert origin_slot is not None, f"dangling pred {origin}->{source}"
                assert self._succ_slabs.contains(origin_slot, source), (
                    f"succ missing for {origin}->{source}"
                )
        self.check_totals()
        self.check_root()

    def check_root(self) -> None:
        """The root's facts: live, labelled ``ROOT``, no incoming edge.  O(1)."""
        if self._root is None:
            return
        root_slot = self._slot_of.get(self._root)
        if root_slot is None:
            raise AssertionError(f"root oid {self._root} is not a live node")
        if self._interner.name_of(self._label_at[root_slot]) != ROOT_LABEL:
            raise AssertionError("root label corrupted")
        if self._pred_slabs.length(root_slot):
            raise AssertionError("root must have no incoming edges")

    def check_totals(self) -> None:
        """The facts no per-oid check states: the live-slot count, the
        edge counter and the IDREF table.  O(n + #IDREF), no adjacency walk."""
        slot_of = self._slot_of
        out_degree = self._succ_slabs.length
        live_slots = edge_count = 0
        for _, slot in slot_of.items():
            live_slots += 1
            edge_count += out_degree(slot)
        if live_slots != len(slot_of):
            raise AssertionError("slot count out of sync")
        if edge_count != self._num_edges:
            raise AssertionError("edge counter out of sync")
        mask = OID_LIMIT - 1
        for packed in self._idref:
            source, target = packed >> _OID_SHIFT, packed & mask
            source_slot = slot_of.get(source)
            if source_slot is None or not self._succ_slabs.contains(source_slot, target):
                raise AssertionError(f"IDREF entry for non-edge {source}->{target}")
            if target == self._root:
                raise AssertionError(f"IDREF edge {source}->{target} targets root")

    # ------------------------------------------------------------------
    # Journal undo (repro.resilience)
    # ------------------------------------------------------------------

    def _undo_journal(self, op: str, payload: tuple) -> None:
        """Apply the inverse of one journaled mutation.

        Called by :meth:`repro.resilience.MutationJournal.rollback` with
        records in reverse order; must never be called directly.  The
        undo paths write the internal structures directly (never the
        public mutators) so a rollback is itself journal-free.
        """
        self._generation += 1
        if op == "edge_added":
            source, target = payload
            self._succ_slabs.remove(self._slot_of[source], target, missing_ok=True)
            self._pred_slabs.remove(self._slot_of[target], source, missing_ok=True)
            self._idref.discard((source << _OID_SHIFT) | target)
            self._num_edges -= 1
        elif op == "edge_removed":
            source, target, kind = payload
            self._succ_slabs.append(self._slot_of[source], target)
            self._pred_slabs.append(self._slot_of[target], source)
            if kind is EdgeKind.IDREF:
                self._idref.add((source << _OID_SHIFT) | target)
            self._num_edges += 1
        elif op == "node_added":
            oid, prev_next_oid = payload
            self._values.pop(oid, None)
            self._release_slot(oid, self._slot_of[oid])
            self._next_oid = prev_next_oid
        elif op == "node_removed":
            oid, label, value, was_root = payload
            self._alloc_slot(oid, self._interner.intern(label))
            if value is not None:
                self._values[oid] = value
            if was_root:
                self._root = oid
        elif op == "root_set":
            self._root = None
        elif op == "relabeled":
            oid, old = payload
            self._label_at[self._slot_of[oid]] = self._interner.intern(old)
        elif op == "value_set":
            oid, old = payload
            if old is None:
                self._values.pop(oid, None)
            else:
                self._values[oid] = old
        else:  # pragma: no cover - guards against journal format drift
            raise ValueError(f"unknown graph journal op {op!r}")
