"""The retained dict-backed reference core (pre-slab fossils).

:class:`DictGraph` and :class:`DictIndex` are the dict-of-sets
implementations that :class:`~repro.graph.datagraph.DataGraph` and
:class:`~repro.index.base.StructuralIndex` had before the array-backed
rewrite, preserved verbatim (modulo class names).  They are the
**differential oracle**: ``tests/core/test_differential.py`` drives both
cores through identical mutation scripts and asserts byte-identical
observable state, rollbacks and fingerprints.

Do not "fix" or modernise this module: its value is that it reproduces
the historical behaviour exactly.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any, Optional

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    InvalidIndexError,
    NodeNotFoundError,
    RootError,
    StructuralIndexError,
)
from repro.graph.datagraph import ROOT_LABEL, EdgeKind


class DictGraph:
    """The dict-of-sets data graph (historical ``DataGraph``).

    Public API and journal semantics are identical to
    :class:`~repro.graph.datagraph.DataGraph`; only the storage differs.
    """

    __slots__ = (
        "_labels",
        "_values",
        "_succ",
        "_pred",
        "_edge_kinds",
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
        self._labels: dict[int, str] = {}
        self._values: dict[int, Any] = {}
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        self._edge_kinds: dict[tuple[int, int], EdgeKind] = {}
        self._root: Optional[int] = None
        self._next_oid: int = 0
        self._num_edges: int = 0
        self._journal = None
        self._generation: int = 0
        self._succ_view: dict[int, frozenset[int]] = {}
        self._pred_view: dict[int, frozenset[int]] = {}
        self._view_generation: int = 0

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def add_node(self, label: str, value: Any = None, oid: Optional[int] = None) -> int:
        if oid is None:
            oid = self._next_oid
            while oid in self._labels:  # skip oids taken explicitly
                oid += 1
        elif oid in self._labels:
            raise DuplicateNodeError(oid)
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {type(label).__name__}")
        prev_next_oid = self._next_oid
        self._labels[oid] = label
        if value is not None:
            self._values[oid] = value
        self._succ[oid] = set()
        self._pred[oid] = set()
        self._next_oid = max(self._next_oid, oid + 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "node_added", (oid, prev_next_oid))
        return oid

    def add_root(self, oid: Optional[int] = None) -> int:
        if self._root is not None:
            raise RootError("data graph already has a root node")
        root = self.add_node(ROOT_LABEL, oid=oid)
        self._root = root
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "root_set", (root,))
        return root

    def remove_node(self, oid: int) -> None:
        self._require_node(oid)
        for target in list(self._succ[oid]):
            self.remove_edge(oid, target)
        for source in list(self._pred[oid]):
            self.remove_edge(source, oid)
        label = self._labels[oid]
        value = self._values.get(oid)
        was_root = self._root == oid
        del self._labels[oid]
        self._values.pop(oid, None)
        del self._succ[oid]
        del self._pred[oid]
        if was_root:
            self._root = None
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "node_removed", (oid, label, value, was_root))

    def has_node(self, oid: int) -> bool:
        return oid in self._labels

    def label(self, oid: int) -> str:
        self._require_node(oid)
        return self._labels[oid]

    def value(self, oid: int) -> Any:
        self._require_node(oid)
        return self._values.get(oid)

    def set_value(self, oid: int, value: Any) -> None:
        self._require_node(oid)
        old = self._values.get(oid)
        if value is None:
            self._values.pop(oid, None)
        else:
            self._values[oid] = value
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "value_set", (oid, old))

    def relabel_node(self, oid: int, label: str) -> None:
        self._require_node(oid)
        if oid == self._root and label != ROOT_LABEL:
            raise RootError("the root node must keep the ROOT label")
        old = self._labels[oid]
        self._labels[oid] = label
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "relabeled", (oid, old))

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------

    def add_edge(self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE) -> None:
        self._require_node(source)
        self._require_node(target)
        if target in self._succ[source]:
            raise DuplicateEdgeError(source, target)
        if target == self._root:
            raise RootError("the root node cannot have incoming edges")
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._edge_kinds[(source, target)] = kind
        self._num_edges += 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "edge_added", (source, target))

    def remove_edge(self, source: int, target: int) -> None:
        self._require_node(source)
        self._require_node(target)
        if target not in self._succ[source]:
            raise EdgeNotFoundError(source, target)
        kind = self._edge_kinds[(source, target)]
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        del self._edge_kinds[(source, target)]
        self._num_edges -= 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "edge_removed", (source, target, kind))

    def has_edge(self, source: int, target: int) -> bool:
        return source in self._succ and target in self._succ[source]

    def edge_kind(self, source: int, target: int) -> EdgeKind:
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        return self._edge_kinds[(source, target)]

    # ------------------------------------------------------------------
    # Views and queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        if self._root is None:
            raise RootError("data graph has no root node")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root is not None

    @property
    def generation(self) -> int:
        return self._generation

    def succ(self, oid: int) -> frozenset[int]:
        self._require_node(oid)
        if self._view_generation != self._generation:
            self._succ_view.clear()
            self._pred_view.clear()
            self._view_generation = self._generation
        view = self._succ_view.get(oid)
        if view is None:
            view = self._succ_view[oid] = frozenset(self._succ[oid])
        return view

    def pred(self, oid: int) -> frozenset[int]:
        self._require_node(oid)
        if self._view_generation != self._generation:
            self._succ_view.clear()
            self._pred_view.clear()
            self._view_generation = self._generation
        view = self._pred_view.get(oid)
        if view is None:
            view = self._pred_view[oid] = frozenset(self._pred[oid])
        return view

    def iter_succ(self, oid: int) -> Iterator[int]:
        self._require_node(oid)
        return iter(self._succ[oid])

    def iter_pred(self, oid: int) -> Iterator[int]:
        self._require_node(oid)
        return iter(self._pred[oid])

    def out_degree(self, oid: int) -> int:
        self._require_node(oid)
        return len(self._succ[oid])

    def in_degree(self, oid: int) -> int:
        self._require_node(oid)
        return len(self._pred[oid])

    def nodes(self) -> Iterator[int]:
        return iter(self._labels)

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._edge_kinds)

    def edges_of_kind(self, kind: EdgeKind) -> Iterator[tuple[int, int]]:
        return (edge for edge, k in self._edge_kinds.items() if k is kind)

    def labels(self) -> set[str]:
        return set(self._labels.values())

    def nodes_with_label(self, label: str) -> list[int]:
        return [oid for oid, lab in self._labels.items() if lab == label]

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, Hashable) and oid in self._labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DictGraph nodes={self.num_nodes} edges={self.num_edges} "
            f"labels={len(self.labels())}>"
        )

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------

    def copy(self) -> "DictGraph":
        clone = DictGraph()
        clone._labels = dict(self._labels)
        clone._values = dict(self._values)
        clone._succ = {oid: set(s) for oid, s in self._succ.items()}
        clone._pred = {oid: set(p) for oid, p in self._pred.items()}
        clone._edge_kinds = dict(self._edge_kinds)
        clone._root = self._root
        clone._next_oid = self._next_oid
        clone._num_edges = self._num_edges
        return clone

    def add_subgraph(self, other: "DictGraph", preserve_oids: bool = False) -> dict[int, int]:
        mapping: dict[int, int] = {}
        for oid in other.nodes():
            if preserve_oids:
                mapping[oid] = self.add_node(other.label(oid), other.value(oid), oid=oid)
            else:
                mapping[oid] = self.add_node(other.label(oid), other.value(oid))
        for source, target in other.edges():
            self.add_edge(mapping[source], mapping[target], other.edge_kind(source, target))
        return mapping

    def subgraph_from(self, start: int, follow_idref: bool = False) -> "DictGraph":
        reachable = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for child in self._succ[node]:
                if child in reachable:
                    continue
                if not follow_idref and self._edge_kinds[(node, child)] is EdgeKind.IDREF:
                    continue
                reachable.add(child)
                stack.append(child)
        sub = DictGraph()
        for oid in reachable:
            sub.add_node(self._labels[oid], self._values.get(oid), oid=oid)
            if oid == self._root:
                sub._root = oid
        for oid in reachable:
            for child in self._succ[oid]:
                if child in reachable:
                    sub.add_edge(oid, child, self._edge_kinds[(oid, child)])
        return sub

    def remove_nodes(self, oids: Iterable[int]) -> None:
        for oid in list(oids):
            if self.has_node(oid):
                self.remove_node(oid)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        assert set(self._succ) == set(self._labels), "succ keys out of sync"
        assert set(self._pred) == set(self._labels), "pred keys out of sync"
        edge_count = 0
        for source, targets in self._succ.items():
            for target in targets:
                assert source in self._pred[target], f"pred missing for {source}->{target}"
                assert (source, target) in self._edge_kinds, f"kind missing {source}->{target}"
                edge_count += 1
        for target, sources in self._pred.items():
            for source in sources:
                assert target in self._succ[source], f"succ missing for {source}->{target}"
        assert edge_count == self._num_edges, "edge counter out of sync"
        assert edge_count == len(self._edge_kinds), "edge kinds out of sync"
        for (source, target), kind in self._edge_kinds.items():
            assert isinstance(kind, EdgeKind), f"non-EdgeKind kind for {source}->{target}"
            assert target in self._succ.get(source, ()), (
                f"kind entry for non-edge {source}->{target}"
            )
            if kind is EdgeKind.IDREF:
                assert target != self._root, f"IDREF edge {source}->{target} targets root"
        if self._root is not None:
            assert self._labels[self._root] == ROOT_LABEL, "root label corrupted"
            assert not self._pred[self._root], "root must have no incoming edges"

    # ------------------------------------------------------------------
    # Journal undo (repro.resilience)
    # ------------------------------------------------------------------

    def _undo_journal(self, op: str, payload: tuple) -> None:
        self._generation += 1
        if op == "edge_added":
            source, target = payload
            self._succ[source].discard(target)
            self._pred[target].discard(source)
            del self._edge_kinds[(source, target)]
            self._num_edges -= 1
        elif op == "edge_removed":
            source, target, kind = payload
            self._succ[source].add(target)
            self._pred[target].add(source)
            self._edge_kinds[(source, target)] = kind
            self._num_edges += 1
        elif op == "node_added":
            oid, prev_next_oid = payload
            del self._labels[oid]
            self._values.pop(oid, None)
            del self._succ[oid]
            del self._pred[oid]
            self._next_oid = prev_next_oid
        elif op == "node_removed":
            oid, label, value, was_root = payload
            self._labels[oid] = label
            if value is not None:
                self._values[oid] = value
            self._succ[oid] = set()
            self._pred[oid] = set()
            if was_root:
                self._root = oid
        elif op == "root_set":
            self._root = None
        elif op == "relabeled":
            oid, old = payload
            self._labels[oid] = old
        elif op == "value_set":
            oid, old = payload
            if old is None:
                self._values.pop(oid, None)
            else:
                self._values[oid] = old
        else:  # pragma: no cover - guards against journal format drift
            raise ValueError(f"unknown graph journal op {op!r}")

    def approx_bytes(self) -> int:
        """Deep resident bytes of the graph's containers."""
        from repro.core.sizing import deep_sizeof

        seen: set[int] = set()
        return sum(
            deep_sizeof(container, seen)
            for container in (
                self._labels,
                self._values,
                self._succ,
                self._pred,
                self._edge_kinds,
            )
        )

    def _require_node(self, oid: int) -> None:
        if oid not in self._labels:
            raise NodeNotFoundError(oid)


class DictIndex:
    """The dict-of-sets structural index (historical ``StructuralIndex``)."""

    def __init__(self, graph):
        self.graph = graph
        self._inode_of: dict[int, int] = {}
        self._extent: dict[int, set[int]] = {}
        self._label: dict[int, str] = {}
        self._succ_support: dict[int, dict[int, int]] = {}
        self._pred_support: dict[int, dict[int, int]] = {}
        self._next_id = 0
        self._journal = None
        self._generation: int = 0

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------

    @classmethod
    def from_partition(cls, graph, blocks: Iterable[Iterable[int]]) -> "DictIndex":
        index = cls(graph)
        for block in blocks:
            members = list(block)
            if not members:
                continue
            labels = {graph.label(w) for w in members}
            if len(labels) != 1:
                raise InvalidIndexError(f"block {sorted(members)} mixes labels {labels}")
            inode = index.new_inode(labels.pop())
            for w in members:
                if w in index._inode_of:
                    raise InvalidIndexError(f"dnode {w} appears in two blocks")
                index._inode_of[w] = inode
                index._extent[inode].add(w)
        missing = set(graph.nodes()) - set(index._inode_of)
        if missing:
            raise InvalidIndexError(f"partition misses dnodes {sorted(missing)[:5]}...")
        index.rebuild_iedges()
        return index

    def new_inode(self, label: str) -> int:
        inode = self._next_id
        self._next_id += 1
        self._extent[inode] = set()
        self._label[inode] = label
        self._succ_support[inode] = {}
        self._pred_support[inode] = {}
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "inode_created", (inode,))
        return inode

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def inode_of(self, dnode: int) -> int:
        try:
            return self._inode_of[dnode]
        except KeyError:
            raise StructuralIndexError(f"dnode {dnode} is not covered by the index") from None

    def covers(self, dnode: int) -> bool:
        return dnode in self._inode_of

    def extent(self, inode: int) -> set[int]:
        self._require(inode)
        return self._extent[inode]

    def extent_size(self, inode: int) -> int:
        self._require(inode)
        return len(self._extent[inode])

    def label_of(self, inode: int) -> str:
        self._require(inode)
        return self._label[inode]

    def has_inode(self, inode: int) -> bool:
        return inode in self._extent

    def inodes(self) -> Iterator[int]:
        return iter(self._extent)

    @property
    def num_inodes(self) -> int:
        return len(self._extent)

    @property
    def num_iedges(self) -> int:
        return sum(len(targets) for targets in self._succ_support.values())

    def __len__(self) -> int:
        return len(self._extent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DictIndex inodes={self.num_inodes} iedges={self.num_iedges}>"

    # ------------------------------------------------------------------
    # Index-graph navigation
    # ------------------------------------------------------------------

    def isucc(self, inode: int) -> Iterator[int]:
        self._require(inode)
        return iter(self._succ_support[inode])

    def ipred(self, inode: int) -> Iterator[int]:
        self._require(inode)
        return iter(self._pred_support[inode])

    @property
    def generation(self) -> int:
        return self._generation

    def ipred_set(self, inode: int) -> frozenset[int]:
        self._require(inode)
        return frozenset(self._pred_support[inode])

    def has_iedge(self, source: int, target: int) -> bool:
        self._require(source)
        self._require(target)
        return target in self._succ_support[source]

    def support(self, source: int, target: int) -> int:
        self._require(source)
        self._require(target)
        return self._succ_support[source].get(target, 0)

    def succ_extent(self, inode: int) -> set[int]:
        self._require(inode)
        result: set[int] = set()
        for w in self._extent[inode]:
            result.update(self.graph.iter_succ(w))
        return result

    def succ_extent_of(self, inodes: Iterable[int]) -> set[int]:
        result: set[int] = set()
        for inode in inodes:
            result.update(self.succ_extent(inode))
        return result

    def dnode_iparents(self, dnode: int) -> frozenset[int]:
        return frozenset(self._inode_of[p] for p in self.graph.iter_pred(dnode))

    # ------------------------------------------------------------------
    # Partition surgery
    # ------------------------------------------------------------------

    def move_dnode(self, dnode: int, to_inode: int) -> None:
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
        self._extent[source].discard(dnode)
        self._extent[to_inode].add(dnode)
        self._inode_of[dnode] = to_inode
        self._attach(dnode)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_moved", (dnode, source))

    def split_off(self, inode: int, members: Iterable[int]) -> int:
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
        ids = list(dict.fromkeys(inodes))
        if len(ids) < 2:
            raise StructuralIndexError("merge needs at least two distinct inodes")
        labels = {self.label_of(i) for i in ids}
        if len(labels) != 1:
            raise InvalidIndexError(f"cannot merge inodes with labels {labels}")
        survivor = max(ids, key=lambda i: len(self._extent[i]))
        for other in ids:
            if other != survivor:
                self._fold_into(survivor, other)
        return survivor

    def _fold_into(self, survivor: int, other: int) -> None:
        before = None
        if self._journal is not None:
            before = (
                survivor,
                other,
                self._label[other],
                frozenset(self._extent[other]),
                dict(self._succ_support[other]),
                dict(self._pred_support[other]),
                dict(self._succ_support[survivor]),
                dict(self._pred_support[survivor]),
            )
        for w in self._extent[other]:
            self._inode_of[w] = survivor
        self._extent[survivor].update(self._extent[other])

        surv_succ = self._succ_support[survivor]
        surv_pred = self._pred_support[survivor]

        count = surv_succ.pop(other, 0)
        if count:
            self._bump(surv_succ, survivor, count)
            self._bump(surv_pred, survivor, count)
        count = surv_pred.pop(other, 0)
        if count:
            self._bump(surv_succ, survivor, count)
            self._bump(surv_pred, survivor, count)

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
        for origin, count in self._pred_support[other].items():
            if origin in (survivor, other):
                continue  # already folded above
            self._bump(surv_pred, origin, count)
            origin_succ = self._succ_support[origin]
            origin_succ.pop(other)
            self._bump(origin_succ, survivor, count)

        del self._extent[other]
        del self._label[other]
        del self._succ_support[other]
        del self._pred_support[other]
        self._generation += 1
        if before is not None:
            self._journal.record(self, "merge_folded", before)

    def remove_if_empty(self, inode: int) -> bool:
        if inode not in self._extent or self._extent[inode]:
            return False
        if self._succ_support[inode] or self._pred_support[inode]:
            raise StructuralIndexError(
                f"empty inode {inode} still has iedges; supports corrupted"
            )
        label = self._label[inode]
        del self._extent[inode]
        del self._label[inode]
        del self._succ_support[inode]
        del self._pred_support[inode]
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "inode_destroyed", (inode, label))
        return True

    def add_dnode(self, dnode: int, inode: Optional[int] = None) -> int:
        if dnode in self._inode_of:
            raise StructuralIndexError(f"dnode {dnode} is already covered")
        label = self.graph.label(dnode)
        if inode is None:
            inode = self.new_inode(label)
        elif self._label[inode] != label:
            raise InvalidIndexError(
                f"dnode {dnode} ({label!r}) cannot join inode labeled "
                f"{self._label[inode]!r}"
            )
        self._extent[inode].add(dnode)
        self._inode_of[dnode] = inode
        self._attach(dnode)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_covered", (dnode, inode))
        return inode

    def absorb_blocks(self, blocks: Iterable[Iterable[int]]) -> list[int]:
        new_ids: list[int] = []
        new_nodes: set[int] = set()
        for block in blocks:
            members = list(block)
            if not members:
                continue
            inode = self.new_inode(self.graph.label(members[0]))
            new_ids.append(inode)
            for w in members:
                if w in self._inode_of:
                    raise StructuralIndexError(f"dnode {w} is already covered")
                if self.graph.label(w) != self._label[inode]:
                    raise InvalidIndexError(f"block mixes labels at dnode {w}")
                self._inode_of[w] = inode
                self._extent[inode].add(w)
                new_nodes.add(w)
        self._account_new_nodes(new_nodes, 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "blocks_absorbed", (frozenset(new_nodes),))
        return new_ids

    def _account_new_nodes(self, new_nodes: set[int], sign: int) -> None:
        for w in new_nodes:
            wi = self._inode_of[w]
            for c in self.graph.iter_succ(w):
                ci = self._inode_of.get(c)
                if ci is not None:
                    self._bump(self._succ_support[wi], ci, sign)
                    self._bump(self._pred_support[ci], wi, sign)
            for p in self.graph.iter_pred(w):
                if p in new_nodes or p == w:
                    continue  # internal edges were counted from the succ side
                pi = self._inode_of.get(p)
                if pi is not None:
                    self._bump(self._succ_support[pi], wi, sign)
                    self._bump(self._pred_support[wi], pi, sign)

    def drop_dnode(self, dnode: int) -> None:
        inode = self.inode_of(dnode)
        self._detach(dnode)
        self._extent[inode].discard(dnode)
        del self._inode_of[dnode]
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "dnode_dropped", (dnode, inode))
        self.remove_if_empty(inode)

    # ------------------------------------------------------------------
    # Dedge notifications
    # ------------------------------------------------------------------

    def note_edge_added(self, source: int, target: int) -> None:
        si = self.inode_of(source)
        ti = self.inode_of(target)
        self._bump(self._succ_support[si], ti, 1)
        self._bump(self._pred_support[ti], si, 1)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "support_bumped", (si, ti, 1))

    def note_edge_removed(self, source: int, target: int) -> None:
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
        for inode in self._extent:
            self._succ_support[inode] = {}
            self._pred_support[inode] = {}
        for source, target in self.graph.edges():
            si = self._inode_of[source]
            ti = self._inode_of[target]
            self._bump(self._succ_support[si], ti, 1)
            self._bump(self._pred_support[ti], si, 1)
        self._generation += 1

    def partition(self) -> list[frozenset[int]]:
        return [frozenset(extent) for extent in self._extent.values()]

    def as_blocks(self) -> set[frozenset[int]]:
        return {frozenset(extent) for extent in self._extent.values()}

    def copy(self) -> "DictIndex":
        clone = DictIndex(self.graph)
        clone._inode_of = dict(self._inode_of)
        clone._extent = {i: set(e) for i, e in self._extent.items()}
        clone._label = dict(self._label)
        clone._succ_support = {i: dict(s) for i, s in self._succ_support.items()}
        clone._pred_support = {i: dict(p) for i, p in self._pred_support.items()}
        clone._next_id = self._next_id
        return clone

    def check_invariants(self) -> None:
        covered: set[int] = set()
        for inode, extent in self._extent.items():
            assert extent, f"inode {inode} has an empty extent"
            for w in extent:
                assert self._inode_of.get(w) == inode, f"mapping broken for dnode {w}"
                assert self.graph.label(w) == self._label[inode], (
                    f"label mismatch in inode {inode}"
                )
            assert not (covered & extent), "extents overlap"
            covered |= extent
        assert covered == set(self.graph.nodes()), "partition does not cover the graph"

        oracle: dict[int, dict[int, int]] = {i: {} for i in self._extent}
        for source, target in self.graph.edges():
            self._bump(oracle[self._inode_of[source]], self._inode_of[target], 1)
        for inode in self._extent:
            assert self._succ_support[inode] == oracle[inode], (
                f"succ supports of inode {inode} drifted: "
                f"{self._succ_support[inode]} != {oracle[inode]}"
            )
        pred_oracle: dict[int, dict[int, int]] = {i: {} for i in self._extent}
        for source, targets in oracle.items():
            for target, count in targets.items():
                self._bump(pred_oracle[target], source, count)
        for inode in self._extent:
            assert self._pred_support[inode] == pred_oracle[inode], (
                f"pred supports of inode {inode} drifted"
            )

    # ------------------------------------------------------------------
    # Journal undo (repro.resilience)
    # ------------------------------------------------------------------

    def _undo_journal(self, op: str, payload: tuple) -> None:
        self._generation += 1
        if op == "support_bumped":
            si, ti, delta = payload
            self._bump(self._succ_support[si], ti, -delta)
            self._bump(self._pred_support[ti], si, -delta)
        elif op == "dnode_moved":
            dnode, from_inode = payload
            to_inode = self._inode_of[dnode]
            self._detach(dnode)
            self._extent[to_inode].discard(dnode)
            self._extent[from_inode].add(dnode)
            self._inode_of[dnode] = from_inode
            self._attach(dnode)
        elif op == "dnode_covered":
            dnode, inode = payload
            self._detach(dnode)
            self._extent[inode].discard(dnode)
            del self._inode_of[dnode]
        elif op == "dnode_dropped":
            dnode, inode = payload
            self._extent[inode].add(dnode)
            self._inode_of[dnode] = inode
            self._attach(dnode)
        elif op == "inode_created":
            (inode,) = payload
            del self._extent[inode]
            del self._label[inode]
            del self._succ_support[inode]
            del self._pred_support[inode]
            self._next_id = inode
        elif op == "inode_destroyed":
            inode, label = payload
            self._extent[inode] = set()
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
            self._extent[other] = set(other_extent)
            self._label[other] = other_label
            self._succ_support[other] = dict(other_succ)
            self._pred_support[other] = dict(other_pred)
            self._succ_support[survivor] = dict(surv_succ)
            self._pred_support[survivor] = dict(surv_pred)
            self._extent[survivor] -= other_extent
            for w in other_extent:
                self._inode_of[w] = other
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
                self._extent[self._inode_of[w]].discard(w)
                del self._inode_of[w]
        else:  # pragma: no cover - guards against journal format drift
            raise ValueError(f"unknown index journal op {op!r}")

    def approx_bytes(self) -> int:
        """Deep resident bytes of the index's containers (graph excluded)."""
        from repro.core.sizing import deep_sizeof

        seen: set[int] = set()
        return sum(
            deep_sizeof(container, seen)
            for container in (
                self._inode_of,
                self._extent,
                self._label,
                self._succ_support,
                self._pred_support,
            )
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _detach(self, dnode: int) -> None:
        inode = self._inode_of[dnode]
        for p in self.graph.iter_pred(dnode):
            pi = self._inode_of[p]
            self._bump(self._succ_support[pi], inode, -1)
            self._bump(self._pred_support[inode], pi, -1)
        for c in self.graph.iter_succ(dnode):
            if c == dnode:
                continue  # the self-loop was handled in the pred pass
            ci = self._inode_of[c]
            self._bump(self._succ_support[inode], ci, -1)
            self._bump(self._pred_support[ci], inode, -1)

    def _attach(self, dnode: int) -> None:
        inode = self._inode_of[dnode]
        for p in self.graph.iter_pred(dnode):
            pi = self._inode_of[p]
            self._bump(self._succ_support[pi], inode, 1)
            self._bump(self._pred_support[inode], pi, 1)
        for c in self.graph.iter_succ(dnode):
            if c == dnode:
                continue
            ci = self._inode_of[c]
            self._bump(self._succ_support[inode], ci, 1)
            self._bump(self._pred_support[ci], inode, 1)

    @staticmethod
    def _bump(counter: dict[int, int], key: int, delta: int) -> None:
        new = counter.get(key, 0) + delta
        if new < 0:
            raise StructuralIndexError("support counter went negative; state corrupted")
        if new == 0:
            counter.pop(key, None)
        else:
            counter[key] = new

    def _require(self, inode: int) -> None:
        if inode not in self._extent:
            raise StructuralIndexError(f"inode {inode} does not exist")


# ----------------------------------------------------------------------
# Conversion and construction helpers for A/B runs
# ----------------------------------------------------------------------


def to_dict_graph(graph) -> DictGraph:
    """Replay any graph implementing the DataGraph API into a DictGraph.

    Nodes are replayed in ascending-oid order and edges sorted, so the
    resulting dict graph's iteration order matches the slab core's —
    which makes from-scratch index builds assign identical inode ids on
    both cores (the fingerprint-equality contract of the A/B benches).
    """
    clone = DictGraph()
    root = graph.root if graph.has_root else None
    for oid in sorted(graph.nodes()):
        if oid == root:
            clone.add_root(oid=oid)
            if graph.value(oid) is not None:
                clone.set_value(oid, graph.value(oid))
        else:
            clone.add_node(graph.label(oid), graph.value(oid), oid=oid)
    for source, target in sorted(graph.edges()):
        clone.add_edge(source, target, graph.edge_kind(source, target))
    clone._next_oid = graph._next_oid
    return clone


def build_dict_one_index(graph: DictGraph) -> DictIndex:
    """The minimum 1-index over a DictGraph via signature iteration.

    Mirrors ``OneIndex.build(graph)`` on the slab core, through the
    per-round reference rather than the engine it is compared with.
    """
    from repro.index.construction import blocks_of

    from tests.index.signature_reference import reference_partition

    return DictIndex.from_partition(graph, blocks_of(reference_partition(graph)))


def build_dict_family(graph: DictGraph, k: int):
    """The minimum A(k) family over a DictGraph, levels from the per-round reference."""
    from repro.index.akindex import AkIndexFamily

    from tests.index.signature_reference import reference_ak_maps

    return AkIndexFamily._from_class_maps(graph, reference_ak_maps(graph, k))
