"""A read-only copy of a :class:`~repro.graph.datagraph.DataGraph` at one version.

The data half of a published version (:class:`repro.service.snapshot.IndexSnapshot`):
the evaluators walk it exactly like a live graph, and the next version
is formed by :meth:`FrozenGraph.evolve`, which re-captures only the
dnodes a commit touched and shares every other entry.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.exceptions import GraphError
from repro.graph.datagraph import DataGraph


class FrozenGraph:
    """A read-only adjacency copy of a :class:`DataGraph` at one version.

    Exposes the evaluation surface (``root`` / ``iter_succ`` /
    ``iter_pred`` / ``label``) the query engine walks, nothing that
    mutates.  Adjacency is stored as tuples, so even a caller holding a
    reference cannot perturb a published version.
    """

    __slots__ = ("_succ", "_pred", "_label", "_root")

    def __init__(
        self,
        succ: dict[int, tuple[int, ...]],
        pred: dict[int, tuple[int, ...]],
        label: dict[int, str],
        root: Optional[int],
    ):
        self._succ = succ
        self._pred = pred
        self._label = label
        self._root = root

    @classmethod
    def capture(cls, graph: DataGraph) -> "FrozenGraph":
        """Freeze the graph's current nodes, labels and adjacency."""
        succ = {w: tuple(graph.iter_succ(w)) for w in graph.nodes()}
        pred = {w: tuple(graph.iter_pred(w)) for w in graph.nodes()}
        label = {w: graph.label(w) for w in graph.nodes()}
        root = graph.root if graph.has_root else None
        return cls(succ, pred, label, root)

    @classmethod
    def evolve(
        cls, prev: "FrozenGraph", graph: DataGraph, touched: Iterable[int]
    ) -> "FrozenGraph":
        """The next version by structural sharing: re-capture *touched* only.

        Every dnode absent from *touched* keeps the previous version's
        adjacency tuples and label entry (shared, never copied); touched
        dnodes are re-frozen from the live graph, and touched dnodes that
        no longer exist are dropped.  Correct iff *touched* is a superset
        of the dnodes whose label or adjacency changed since *prev* — the
        :class:`~repro.resilience.journal.TouchedSet` contract.
        """
        succ = prev._succ.copy()
        pred = prev._pred.copy()
        label = prev._label.copy()
        for w in touched:
            if graph.has_node(w):
                succ[w] = tuple(graph.iter_succ(w))
                pred[w] = tuple(graph.iter_pred(w))
                label[w] = graph.label(w)
            else:
                succ.pop(w, None)
                pred.pop(w, None)
                label.pop(w, None)
        root = graph.root if graph.has_root else None
        return cls(succ, pred, label, root)

    # -- the evaluation surface of DataGraph ---------------------------

    @property
    def has_root(self) -> bool:
        """Whether the captured graph had a ROOT node."""
        return self._root is not None

    @property
    def root(self) -> int:
        """The ROOT node's oid."""
        if self._root is None:
            raise GraphError("frozen graph has no root")
        return self._root

    def iter_succ(self, oid: int) -> Iterator[int]:
        """Successors of *oid* at capture time."""
        return iter(self._succ[oid])

    def iter_pred(self, oid: int) -> Iterator[int]:
        """Predecessors of *oid* at capture time."""
        return iter(self._pred[oid])

    def label(self, oid: int) -> str:
        """Label of *oid* at capture time."""
        return self._label[oid]

    def nodes(self) -> Iterator[int]:
        """Iterate over the captured node ids."""
        return iter(self._label)

    def has_node(self, oid: int) -> bool:
        """Whether *oid* existed at capture time."""
        return oid in self._label

    def same_node(self, other: "FrozenGraph", oid: int) -> bool:
        """Whether *oid*'s captured label and adjacency agree with *other*.

        Identity-fast: :meth:`evolve` shares untouched entries between
        versions, so the common case is three pointer comparisons.
        Content comparison is order-insensitive (re-capturing an
        unchanged node may reorder its adjacency tuples).  Used by the
        adaptive plane to refine a batch's conservative touched-dnode
        superset down to the dnodes whose serialized form actually
        differs.
        """
        here, there = oid in self._label, oid in other._label
        if not (here and there):
            return here == there
        mine, theirs = self._succ[oid], other._succ[oid]
        if mine is not theirs and sorted(mine) != sorted(theirs):
            return False
        mine, theirs = self._pred[oid], other._pred[oid]
        if mine is not theirs and sorted(mine) != sorted(theirs):
            return False
        return self._label[oid] == other._label[oid]

    @property
    def num_nodes(self) -> int:
        """Number of captured dnodes."""
        return len(self._label)

    @property
    def num_edges(self) -> int:
        """Number of captured dedges."""
        return sum(len(targets) for targets in self._succ.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrozenGraph nodes={self.num_nodes} edges={self.num_edges}>"
