"""Immutable published index versions (the read side of the service).

The serving discipline of :class:`~repro.service.service.IndexService`
is single-writer / multi-reader: queries never touch the live graph or
the live index the writer is mutating.  Instead, after every committed
batch the writer *publishes* an :class:`IndexSnapshot` — a frozen copy
of the index graph (extents, labels, iedges) plus a frozen copy of the
data graph — and swaps it in atomically (one reference assignment).
Readers grab the current snapshot reference once per query and evaluate
entirely against it, so a query sees one consistent version end to end
no matter how many batches commit underneath it.

Publishing is **incremental**: when a previous version exists, the
writer calls :meth:`IndexSnapshot.evolve` with the batch's touched set
(accumulated by :class:`repro.resilience.TouchedSet` from the mutation
journal) — the next version's dicts start as copies of the previous
version's, structurally sharing every untouched entry, and only the
touched keys are re-captured.  That makes publish cost O(touched keys)
plus an O(|dict|) pointer copy, instead of re-freezing every adjacency
tuple and extent frozenset — the same
update-cost-proportional-to-the-change principle the paper applies to
the index itself, applied one layer up.  One ``capture`` / ``evolve``
pair freezes either structure through its ``leaf()``: a 1-index is its
own read surface, an A(k) family hands out the
:class:`~repro.index.akindex.LeafView` that gives its leaf level the
same one.  A full :meth:`capture` remains
the cold-start path and the fallback whenever the touched set is marked
``full`` (e.g. after a degrade-rebuild, which renames every inode).
Batching still amortises the per-publish work, and the per-batch
invariant check still beats per-update commits — see
:meth:`GuardedMaintainer.apply_batch`.

Both frozen views duck-type exactly the surface the evaluators in
:mod:`repro.query` consume, so ``evaluate_on_graph(snapshot.graph, q)``
and ``snapshot.evaluate(q)`` run unchanged — the differential serving
tests lean on that to byte-compare index-served answers against
from-scratch graph evaluation *of the same version*.

A :class:`FrozenIndex` also carries the version's **evaluation seed**
(``roots``): the inode that holds the graph's root, read off the live
partition map by every ``capture`` / ``evolve`` (O(1); a split can
move the root to a fresh inode id, so it is re-read, never copied from
the previous version).  ``FrozenIndex.evaluation_tables()`` hands the
query kernel that seed and the raw ``__getitem__`` of the version's
iedge and extent dicts and of its **label table**
(:class:`~repro.index.base.LabelTable`, ``label -> inodes``), which
``evolve`` re-forms only for the labels an inode joined or left.  The
kernel may skip the per-inode existence check the public ``label_of`` /
``isucc`` / ``extent`` methods make because a version is closed: its
seed and every iedge target are keys of the same immutable dicts, so a
lookup the kernel makes cannot miss.  Being closed, a version also
answers a loop state's closure the same way every time: the tables end
with the version's **closure memo**, where the kernel keeps the closure
of each layer entering a loop state (at most four), so ``//x`` pays its
walk over every reachable inode once per version.  ``evolve`` starts the
next version's memo empty — a commit may change any reachable iedge.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.exceptions import GraphError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily, LeafView
from repro.index.base import LabelTable, StructuralIndex
from repro.index.structure import Structure
from repro.query.automaton import PathNfa
from repro.query.evaluator import EvaluationReport
from repro.query.index_evaluator import evaluate_on_ak, evaluate_on_index
from repro.query.path_expression import PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.journal import TouchedSet


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


class FrozenIndex:
    """A read-only extent/iedge copy of a :class:`StructuralIndex` or of
    an A(k) family's leaf level (its :class:`~repro.index.akindex.LeafView`).

    Implements the surface :func:`repro.query.evaluate_on_index` and
    :func:`repro.query.evaluate_on_ak` consume (``evaluation_tables`` /
    ``.graph``) plus the checked public reads (``inodes`` / ``label_of``
    / ``isucc`` / ``extent``); the attached graph is the
    :class:`FrozenGraph` of the same version, so A(k) validation walks
    the matching data, never the writer's live copy.
    """

    __slots__ = ("graph", "roots", "_extent", "_isucc", "_labelled", "_closures")

    def __init__(
        self,
        graph: FrozenGraph,
        root: Optional[int],
        extent: dict[int, frozenset[int]],
        isucc: dict[int, tuple[int, ...]],
        labelled: LabelTable,
    ):
        self.graph = graph
        #: the evaluation seed: the inode holding ``graph.root`` (``()`` if rootless)
        self.roots: tuple[int, ...] = () if root is None else (root,)
        self._extent = extent
        self._isucc = isucc
        #: ``label -> inodes`` of this version, the only place labels are kept:
        #: an inode's own label is its members' (:meth:`label_of`)
        self._labelled = labelled
        #: the query kernel's loop-state closures of this version, filled
        #: by its first evaluations and never carried to the next version
        self._closures: dict = {}

    @classmethod
    def capture(
        cls, index: "StructuralIndex | LeafView", graph: FrozenGraph
    ) -> "FrozenIndex":
        """Freeze an index's partition and iedges against *graph*."""
        extent = {i: frozenset(index.extent(i)) for i in index.inodes()}
        isucc = {i: tuple(index.isucc(i)) for i in index.inodes()}
        labelled = LabelTable.group((i, index.label_of(i)) for i in index.inodes())
        root = index.inode_of(graph.root) if graph.has_root else None
        return cls(graph, root, extent, isucc, labelled)

    @classmethod
    def evolve(
        cls,
        prev: "FrozenIndex",
        index: "StructuralIndex | LeafView",
        graph: FrozenGraph,
        touched: Iterable[int],
    ) -> "FrozenIndex":
        """The next version by structural sharing: re-capture *touched* only.

        Untouched inodes keep the previous version's extent frozenset and
        iedge tuple; touched inodes are re-frozen from the live index, and
        touched inodes that no longer exist are dropped.  Correct iff
        *touched* is a superset of the inodes whose extent or iedges
        changed since *prev*.  An inode keeps its label while it lives, so
        the label table changes only where a touched id was created or
        destroyed: those labels' sets are re-formed, every other set is
        shared, and a commit that did neither publishes *prev*'s table.
        """
        before = prev._extent
        extent = before.copy()
        isucc = prev._isucc.copy()
        moved: dict[str, set[int]] = {}  # label -> the ids that joined or left it
        for i in touched:
            if index.has_inode(i):
                if i not in before:
                    moved.setdefault(index.label_of(i), set()).add(i)
                extent[i] = frozenset(index.extent(i))
                isucc[i] = tuple(index.isucc(i))
            elif i in before:
                moved.setdefault(prev.label_of(i), set()).add(i)
                del extent[i], isucc[i]
        labelled = prev._labelled
        if moved:
            labelled = LabelTable(labelled)
            for label, ids in moved.items():
                # leavers are members and joiners are not, so one copy of
                # the old set with the few ids toggled
                members = frozenset(ids) ^ labelled[label]
                if members:
                    labelled[label] = members
                else:
                    del labelled[label]
        root = index.inode_of(graph.root) if graph.has_root else None
        return cls(graph, root, extent, isucc, labelled)

    def same_entry(self, other: "FrozenIndex", token: int) -> bool:
        """Whether *token*'s captured extent/label/iedges agree with *other*.

        Identity-fast (evolve shares untouched entries) with
        order-insensitive iedge comparison (re-capturing an unchanged
        token may reorder its tuple).  Lets the adaptive plane refine a
        batch's conservative touched-token superset down to the tokens
        whose serialized form actually differs — the difference between
        near-total and footprint-precise cache invalidation.
        """
        here, there = token in self._extent, token in other._extent
        if not (here and there):
            return here == there
        mine, theirs = self._extent[token], other._extent[token]
        if mine is not theirs and mine != theirs:
            return False
        if self.label_of(token) != other.label_of(token):
            return False
        mine, theirs = self._isucc[token], other._isucc[token]
        return mine is theirs or set(mine) == set(theirs)

    # -- the evaluation surface of StructuralIndex ---------------------

    def evaluation_tables(self) -> tuple:
        """``(roots, children_of, labelled, extent_of, closures)`` for the query kernel.

        The raw ``__getitem__`` of this version's own tables: every iedge
        target of an immutable version is a key of its iedge and extent
        dicts, so the kernel needs no per-edge existence check, and the
        label table answers an absent label with the empty set.  The
        version's closure memo goes last: readers racing to fill it store
        identical values.
        """
        return (
            self.roots,
            self._isucc.__getitem__,
            self._labelled.__getitem__,
            self._extent.__getitem__,
            self._closures,
        )

    def inodes(self) -> Iterator[int]:
        """Iterate over the captured inode ids."""
        return iter(self._extent)

    def label_of(self, inode: int) -> str:
        """The label shared by the extent of *inode*."""
        self._require(inode)
        return self.graph.label(next(iter(self._extent[inode])))

    def extent(self, inode: int) -> frozenset[int]:
        """The captured extent of *inode*."""
        self._require(inode)
        return self._extent[inode]

    def isucc(self, inode: int) -> Iterator[int]:
        """Captured index successors of *inode*."""
        self._require(inode)
        return iter(self._isucc[inode])

    @property
    def num_inodes(self) -> int:
        """Number of captured inodes."""
        return len(self._extent)

    def _require(self, inode: int) -> None:
        if inode not in self._extent:
            raise StructuralIndexError(f"inode {inode} does not exist")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrozenIndex inodes={self.num_inodes}>"


#: how a frozen leaf of each kind answers a path: a 1-index is precise on
#: the index graph alone; an A(k) leaf validates long or descendant-axis
#: expressions against the version's own frozen data graph (Section 3)
EVALUATORS = {
    StructuralIndex.kind: lambda index, k, query: evaluate_on_index(index, query),
    AkIndexFamily.kind: evaluate_on_ak,
}


class IndexSnapshot:
    """One published, immutable index version.

    ``version`` counts committed batches (version 0 is the freshly built
    index before any update).  ``kind`` and ``k`` are those of the
    structure that produced it and pick its entry of :data:`EVALUATORS`.
    """

    __slots__ = ("version", "kind", "k", "graph", "index", "ladder")

    def __init__(
        self,
        version: int,
        kind: str,
        k: int,
        graph: FrozenGraph,
        index: FrozenIndex,
    ):
        if kind not in EVALUATORS:
            raise ValueError(f"unknown snapshot kind {kind!r}")
        self.version = version
        self.kind = kind
        self.k = k
        self.graph = graph
        self.index = index
        #: the adaptive plane's ``LadderState`` of this version, hung here
        #: before publication: one reference read, a consistent pair
        self.ladder = None

    @classmethod
    def capture(cls, version: int, graph: DataGraph, structure: Structure) -> "IndexSnapshot":
        """Freeze the writer's live graph and structure into one version."""
        frozen_graph = FrozenGraph.capture(graph)
        frozen_index = FrozenIndex.capture(structure.leaf(), frozen_graph)
        return cls(version, structure.kind, structure.k, frozen_graph, frozen_index)

    @classmethod
    def evolve(
        cls,
        prev: "IndexSnapshot",
        version: int,
        graph: DataGraph,
        touched: "TouchedSet",
        structure: Structure,
    ) -> "IndexSnapshot":
        """The next version from *prev* + the batch's touched set.

        Cost is O(touched entries re-captured) plus the O(|dict|)
        pointer-copies of the shared tables — per-entry tuple/frozenset
        construction, the dominant cost of :meth:`capture`, happens only
        for touched keys.  Falls back to a full :meth:`capture` when the
        touched set is marked ``full`` (degrade-rebuild renamed every
        inode, so nothing of *prev* is reusable).
        """
        if touched.full:
            return cls.capture(version, graph, structure)
        frozen_graph = FrozenGraph.evolve(prev.graph, graph, touched.dnodes)
        live = structure.leaf()
        # the journal named every entry whose members or *stored* iedges a
        # record changed; iedges a read surface derives from adjacency (a
        # leaf class's) change with no record, and only the post-batch
        # partition can name them.  Added once per commit, here: the
        # adaptive plane invalidates its cache through the same superset
        touched.inodes.update(live.derived_entries(touched.dnodes))
        return cls(
            version,
            prev.kind,
            prev.k,
            frozen_graph,
            FrozenIndex.evolve(prev.index, live, frozen_graph, touched.inodes),
        )

    def evaluate(self, query: "str | PathExpression | PathNfa") -> EvaluationReport:
        """Answer a path expression from this version, exactly."""
        return EVALUATORS[self.kind](self.index, self.k, query)

    @property
    def num_inodes(self) -> int:
        """Index size of this version."""
        return self.index.num_inodes

    def fingerprint(self) -> bytes:
        """Canonical byte serialization of the snapshot's *contents*.

        Key/value-identical snapshots produce identical bytes regardless
        of dict insertion order or set iteration order (all collections
        are sorted), so an evolve-published version can be byte-compared
        against a fresh :meth:`capture` of the same state — the check the
        differential tests and the perf-smoke gate run.  The version
        number is metadata, not content, and is excluded.
        """
        graph = self.graph
        index = self.index
        payload = {
            "kind": self.kind,
            "k": self.k,
            "root": graph._root,
            "succ": {str(w): sorted(t) for w, t in graph._succ.items()},
            "pred": {str(w): sorted(t) for w, t in graph._pred.items()},
            "label": {str(w): lab for w, lab in graph._label.items()},
            "extent": {str(i): sorted(e) for i, e in index._extent.items()},
            "ilabel": {str(i): lab for lab, ids in index._labelled.items() for i in ids},
            "isucc": {str(i): sorted(s) for i, s in index._isucc.items()},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IndexSnapshot v{self.version} kind={self.kind!r} "
            f"inodes={self.num_inodes} nodes={self.graph.num_nodes}>"
        )
