"""Immutable published index versions (the read side of the service).

The serving discipline of :class:`~repro.service.service.IndexService`
is single-writer / multi-reader: queries never touch the live graph or
the live index the writer is mutating.  Instead, after every committed
batch the writer *publishes* an :class:`IndexSnapshot` — a
:class:`~repro.index.frozen.FrozenIndex` of the index graph (extents,
labels, iedges) over a :class:`~repro.graph.frozen.FrozenGraph` of the
data graph — and swaps it in atomically (one reference assignment).
Readers grab the current snapshot reference once per query and evaluate
entirely against it, so a query sees one consistent version end to end
no matter how many batches commit underneath it.

Publishing is **incremental**: when a previous version exists, the
writer calls :meth:`IndexSnapshot.evolve` with the batch's touched set
(accumulated by :class:`repro.resilience.TouchedSet` from the mutation
journal) — the next version's tables start as copies of the previous
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

Both frozen halves duck-type exactly the surface the evaluators in
:mod:`repro.query` consume, so ``evaluate_on_graph(snapshot.graph, q)``
and ``snapshot.evaluate(q)`` run unchanged — the differential serving
tests lean on that to byte-compare index-served answers against
from-scratch graph evaluation *of the same version*.  :data:`EVALUATORS`
says how a version of each structure kind answers.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.graph.datagraph import DataGraph
from repro.graph.frozen import FrozenGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.frozen import FrozenIndex
from repro.index.structure import Structure
from repro.query.automaton import PathNfa
from repro.query.evaluator import EvaluationReport
from repro.query.index_evaluator import evaluate_on_ak, evaluate_on_index
from repro.query.path_expression import PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.journal import TouchedSet


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
