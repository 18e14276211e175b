"""Corpus catalog: per-document manifests, oid allocation, op compilation.

The catalog is the bridge between the document world (local ids, see
:mod:`repro.corpus.documents`) and the graph world (integer oids).  It
owns an oid allocator seeded *above* the host graph's counter, so every
node location is known **at compile time** — document operations are
compiled into the existing :class:`~repro.service.queue.Update` stream
(``add_subgraph`` with ``preserve_oids=True``, ``delete_edge`` /
``delete_subgraph`` sequences, ``insert_edge``, ``set_value``) and the
serving, guard, WAL, delta-publication, and replication layers apply
them unchanged.

Compilation is **eager**: the catalog reflects an operation the moment
it is compiled, before the update stream applies it.  That matches the
service's durability contract — if a batch terminally fails, the
service instance (and with it this catalog) must be treated as lost —
and it is what lets a later compile in the same batch window reference
oids the stream has not materialised yet.

Cross-document references are tracked in three structures: per-source
``outbound_state`` (every cross ref the document declares, resolved or
not), per-target ``inbound_resolved`` (edges that exist) and
``dangling`` (refs whose target document or target id is absent).  A
document's arrival resolves its dangling inbound refs; its removal
demotes inbound edges back to dangling, so a re-arrival re-links them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.corpus.documents import ParsedDocument
from repro.exceptions import (
    CorpusError,
    DocumentNotFoundError,
    DuplicateDocumentError,
    XmlFormatError,
)
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind
from repro.service.queue import Update

#: cross-reference key: (source_local, target_doc, target_local)
CrossKey = tuple[str, str, str]
#: cross-reference entry under a target document: (source_doc, source_local, target_local)
InboundEntry = tuple[str, str, str]


@dataclass
class DocumentManifest:
    """Where one document's nodes live in the shared graph."""

    doc_id: str
    root_oid: int
    oid_of: dict[str, int]
    local_of: dict[int, str]
    document: ParsedDocument
    #: intra-document ``(source_local, target_local)`` pairs that carry
    #: an actual IDREF edge.  A reference whose pair already carries a
    #: TREE edge (an element referencing its own child) or repeats an
    #: earlier reference is *not* materialised — the data model has no
    #: parallel edges — and a diff must never delete an edge that was
    #: never added.
    materialized_intra: set[tuple[str, str]] = field(default_factory=set)

    @property
    def oids(self) -> set[int]:
        """Every graph oid belonging to this document."""
        return set(self.local_of)


@dataclass
class _Admission:
    """What one document arrival adds, as the catalog booked it.

    The document's nodes as columns in document order (its oids are
    consecutive), its intra-document edges in the order its subgraph adds
    them (tree edges, then materialised IDREFs), and the cross edges —
    the ROOT splice first — that join it to the host graph.
    """

    root_oid: int
    oids: range
    labels: list[str]
    values: list[object]
    sources: list[int]
    targets: list[int]
    kinds: list[EdgeKind]
    cross_edges: list[tuple[int, int, EdgeKind]]


class CorpusCatalog:
    """Manifests + cross-reference state + the op compiler."""

    def __init__(self, next_oid: int = 0):
        self.manifests: dict[str, DocumentManifest] = {}
        self._next_oid = next_oid
        self.outbound_state: dict[str, dict[CrossKey, bool]] = {}
        self.inbound_resolved: dict[str, set[InboundEntry]] = {}
        self.dangling: dict[str, set[InboundEntry]] = {}

    # -- bookkeeping ---------------------------------------------------

    def _alloc(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def document_ids(self) -> list[str]:
        """The ids of all present documents, sorted."""
        return sorted(self.manifests)

    def manifest(self, doc_id: str) -> DocumentManifest:
        """The manifest of *doc_id*; raises :class:`DocumentNotFoundError`."""
        try:
            return self.manifests[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def dangling_refs(self) -> list[tuple[str, str, str, str]]:
        """Unresolved cross refs as ``(src_doc, src_local, tgt_doc, tgt_local)``."""
        out = []
        for tgt_doc, entries in self.dangling.items():
            for src_doc, src_local, tgt_local in entries:
                out.append((src_doc, src_local, tgt_doc, tgt_local))
        return sorted(out)

    # -- compile: add --------------------------------------------------

    def _admit(self, document: ParsedDocument, host_root_oid: int) -> _Admission:
        """Book a document arrival in the catalog and return what it adds.

        The catalog bookkeeping both add paths share: oids are allocated in
        document order, intra-document IDREFs are materialised (not over a
        tree edge, not twice), outbound cross refs are resolved or left
        dangling, and inbound refs other documents left dangling for this
        one are resolved.  The cross-edge list leads with the ROOT splice
        (so the maintainer's batched root-merge optimisation fires).
        """
        doc_id = document.doc_id
        if doc_id in self.manifests:
            raise DuplicateDocumentError(doc_id)
        order = document.order
        first = self._next_oid
        self._next_oid += len(order)
        oids = range(first, self._next_oid)
        oid_of = dict(zip(order, oids))

        sources = [oid_of[parent] for parent, _ in document.tree_edges]
        targets = [oid_of[child] for _, child in document.tree_edges]
        kinds = [EdgeKind.TREE] * len(sources)
        materialized_intra: set[tuple[str, str]] = set()
        tree_pairs = set(document.tree_edges)
        outbound: dict[CrossKey, bool] = {}
        cross_edges: list[tuple[int, int, EdgeKind]] = [
            (host_root_oid, oid_of[document.root_local], EdgeKind.TREE)
        ]
        for ref in document.refs:
            if ref.target_doc is None:
                pair = (ref.source_local, ref.target_local)
                if pair in tree_pairs or pair in materialized_intra:
                    continue
                materialized_intra.add(pair)
                sources.append(oid_of[ref.source_local])
                targets.append(oid_of[ref.target_local])
                kinds.append(EdgeKind.IDREF)
            else:
                key = (ref.source_local, ref.target_doc, ref.target_local)
                if key in outbound:
                    continue
                target = self.manifests.get(ref.target_doc)
                if (
                    target is not None
                    and ref.target_local in target.document.explicit_ids
                ):
                    outbound[key] = True
                    cross_edges.append((
                        oid_of[ref.source_local],
                        target.oid_of[ref.target_local],
                        EdgeKind.IDREF,
                    ))
                    self.inbound_resolved.setdefault(ref.target_doc, set()).add(
                        (doc_id, ref.source_local, ref.target_local)
                    )
                else:
                    outbound[key] = False
                    self.dangling.setdefault(ref.target_doc, set()).add(
                        (doc_id, ref.source_local, ref.target_local)
                    )

        # inbound refs other documents left dangling for this one
        for entry in sorted(self.dangling.get(doc_id, set())):
            src_doc, src_local, tgt_local = entry
            if tgt_local not in document.explicit_ids:
                continue
            source = self.manifests[src_doc]
            cross_edges.append((
                source.oid_of[src_local], oid_of[tgt_local], EdgeKind.IDREF
            ))
            self.dangling[doc_id].discard(entry)
            self.inbound_resolved.setdefault(doc_id, set()).add(entry)
            self.outbound_state[src_doc][(src_local, doc_id, tgt_local)] = True

        self.outbound_state[doc_id] = outbound
        self.manifests[doc_id] = DocumentManifest(
            doc_id=doc_id,
            root_oid=oid_of[document.root_local],
            oid_of=oid_of,
            local_of=dict(zip(oids, order)),
            document=document,
            materialized_intra=materialized_intra,
        )
        return _Admission(
            root_oid=oid_of[document.root_local],
            oids=oids,
            labels=list(map(document.labels.__getitem__, order)),
            values=list(map(document.values.__getitem__, order)),
            sources=sources,
            targets=targets,
            kinds=kinds,
            cross_edges=cross_edges,
        )

    def compile_add(
        self, document: ParsedDocument, host_root_oid: int
    ) -> list[Update]:
        """Compile a document arrival into one oid-preserving ``add_subgraph``.

        The op's subgraph holds the whole document tree plus its
        materialised intra-document IDREF edges; the cross-edge list
        holds the ROOT splice (first, so the maintainer's batched
        root-merge optimisation fires) plus every cross-document edge
        that is resolvable right now — outbound refs whose target is
        present, and inbound refs other documents left dangling for us.
        The catalog bookkeeping is the one :meth:`CorpusBuilder.build`
        shares; the graph surgery is the maintainer's, at apply time.
        """
        admission = self._admit(document, host_root_oid)
        subgraph = DataGraph.from_columns(
            admission.oids,
            admission.labels,
            admission.values,
            admission.sources,
            admission.targets,
            admission.kinds,
        )
        return [
            Update.add_subgraph(
                subgraph, admission.root_oid, admission.cross_edges, preserve_oids=True
            )
        ]

    # -- compile: remove -----------------------------------------------

    def compile_remove(self, doc_id: str) -> list[Update]:
        """Compile a document departure into an ordered deletion sequence.

        Cross-document edges are deleted first — explicitly, from the
        manifest-derived catalog state, in both directions — then one
        ``delete_subgraph`` drops the document tree (whose TREE-reachable
        set is exactly the manifest's oid set).  Inbound refs from the
        surviving documents are demoted to dangling so the document's
        re-arrival re-links them.
        """
        manifest = self.manifest(doc_id)
        updates: list[Update] = []

        for key in sorted(self.outbound_state[doc_id]):
            src_local, tgt_doc, tgt_local = key
            if self.outbound_state[doc_id][key]:
                target = self.manifests[tgt_doc]
                updates.append(Update.delete_edge(
                    manifest.oid_of[src_local], target.oid_of[tgt_local]
                ))
                self.inbound_resolved[tgt_doc].discard((doc_id, src_local, tgt_local))
            else:
                self.dangling[tgt_doc].discard((doc_id, src_local, tgt_local))
                if not self.dangling[tgt_doc]:
                    del self.dangling[tgt_doc]

        for entry in sorted(self.inbound_resolved.get(doc_id, set())):
            src_doc, src_local, tgt_local = entry
            source = self.manifests[src_doc]
            updates.append(Update.delete_edge(
                source.oid_of[src_local], manifest.oid_of[tgt_local]
            ))
            self.outbound_state[src_doc][(src_local, doc_id, tgt_local)] = False
            self.dangling.setdefault(doc_id, set()).add(entry)

        self.inbound_resolved.pop(doc_id, None)
        del self.outbound_state[doc_id]
        del self.manifests[doc_id]
        updates.append(Update.delete_subgraph(manifest.root_oid))
        return updates

    # -- compile: replace (the structural diff) ------------------------

    def compile_replace(
        self, document: ParsedDocument, host_root_oid: int
    ) -> list[Update]:
        """Tree-diff the old and new parse; emit only touched nodes/edges.

        Five phases, in op order:

        a. ``delete_edge`` for edges whose endpoints both survive the
           batch in the graph — moved/retired tree edges to surviving
           children, retired intra refs, and every stale cross-document
           edge (explicit, so removal never depends on boundary
           discovery inside the maintainer).
        b. ``delete_subgraph`` per *removal root* (a removed node whose
           old parent survives, or the old document root).  Phase (a)
           detached every surviving child of a removed parent — an edge
           to a surviving child cannot be in the new tree if its parent
           is gone — so each removal root's live TREE-reachable set is
           exactly its removed descendants.
        c. ``add_subgraph`` (oid-preserving) per added *component* — a
           maximal set of added nodes connected by new tree edges.  The
           splice edge from the surviving parent (or host ROOT) leads
           the cross-edge list; edges to survivors and to earlier
           components ride along as further cross edges.
        d. ``insert_edge`` for survivor↔survivor new edges and for every
           cross-document edge that became resolvable (new outbound refs
           with a present target, inbound dangling refs the new version
           satisfies).
        e. ``set_value`` for survivors whose text changed (values are
           index-neutral but must reach the WAL and the replicas).

        A content-identical replacement compiles to zero updates.
        """
        doc_id = document.doc_id
        manifest = self.manifest(doc_id)
        old = manifest.document
        if old.same_content(document):
            return []

        survivors = {
            local
            for local, label in old.labels.items()
            if document.labels.get(local) == label
        }
        removed = set(old.labels) - survivors
        added = set(document.labels) - survivors

        old_tree = set(old.tree_edges)
        new_tree = set(document.tree_edges)
        old_intra = manifest.materialized_intra
        new_intra: set[tuple[str, str]] = set()
        for ref in document.refs:
            if ref.target_doc is None:
                pair = (ref.source_local, ref.target_local)
                if pair not in new_tree and pair not in new_intra:
                    new_intra.add(pair)

        oid_of = dict(manifest.oid_of)  # grows with added, shrinks at the end
        updates: list[Update] = []

        # --- phase a: edge deletions -----------------------------------
        for parent, child in sorted(old_tree):
            if child in survivors and (parent, child) not in new_tree:
                updates.append(
                    Update.delete_edge(oid_of[parent], oid_of[child])
                )
        for source, target in sorted(old_intra):
            if (
                source in survivors
                and target in survivors
                and (source, target) not in new_intra
            ):
                updates.append(
                    Update.delete_edge(oid_of[source], oid_of[target])
                )
        new_cross_keys: set[CrossKey] = {
            (ref.source_local, ref.target_doc, ref.target_local)
            for ref in document.refs
            if ref.target_doc is not None
        }
        outbound = self.outbound_state[doc_id]
        for key in sorted(outbound):
            src_local, tgt_doc, tgt_local = key
            if key in new_cross_keys and src_local in survivors:
                continue  # the ref survives; its state is unchanged
            if outbound.pop(key):
                target = self.manifests[tgt_doc]
                updates.append(Update.delete_edge(
                    oid_of[src_local], target.oid_of[tgt_local]
                ))
                self.inbound_resolved[tgt_doc].discard((doc_id, src_local, tgt_local))
            else:
                self.dangling[tgt_doc].discard((doc_id, src_local, tgt_local))
                if not self.dangling[tgt_doc]:
                    del self.dangling[tgt_doc]
        for entry in sorted(self.inbound_resolved.get(doc_id, set())):
            src_doc, src_local, tgt_local = entry
            if tgt_local in survivors:
                continue
            source = self.manifests[src_doc]
            updates.append(Update.delete_edge(
                source.oid_of[src_local], oid_of[tgt_local]
            ))
            self.inbound_resolved[doc_id].discard(entry)
            self.outbound_state[src_doc][(src_local, doc_id, tgt_local)] = False
            self.dangling.setdefault(doc_id, set()).add(entry)

        # --- phase b: removals -----------------------------------------
        old_parent = old.parent_of()
        removal_roots = sorted(
            local
            for local in removed
            if local == old.root_local or old_parent[local] in survivors
        )
        for local in removal_roots:
            updates.append(Update.delete_subgraph(oid_of[local]))

        # --- phase c: added components ---------------------------------
        for local in document.order:
            if local in added:
                oid_of[local] = self._alloc()
        new_parent = document.parent_of()
        comp_index: dict[str, int] = {}
        comp_nodes: list[list[str]] = []
        comp_splice: list[tuple[int, int, EdgeKind]] = []
        for local in document.order:  # parents precede children
            if local not in added:
                continue
            parent = new_parent.get(local)
            if parent is not None and parent in added:
                index = comp_index[parent]
                comp_nodes[index].append(local)
            else:
                index = len(comp_nodes)
                comp_nodes.append([local])
                parent_oid = host_root_oid if parent is None else oid_of[parent]
                comp_splice.append((parent_oid, oid_of[local], EdgeKind.TREE))
            comp_index[local] = index

        comp_cross: list[list[tuple[int, int, EdgeKind]]] = [
            [splice] for splice in comp_splice
        ]
        survivor_edges: list[tuple[int, int, EdgeKind]] = []

        def place(source: str, target: str, kind: EdgeKind) -> Optional[int]:
            """Assign an intra-document edge: a component (by index) or
            the survivor phase (``None``); interior edges are handled by
            the caller."""
            ci = comp_index.get(source)
            cj = comp_index.get(target)
            if ci is None and cj is None:
                survivor_edges.append((oid_of[source], oid_of[target], kind))
                return None
            index = max(i for i in (ci, cj) if i is not None)
            comp_cross[index].append((oid_of[source], oid_of[target], kind))
            return index

        interior_tree: list[list[tuple[str, str]]] = [[] for _ in comp_nodes]
        for parent, child in sorted(new_tree):
            if child in added and comp_index.get(parent) == comp_index[child]:
                interior_tree[comp_index[child]].append((parent, child))
            elif child in added and parent not in added:
                pass  # the splice edge, already first in comp_cross
            elif (parent, child) not in old_tree:
                place(parent, child, EdgeKind.TREE)
        interior_ref: list[list[tuple[str, str]]] = [[] for _ in comp_nodes]
        for source, target in sorted(new_intra):
            ci, cj = comp_index.get(source), comp_index.get(target)
            if ci is not None and ci == cj:
                interior_ref[ci].append((source, target))
            elif ci is None and cj is None:
                if (source, target) not in old_intra:
                    survivor_edges.append(
                        (oid_of[source], oid_of[target], EdgeKind.IDREF)
                    )
            else:
                place(source, target, EdgeKind.IDREF)

        for index, locals_ in enumerate(comp_nodes):
            sub = DataGraph()
            for local in locals_:
                sub.add_node(
                    document.labels[local], document.values[local], oid=oid_of[local]
                )
            for parent, child in interior_tree[index]:
                sub.add_edge(oid_of[parent], oid_of[child], EdgeKind.TREE)
            for source, target in interior_ref[index]:
                sub.add_edge(oid_of[source], oid_of[target], EdgeKind.IDREF)
            updates.append(Update.add_subgraph(
                sub, oid_of[locals_[0]], comp_cross[index], preserve_oids=True
            ))

        # --- phase d: survivor edges + cross-document resolution -------
        for source_oid, target_oid, kind in survivor_edges:
            updates.append(Update.insert_edge(source_oid, target_oid, kind))
        for key in sorted(new_cross_keys):
            src_local, tgt_doc, tgt_local = key
            if key in outbound:
                continue  # survived phase (a) untouched
            target = self.manifests.get(tgt_doc)
            if target is not None and tgt_local in target.document.explicit_ids:
                outbound[key] = True
                updates.append(Update.insert_edge(
                    oid_of[src_local], target.oid_of[tgt_local], EdgeKind.IDREF
                ))
                self.inbound_resolved.setdefault(tgt_doc, set()).add(
                    (doc_id, src_local, tgt_local)
                )
            else:
                outbound[key] = False
                self.dangling.setdefault(tgt_doc, set()).add(
                    (doc_id, src_local, tgt_local)
                )
        for entry in sorted(self.dangling.get(doc_id, set())):
            src_doc, src_local, tgt_local = entry
            if tgt_local not in document.explicit_ids:
                continue
            source = self.manifests[src_doc]
            updates.append(Update.insert_edge(
                source.oid_of[src_local], oid_of[tgt_local], EdgeKind.IDREF
            ))
            self.dangling[doc_id].discard(entry)
            self.inbound_resolved.setdefault(doc_id, set()).add(entry)
            self.outbound_state[src_doc][(src_local, doc_id, tgt_local)] = True

        # --- phase e: value changes ------------------------------------
        for local in sorted(survivors):
            if old.values[local] != document.values[local]:
                updates.append(Update.set_value(
                    oid_of[local], document.values[local]
                ))

        for local in removed:
            del oid_of[local]
        manifest.oid_of = oid_of
        manifest.local_of = {oid: local for local, oid in oid_of.items()}
        manifest.root_oid = oid_of[document.root_local]
        manifest.document = document
        manifest.materialized_intra = new_intra
        return updates

    # -- invariants ----------------------------------------------------

    def check(self, graph: DataGraph) -> None:
        """Verify the catalog against the graph (test/debug oracle)."""
        claimed: dict[int, str] = {}
        for doc_id, manifest in self.manifests.items():
            for oid, local in manifest.local_of.items():
                if oid in claimed:
                    raise CorpusError(
                        f"oid {oid} claimed by both {claimed[oid]!r} and {doc_id!r}"
                    )
                claimed[oid] = doc_id
                if not graph.has_node(oid):
                    raise CorpusError(
                        f"manifest of {doc_id!r} names missing oid {oid} ({local!r})"
                    )
                if graph.label(oid) != manifest.document.labels[local]:
                    raise CorpusError(
                        f"label drift at {doc_id}/{local}: graph says "
                        f"{graph.label(oid)!r}"
                    )
        root = graph.root
        for oid in graph.nodes():
            if oid != root and oid not in claimed:
                raise CorpusError(f"graph oid {oid} belongs to no document")


# ----------------------------------------------------------------------
# Bulk ingest
# ----------------------------------------------------------------------


class CorpusBuilder:
    """Collect parsed documents, then build one graph + catalog in bulk.

    The bulk path is the fast path.  It shares the catalog bookkeeping
    with incremental ingest — every document is booked exactly as
    :meth:`CorpusCatalog.compile_add` books it — but not the graph
    surgery: instead of splicing each document's subgraph in node by node
    and edge by edge, it gathers every document's nodes and edges into
    columns and lays the whole graph out once
    (:meth:`~repro.graph.datagraph.DataGraph.from_columns`), slot for
    slot the graph the per-document splice would give.  The *one*
    refinement pass happens afterwards, when an index is built over the
    finished graph — no per-edge maintenance.
    """

    def __init__(self, attribute_nodes: bool = True):
        self.attribute_nodes = attribute_nodes
        self._documents: list[ParsedDocument] = []
        self._ids: set[str] = set()

    def add(self, doc_id: str, text: str) -> ParsedDocument:
        """Parse and stage one document; raises on duplicate ids."""
        from repro.corpus.documents import parse_document

        if doc_id in self._ids:
            raise DuplicateDocumentError(doc_id)
        document = parse_document(doc_id, text, self.attribute_nodes)
        self._ids.add(doc_id)
        self._documents.append(document)
        return document

    def add_all(self, documents: Iterable[tuple[str, str]]) -> None:
        """Stage ``(doc_id, text)`` pairs."""
        for doc_id, text in documents:
            self.add(doc_id, text)

    def build(self) -> tuple[DataGraph, CorpusCatalog]:
        """Splice every staged document into a fresh graph under ROOT."""
        root = 0
        catalog = CorpusCatalog(next_oid=root + 1)
        oids, labels, values = [root], [ROOT_LABEL], [None]
        sources: list[int] = []
        targets: list[int] = []
        kinds: list[EdgeKind] = []
        for document in self._documents:
            admission = catalog._admit(document, root)
            oids.extend(admission.oids)
            labels.extend(admission.labels)
            values.extend(admission.values)
            # the order a subgraph's edges are spliced in: source by source
            # (the subgraph's slot order), each source's edges in turn
            by_source = sorted(
                range(len(admission.sources)), key=admission.sources.__getitem__
            )
            for column, own in (
                (sources, admission.sources),
                (targets, admission.targets),
                (kinds, admission.kinds),
            ):
                column.extend(map(own.__getitem__, by_source))
            for source, target, kind in admission.cross_edges:
                sources.append(source)
                targets.append(target)
                kinds.append(kind)
        graph = DataGraph.from_columns(oids, labels, values, sources, targets, kinds, root)
        return graph, catalog


def parse_xml(text: str, attribute_nodes: bool = True) -> DataGraph:
    """Parse one XML document into a :class:`DataGraph` (Section 3, Figure 1).

    A one-document corpus build: the document element hangs under the
    artificial ROOT, ``id`` / ``idref`` / ``idrefs`` make the IDREF edges
    and any other attribute a child dnode (when *attribute_nodes*).  A
    reference the one document leaves dangling — a scoped token names no
    other document here — raises :class:`XmlFormatError`.
    """
    builder = CorpusBuilder(attribute_nodes)
    builder.add("xml", text)
    graph, catalog = builder.build()
    dangling = catalog.dangling_refs()
    if dangling:
        _, source, target_doc, target = dangling[0]
        raise XmlFormatError(
            f"unresolvable reference {target_doc}/{target} from {source}", source="xml"
        )
    return graph


# ----------------------------------------------------------------------
# Oid-independent fingerprints
# ----------------------------------------------------------------------


def _scoped_names(graph: DataGraph, catalog: CorpusCatalog) -> dict[int, str]:
    names = {graph.root: "ROOT"}
    for doc_id, manifest in catalog.manifests.items():
        for oid, local in manifest.local_of.items():
            names[oid] = f"{doc_id}/{local}"
    return names


def corpus_graph_fingerprint(graph: DataGraph, catalog: CorpusCatalog) -> str:
    """A canonical oid-independent digest of the corpus graph.

    Nodes are relabeled to their scoped names, so two corpora holding
    the same documents fingerprint identically regardless of arrival
    order or oid history — the yardstick for every differential check.
    A graph node outside every manifest fails loudly (``KeyError``).
    """
    names = _scoped_names(graph, catalog)
    nodes = sorted(
        (names[oid], graph.label(oid), _value_str(graph.value(oid)))
        for oid in graph.nodes()
    )
    edges = sorted(
        (names[source], names[target], graph.edge_kind(source, target).value)
        for source, target in graph.edges()
    )
    payload = json.dumps({"nodes": nodes, "edges": edges}, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def corpus_fingerprint(
    graph: DataGraph,
    catalog: CorpusCatalog,
    extents: Iterable[Iterable[int]],
) -> str:
    """Graph fingerprint + the index partition, both in scoped names."""
    names = _scoped_names(graph, catalog)
    blocks = sorted(sorted(names[oid] for oid in extent) for extent in extents)
    payload = json.dumps(
        {"graph": corpus_graph_fingerprint(graph, catalog), "blocks": blocks},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _value_str(value: object) -> str:
    return "" if value is None else str(value)
