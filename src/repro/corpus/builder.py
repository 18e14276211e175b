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

Cross-document references live in one ledger, indexed from both ends:
``outbound[src_doc]`` maps every cross ref a document declares to one
flag (linked: its IDREF edge exists; unlinked: the target document or
target id is absent), and ``inbound[tgt_doc]`` names every ref to a
document, linked or not.  Three steps change it — a ref is *declared*
(linked if it can be) or *retracted*, and the refs naming a document
*flip* when the document arrives, leaves or is replaced — so a
document's removal leaves its inbound refs dangling and its re-arrival
re-links them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Collection
from dataclasses import dataclass
from typing import Iterable

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
#: a graph edge: (source_oid, target_oid, kind)
Edge = tuple[int, int, EdgeKind]


@dataclass
class DocumentManifest:
    """Where one document's nodes live in the shared graph."""

    doc_id: str
    oid_of: dict[str, int]
    document: ParsedDocument

    @property
    def root_oid(self) -> int:
        """The oid of the document element."""
        return self.oid_of[self.document.root_local]

    @property
    def local_of(self) -> dict[int, str]:
        """oid -> local id (the inverse of ``oid_of``)."""
        return {oid: local for local, oid in self.oid_of.items()}

    @property
    def oids(self) -> set[int]:
        """Every graph oid belonging to this document."""
        return set(self.oid_of.values())


def _refs(document: ParsedDocument) -> tuple[list[tuple[str, str]], list[CrossKey]]:
    """What *document*'s references book, in document order: the intra
    ``(source_local, target_local)`` pairs that carry an IDREF edge, and the
    cross keys.

    An intra reference whose pair already carries a TREE edge (an element
    referencing its own child) is *not* materialised — the data model has
    no parallel edges — and a diff must never delete an edge that was
    never added.  A repeated reference is booked once.
    """
    tree = set(document.tree_edges)
    intra = dict.fromkeys(
        (ref.source_local, ref.target_local) for ref in document.refs if ref.target_doc is None
    )
    cross = dict.fromkeys(
        (ref.source_local, ref.target_doc, ref.target_local)
        for ref in document.refs
        if ref.target_doc is not None
    )
    return [pair for pair in intra if pair not in tree], list(cross)


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
    cross_edges: list[Edge]


class CorpusCatalog:
    """Manifests + the cross-reference ledger + the op compiler."""

    def __init__(self, next_oid: int = 0):
        self.manifests: dict[str, DocumentManifest] = {}
        self._next_oid = next_oid
        #: src_doc -> {(src_local, tgt_doc, tgt_local): linked}
        self.outbound: dict[str, dict[CrossKey, bool]] = {}
        #: tgt_doc -> {(src_doc, src_local, tgt_local)}, linked or not
        self.inbound: dict[str, set[InboundEntry]] = {}

    # -- bookkeeping ---------------------------------------------------

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
        return sorted(
            (src_doc, src_local, tgt_doc, tgt_local)
            for src_doc, flags in self.outbound.items()
            for (src_local, tgt_doc, tgt_local), linked in flags.items()
            if not linked
        )

    # -- the reference ledger ------------------------------------------

    def _declare(self, doc_id: str, key: CrossKey, source_oid: int) -> list[Edge]:
        """Book a cross ref *doc_id* declares, linked if its target is present;
        the IDREF edge to add, if linked."""
        src_local, tgt_doc, tgt_local = key
        target = self.manifests.get(tgt_doc)
        linked = target is not None and tgt_local in target.document.explicit_ids
        self.outbound.setdefault(doc_id, {})[key] = linked
        self.inbound.setdefault(tgt_doc, set()).add((doc_id, src_local, tgt_local))
        return [(source_oid, target.oid_of[tgt_local], EdgeKind.IDREF)] if linked else []

    def _retract(self, doc_id: str, key: CrossKey, source_oid: int) -> list[Edge]:
        """Forget a cross ref *doc_id* declared; the IDREF edge to delete, if linked."""
        src_local, tgt_doc, tgt_local = key
        entries = self.inbound[tgt_doc]
        entries.discard((doc_id, src_local, tgt_local))
        if not entries:
            del self.inbound[tgt_doc]
        flags = self.outbound[doc_id]
        linked = flags.pop(key)
        if not flags:
            del self.outbound[doc_id]
        if linked:
            return [(source_oid, self.manifests[tgt_doc].oid_of[tgt_local], EdgeKind.IDREF)]
        return []

    def _flip(
        self, doc_id: str, link: bool, targets: Collection[str], oid_of: dict[str, int]
    ) -> list[Edge]:
        """Link (or unlink) the refs naming *doc_id* whose target local is in
        *targets*; the IDREF edges to add (or delete), ordered by ref, with
        the target's oid from *oid_of*."""
        edges = []
        for src_doc, src_local, tgt_local in sorted(self.inbound.get(doc_id, ())):
            flags = self.outbound[src_doc]
            key = (src_local, doc_id, tgt_local)
            if flags[key] != link and tgt_local in targets:
                flags[key] = link
                source_oid = self.manifests[src_doc].oid_of[src_local]
                edges.append((source_oid, oid_of[tgt_local], EdgeKind.IDREF))
        return edges

    # -- compile: add --------------------------------------------------

    def _admit(self, document: ParsedDocument, host_root_oid: int) -> _Admission:
        """Book a document arrival in the catalog and return what it adds.

        The catalog bookkeeping both add paths share: oids are allocated in
        document order, intra-document IDREFs are materialised, outbound
        cross refs are declared, and inbound refs other documents left
        dangling for this one are linked.  The cross-edge list leads with
        the ROOT splice (so the maintainer's batched root-merge
        optimisation fires).
        """
        doc_id = document.doc_id
        if doc_id in self.manifests:
            raise DuplicateDocumentError(doc_id)
        order = document.order
        first = self._next_oid
        self._next_oid += len(order)
        oids = range(first, self._next_oid)
        oid_of = dict(zip(order, oids))

        intra, cross = _refs(document)
        edges = document.tree_edges + intra
        sources = [oid_of[source] for source, _ in edges]
        targets = [oid_of[target] for _, target in edges]
        kinds = [EdgeKind.TREE] * len(document.tree_edges) + [EdgeKind.IDREF] * len(intra)
        cross_edges: list[Edge] = [(host_root_oid, oid_of[document.root_local], EdgeKind.TREE)]
        for key in cross:
            cross_edges += self._declare(doc_id, key, oid_of[key[0]])
        cross_edges += self._flip(doc_id, True, document.explicit_ids, oid_of)

        self.manifests[doc_id] = DocumentManifest(doc_id, oid_of, document)
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
        materialised intra-document IDREF edges; the cross edges are the
        ones :meth:`_admit` books, which :meth:`CorpusBuilder.build`
        shares.  The graph surgery is the maintainer's, at apply time.
        """
        admission = self._admit(document, host_root_oid)
        subgraph = DataGraph.from_columns(
            admission.oids, admission.labels, admission.values,
            admission.sources, admission.targets, admission.kinds,
        )
        cross_edges = admission.cross_edges
        return [Update.add_subgraph(subgraph, admission.root_oid, cross_edges, preserve_oids=True)]

    # -- compile: remove -----------------------------------------------

    def compile_remove(self, doc_id: str) -> list[Update]:
        """Compile a document departure into an ordered deletion sequence.

        Cross-document edges are deleted first — explicitly, from the
        ledger, in both directions — then one ``delete_subgraph`` drops
        the document tree (whose TREE-reachable set is exactly the
        manifest's oid set).  Inbound refs from the surviving documents
        are unlinked, so the document's re-arrival re-links them.
        """
        manifest = self.manifest(doc_id)
        oid_of = manifest.oid_of
        edges: list[Edge] = []
        for key in sorted(self.outbound.get(doc_id, ())):
            edges += self._retract(doc_id, key, oid_of[key[0]])
        edges += self._flip(doc_id, False, manifest.document.explicit_ids, oid_of)
        updates = [Update.delete_edge(source, target) for source, target, _ in edges]
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
        old_intra = set(_refs(old)[0])
        new_intra, new_cross_keys = map(set, _refs(document))

        oid_of = dict(manifest.oid_of)  # grows with added, shrinks at the end
        updates: list[Update] = []

        # --- phase a: edge deletions -----------------------------------
        for parent, child in sorted(old_tree - new_tree):
            if child in survivors:
                updates.append(Update.delete_edge(oid_of[parent], oid_of[child]))
        for source, target in sorted(old_intra - new_intra):
            if source in survivors and target in survivors:
                updates.append(Update.delete_edge(oid_of[source], oid_of[target]))
        outbound = self.outbound.get(doc_id, {})
        stale: list[Edge] = []
        for key in sorted(outbound):
            if key not in new_cross_keys or key[0] not in survivors:  # else it survives
                stale += self._retract(doc_id, key, oid_of[key[0]])
        stale += self._flip(doc_id, False, removed, oid_of)
        updates += [Update.delete_edge(source, target) for source, target, _ in stale]

        # --- phase b: removals -----------------------------------------
        old_parent = old.parent_of()
        for local in sorted(removed):
            if local == old.root_local or old_parent[local] in survivors:
                updates.append(Update.delete_subgraph(oid_of[local]))

        # --- phase c: added components ---------------------------------
        for local in document.order:
            if local in added:
                oid_of[local] = self._next_oid
                self._next_oid += 1
        new_parent = document.parent_of()
        comp_index: dict[str, int] = {}
        comp_nodes: list[list[str]] = []
        #: per component: the splice edge from its surviving parent first
        comp_cross: list[list[Edge]] = []
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
                comp_cross.append([(parent_oid, oid_of[local], EdgeKind.TREE)])
            comp_index[local] = index
        interior: list[list[Edge]] = [[] for _ in comp_nodes]
        survivor_edges: list[Edge] = []

        def place(source: str, target: str, kind: EdgeKind) -> None:
            """File an intra-document edge outside every component's interior:
            with the latest component it touches, or in the survivor phase."""
            ci, cj = comp_index.get(source), comp_index.get(target)
            edge = (oid_of[source], oid_of[target], kind)
            if ci is None and cj is None:
                survivor_edges.append(edge)
            else:
                comp_cross[max(i for i in (ci, cj) if i is not None)].append(edge)

        for parent, child in sorted(new_tree):
            if child in added:
                if parent in added:  # else the splice edge, first in comp_cross
                    interior[comp_index[child]].append(
                        (oid_of[parent], oid_of[child], EdgeKind.TREE)
                    )
            elif (parent, child) not in old_tree:
                place(parent, child, EdgeKind.TREE)
        for source, target in sorted(new_intra):
            ci, cj = comp_index.get(source), comp_index.get(target)
            if ci is not None and ci == cj:
                interior[ci].append((oid_of[source], oid_of[target], EdgeKind.IDREF))
            elif ci is not None or cj is not None or (source, target) not in old_intra:
                place(source, target, EdgeKind.IDREF)

        for index, locals_ in enumerate(comp_nodes):
            sub = DataGraph()
            for local in locals_:
                sub.add_node(document.labels[local], document.values[local], oid=oid_of[local])
            for edge in interior[index]:
                sub.add_edge(*edge)
            updates.append(Update.add_subgraph(
                sub, oid_of[locals_[0]], comp_cross[index], preserve_oids=True
            ))

        # --- phase d: survivor edges + cross-document resolution -------
        for source_oid, target_oid, kind in survivor_edges:
            updates.append(Update.insert_edge(source_oid, target_oid, kind))
        resolved: list[Edge] = []
        for key in sorted(new_cross_keys - outbound.keys()):  # the rest survived (a)
            resolved += self._declare(doc_id, key, oid_of[key[0]])
        resolved += self._flip(doc_id, True, document.explicit_ids, oid_of)
        updates += [Update.insert_edge(*edge) for edge in resolved]

        # --- phase e: value changes ------------------------------------
        for local in sorted(survivors):
            if old.values[local] != document.values[local]:
                updates.append(Update.set_value(oid_of[local], document.values[local]))

        for local in removed:
            del oid_of[local]
        manifest.oid_of = oid_of
        manifest.document = document
        return updates

    # -- invariants ----------------------------------------------------

    def check(self, graph: DataGraph) -> None:
        """Verify the catalog against the graph (test/debug oracle).

        Every manifest oid is a node with its document's label and every
        other node is ROOT; the ledger's two directions name one set of
        references, a linked one's IDREF edge is in the graph, and an
        unlinked one's target document is absent or lacks the target id.
        """
        claimed: dict[int, str] = {}
        for doc_id, manifest in self.manifests.items():
            for local, oid in manifest.oid_of.items():
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

        flags = {
            (src_doc, *key): linked
            for src_doc, outbound in self.outbound.items()
            for key, linked in outbound.items()
        }
        named = {
            (src_doc, src_local, tgt_doc, tgt_local)
            for tgt_doc, entries in self.inbound.items()
            for src_doc, src_local, tgt_local in entries
        }
        if not self.outbound.keys() <= self.manifests.keys():
            raise CorpusError("the ledger names a source document that is not resident")
        if flags.keys() != named:
            raise CorpusError(
                f"the ledger's two directions disagree on {sorted(flags.keys() ^ named)[:1]}"
            )
        for ref, linked in flags.items():
            src_doc, src_local, tgt_doc, tgt_local = ref
            target = self.manifests.get(tgt_doc)
            if linked != (target is not None and tgt_local in target.document.explicit_ids):
                state = ("linked", "absent") if linked else ("unlinked", "present")
                raise CorpusError("cross ref %s is %s but its target is %s" % (ref, *state))
            if linked:
                edge = (self.manifests[src_doc].oid_of[src_local], target.oid_of[tgt_local])
                if not (graph.has_edge(*edge) and graph.edge_kind(*edge) is EdgeKind.IDREF):
                    raise CorpusError(f"cross ref {ref} is linked but has no IDREF edge")


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
        for local, oid in manifest.oid_of.items():
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
