"""Document-granular serving: :class:`CorpusService` over the index service.

The corpus facade owns a :class:`~repro.corpus.builder.CorpusCatalog`
and an :class:`~repro.service.service.IndexService` with whatever parts
it was asked for.  Document operations parse, compile against the catalog, and
submit the resulting updates to the service's queue — nothing below the
facade knows documents exist, so guarded maintenance, coalescing, the
WAL, delta publication and replication all apply unchanged.

Two ingest paths share the compiler:

* :meth:`CorpusService.bulk_load` applies the compiled ops with raw
  graph surgery and *then* builds the index — one refinement pass over
  the finished corpus (the benchmark's ``setup_s`` on the corpus
  workloads);
* :meth:`add_document` / :meth:`replace_document` /
  :meth:`remove_document` submit the same ops through the service, so
  the index is maintained incrementally while queries keep serving.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.corpus.builder import (
    CorpusBuilder,
    CorpusCatalog,
    corpus_fingerprint,
    corpus_graph_fingerprint,
)
from repro.corpus.documents import ParsedDocument, parse_document
from repro.exceptions import CorpusError
from repro.service.service import IndexService, ServiceConfig


def _refuse_shedding(config: Optional[ServiceConfig]) -> None:
    """A compile books its document in the catalog before the service
    admits the ops, so a shed op would leave the catalog naming nodes the
    graph never gets: a corpus runs over no shedding service."""
    if config is not None and config.admission == "shed":
        raise CorpusError("a corpus cannot be served with admission='shed'")


class CorpusService:
    """A document store served by a structural index.

    All document mutators are serialised by one facade lock: compiles
    mutate the catalog eagerly (so a later compile can target oids an
    earlier one introduced), which makes compile→submit a critical
    section.  Queries and flushes go straight to the inner service.
    """

    def __init__(self, service: IndexService, catalog: CorpusCatalog,
                 attribute_nodes: bool = True):
        _refuse_shedding(service.config)
        self.service = service
        self.catalog = catalog
        self.attribute_nodes = attribute_nodes
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        documents: Iterable[tuple[str, str]],
        *,
        config: Optional[ServiceConfig] = None,
        store_dir: Optional[str] = None,
        store_config=None,
        adaptive=None,
        fault_injector=None,
        attribute_nodes: bool = True,
    ) -> "CorpusService":
        """Build a corpus from ``(doc_id, text)`` pairs, splice-then-refine.

        Every document is booked in the catalog as an arrival would be
        and the whole graph is laid out once (:meth:`CorpusBuilder.build`);
        the single refinement pass happens when the service constructor
        builds its index over the finished graph.  With
        *store_dir* the corpus is served durably (WAL + snapshots), with
        *adaptive* (an ``AdaptiveConfig``) through the adaptive plane.
        """
        _refuse_shedding(config)
        builder = CorpusBuilder(attribute_nodes)
        builder.add_all(documents)
        graph, catalog = builder.build()
        service = IndexService(
            graph,
            config,
            fault_injector,
            store_dir=store_dir,
            store_config=store_config,
            adaptive=adaptive,
        )
        return cls(service, catalog, attribute_nodes)

    @classmethod
    def empty(cls, **kwargs) -> "CorpusService":
        """An empty corpus (just ROOT), ready for incremental arrivals."""
        return cls.bulk_load([], **kwargs)

    # -- document operations -------------------------------------------

    def add_document(self, doc_id: str, text: str) -> ParsedDocument:
        """Parse, compile and enqueue one document arrival."""
        with self._lock:
            document = parse_document(doc_id, text, self.attribute_nodes)
            updates = self.catalog.compile_add(document, self.service.graph.root)
            for update in updates:
                self.service.submit(update)
            return document

    def remove_document(self, doc_id: str) -> None:
        """Compile and enqueue one document departure."""
        with self._lock:
            for update in self.catalog.compile_remove(doc_id):
                self.service.submit(update)

    def replace_document(self, doc_id: str, text: str) -> int:
        """Diff the new text against the resident version; enqueue the delta.

        Returns the number of updates emitted (0 for a no-op replace).
        """
        with self._lock:
            document = parse_document(doc_id, text, self.attribute_nodes)
            updates = self.catalog.compile_replace(
                document, self.service.graph.root
            )
            for update in updates:
                self.service.submit(update)
            return len(updates)

    # -- inspection ----------------------------------------------------

    def document_ids(self) -> list[str]:
        """Ids of all resident documents, sorted."""
        return self.catalog.document_ids()

    def has_document(self, doc_id: str) -> bool:
        """Whether *doc_id* is resident."""
        return doc_id in self.catalog.manifests

    def dangling_refs(self) -> list[tuple[str, str, str, str]]:
        """Currently unresolved cross-document references."""
        return self.catalog.dangling_refs()

    def await_quiescent(self) -> None:
        """Flush until the update queue is empty (synchronous catch-up)."""
        while self.service.flush() is not None:
            pass

    def extents(self) -> list[frozenset[int]]:
        """The live partition blocks of the served index."""
        return self.service.structure.blocks()

    def graph_fingerprint(self) -> str:
        """Oid-independent digest of the corpus graph (no partition)."""
        return corpus_graph_fingerprint(self.service.graph, self.catalog)

    def fingerprint(self) -> str:
        """Oid-independent digest of graph *and* index partition."""
        return corpus_fingerprint(
            self.service.graph, self.catalog, self.extents()
        )

    def check(self) -> None:
        """Catalog↔graph and index invariants (test/debug oracle)."""
        self.catalog.check(self.service.graph)
        self.service.check()

    # -- service passthroughs ------------------------------------------

    def query(self, expression):
        """Serve a path query from the published snapshot."""
        return self.service.query(expression)

    def queue_depth(self) -> int:
        """Pending updates not yet applied (the staleness proxy)."""
        return self.service.queue_depth()

    def start(self) -> None:
        """Start the background writer."""
        self.service.start()

    def stop(self) -> None:
        """Stop the background writer."""
        self.service.stop()

    def close(self) -> None:
        """Stop and release the inner service."""
        self.service.close()

    def health(self) -> dict:
        """The inner service's health report."""
        return self.service.health()

    def __enter__(self) -> "CorpusService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
