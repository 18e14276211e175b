"""Corpus engine: isolated multi-document ingest over one shared index.

See DESIGN.md §11.  The public surface:

* :func:`~repro.corpus.documents.parse_document` /
  :class:`~repro.corpus.documents.ParsedDocument` — file-scoped parsing;
* :func:`~repro.corpus.builder.parse_xml` — one document to a data graph,
  a one-document corpus build;
* :class:`~repro.corpus.builder.CorpusBuilder` /
  :class:`~repro.corpus.builder.CorpusCatalog` — bulk ingest and the
  document→update compiler;
* :class:`~repro.corpus.service.CorpusService` — document-granular
  serving over :class:`~repro.service.service.IndexService`;
* :func:`~repro.corpus.churn.mutate_document` — the seeded structural
  edit a churn schedule replaces a document with.
"""

from repro.corpus.builder import (
    CorpusBuilder,
    CorpusCatalog,
    DocumentManifest,
    corpus_fingerprint,
    corpus_graph_fingerprint,
    parse_xml,
)
from repro.corpus.churn import mutate_document
from repro.corpus.documents import (
    ID_ATTRIBUTE,
    REF_ATTRIBUTES,
    ParsedDocument,
    ScopedRef,
    parse_document,
)
from repro.corpus.service import CorpusService

__all__ = [
    "ID_ATTRIBUTE",
    "REF_ATTRIBUTES",
    "ParsedDocument",
    "ScopedRef",
    "parse_document",
    "parse_xml",
    "CorpusBuilder",
    "CorpusCatalog",
    "DocumentManifest",
    "corpus_fingerprint",
    "corpus_graph_fingerprint",
    "CorpusService",
    "mutate_document",
]
