"""Corpus engine: isolated multi-document ingest over one shared index.

See DESIGN.md §11.  The public surface:

* :func:`~repro.corpus.documents.parse_document` /
  :class:`~repro.corpus.documents.ParsedDocument` — file-scoped parsing;
* :class:`~repro.corpus.builder.CorpusBuilder` /
  :class:`~repro.corpus.builder.CorpusCatalog` — bulk ingest and the
  document→update compiler;
* :class:`~repro.corpus.service.CorpusService` — document-granular
  serving over :class:`~repro.service.service.IndexService`;
* :class:`~repro.corpus.churn.CorpusChurnWorkload` — seeded
  arrival/expiry workloads with convergence checking.
"""

from repro.corpus.builder import (
    CorpusBuilder,
    CorpusCatalog,
    DocumentManifest,
    corpus_fingerprint,
    corpus_graph_fingerprint,
)
from repro.corpus.churn import ChurnReport, CorpusChurnWorkload, mutate_document
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
    "CorpusBuilder",
    "CorpusCatalog",
    "DocumentManifest",
    "corpus_fingerprint",
    "corpus_graph_fingerprint",
    "CorpusService",
    "ChurnReport",
    "CorpusChurnWorkload",
    "mutate_document",
]
