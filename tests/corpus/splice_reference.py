"""The per-document splice ``CorpusBuilder.build`` used to run, kept as its
reference.

Every document is compiled exactly as incremental ingest compiles it and
its ``add_subgraph`` is applied through the operation table's index-free
graph effect: the subgraph's nodes one ``add_node`` at a time, then its
edges and the cross edges one ``add_edge`` at a time.  The bulk build
must give the same graph slot for slot and the same catalog.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.corpus.builder import CorpusCatalog
from repro.corpus.documents import ParsedDocument
from repro.graph.datagraph import DataGraph
from repro.maintenance.operations import OPERATIONS


def per_call_splice(documents: Iterable[ParsedDocument]) -> tuple[DataGraph, CorpusCatalog]:
    """Splice every document into a fresh graph under ROOT, call by call."""
    graph = DataGraph()
    root = graph.add_root()
    catalog = CorpusCatalog(next_oid=graph._next_oid)
    for document in documents:
        for update in catalog.compile_add(document, root):
            OPERATIONS[update.op].raw(graph, *update.args)
    return graph, catalog
