"""Split a synthetic dataset into *n* pseudo-documents for the corpus layer.

The XMark/IMDB generators build one monolithic graph (root → site →
sections → units), but the corpus engine (:mod:`repro.corpus`) ingests
*XML documents*.  :func:`split_into_documents` bridges the two: it deals
the unit subtrees (items, persons, auctions, movies, ...) round-robin
into *n* documents that each replicate the site/section shell, then
writes every document with :func:`repro.graph.xml_io.element_writer`, the
element writer :func:`~repro.graph.xml_io.to_xml` uses.

Reference edges are preserved across the split.  Every IDREF target
gets a stable ``id="n<oid>"`` attribute; a reference whose target landed
in the *same* document stays a bare ``idref="n<oid>"``, while one whose
target landed elsewhere becomes the corpus layer's scoped form
``idref="<doc-id>/n<oid>"`` — so re-ingesting all *n* documents through
:class:`repro.corpus.CorpusBuilder` reconstructs the original reference
structure, exercising cross-document resolution on real XMark/IMDB
shapes without any new dataset.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import WorkloadError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.xml_io import element_writer, tree_children


def split_into_documents(graph: DataGraph, n: int) -> list[tuple[str, str]]:
    """Split *graph* into *n* ``(doc_id, xml_text)`` pseudo-documents.

    *graph* must be shaped like the synthetic generators' output: ROOT →
    one top element → section elements → unit subtrees, with IDREF edges
    only between unit-subtree nodes.  Unit subtrees are dealt round-robin
    per section (so every document gets a slice of every section), and
    each document replicates the top/section shell.
    """
    if n < 1:
        raise WorkloadError(f"cannot split into {n} documents (need n >= 1)")
    root = graph.root
    if root is None:
        raise WorkloadError("cannot split a graph without a ROOT node")
    tops = tree_children(graph, root)
    if len(tops) != 1:
        raise WorkloadError(
            f"expected exactly one top element under ROOT, found {len(tops)}"
        )
    top = tops[0]
    sections = tree_children(graph, top)

    doc_ids = [f"doc{i:02d}" for i in range(n)]
    doc_of: dict[int, str] = {}
    # each document's shell: what its top and section elements nest
    shells: dict[str, dict[int, list[int]]] = {
        doc_id: {top: sections, **{section: [] for section in sections}}
        for doc_id in doc_ids
    }
    for section in sections:
        for position, unit in enumerate(tree_children(graph, section)):
            doc_id = doc_ids[position % n]
            shells[doc_id][section].append(unit)
            for oid in _tree_subtree(graph, unit):
                if oid in doc_of:
                    raise WorkloadError(f"dnode {oid} lies in two unit subtrees")
                doc_of[oid] = doc_id

    for source, target in graph.edges_of_kind(EdgeKind.IDREF):
        for endpoint in (source, target):
            if endpoint not in doc_of:
                raise WorkloadError(
                    f"IDREF endpoint {endpoint} lies outside every unit subtree; "
                    "this graph shape cannot be split into documents"
                )

    def spelled_in(doc_id: str) -> Callable[[int], str]:
        # bare within the document, scoped across documents
        return lambda target: (
            f"n{target}" if doc_of[target] == doc_id else f"{doc_of[target]}/n{target}"
        )

    write = element_writer(graph)
    return [(doc_id, write(top, spelled_in(doc_id), shells[doc_id])) for doc_id in doc_ids]


def _tree_subtree(graph: DataGraph, start: int) -> list[int]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for child in graph.iter_succ(node):
            if (
                child not in seen
                and graph.edge_kind(node, child) is EdgeKind.TREE
            ):
                seen.add(child)
                stack.append(child)
    return sorted(seen)
