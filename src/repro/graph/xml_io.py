"""Data graph -> XML: the one element writer, and the attribute vocabulary.

Section 3 of the paper models an XML document as a rooted, labeled digraph
whose solid edges are element containment and whose dashed edges are
IDREF references (Figure 1).  The reader side of that mapping is
:mod:`repro.corpus` (:func:`repro.corpus.parse_xml` for one document);
this module is the writer side, and states the attributes both sides
agree on:

* every dnode becomes an element named by its label, its value the text;
* a dnode that is an IDREF target carries ``id="n<oid>"``;
* a dnode's IDREF edges become one ``idref`` attribute (``idrefs`` for
  several), whose tokens spell the targets.

A database of several documents is one graph with an artificial ROOT
connecting the individual document roots, exactly as the paper states;
:func:`repro.workload.documents.split_into_documents` writes one text per
document through the same writer.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Callable, Mapping

from repro.exceptions import XmlFormatError
from repro.graph.datagraph import DataGraph, EdgeKind

#: attribute that defines an element's id
ID_ATTRIBUTE = "id"

#: attributes whose whitespace-separated tokens are references: the
#: writer spells one reference ``idref`` and several ``idrefs``
REF_ATTRIBUTES = ("idref", "idrefs")


def tree_children(graph: DataGraph, oid: int) -> list[int]:
    """The TREE children of *oid*, in oid order."""
    return [
        child
        for child in sorted(graph.iter_succ(oid))
        if graph.edge_kind(oid, child) is EdgeKind.TREE
    ]


def element_writer(graph: DataGraph) -> Callable[..., str]:
    """The one element writer of *graph*: ``write(top, spell, shell={})``.

    ``write`` returns the XML text of dnode *top*'s element and the
    elements nested in it.  *spell* writes a reference to an IDREF target
    (``n<oid>`` within the text, ``<doc>/n<oid>`` across documents); an
    element nests its TREE children unless *shell* names the dnodes it
    nests instead.  A dnode reached twice — a TREE cycle or a second TREE
    parent — has no faithful XML nesting and raises
    :class:`XmlFormatError`.
    """
    refs_of: dict[int, list[int]] = {}
    for source, target in graph.edges_of_kind(EdgeKind.IDREF):
        refs_of.setdefault(source, []).append(target)
    targets = {target for refs in refs_of.values() for target in refs}
    for refs in refs_of.values():
        refs.sort()

    def write(
        top: int, spell: Callable[[int], str], shell: Mapping[int, list[int]] = {}
    ) -> str:
        reached: set[int] = set()

        def build(oid: int) -> ET.Element:
            if oid in reached:
                raise XmlFormatError(
                    f"dnode {oid} is reached twice by TREE edges; cannot serialise"
                )
            reached.add(oid)
            element = ET.Element(graph.label(oid))
            if graph.value(oid) is not None:
                element.text = str(graph.value(oid))
            if oid in targets:
                element.set(ID_ATTRIBUTE, f"n{oid}")
            refs = refs_of.get(oid, [])
            if refs:
                element.set(REF_ATTRIBUTES[len(refs) > 1], " ".join(map(spell, refs)))
            nested = shell.get(oid)
            if nested is None:
                nested = sorted(child for child in graph.iter_succ(oid) if child not in refs)
            for child in nested:
                element.append(build(child))
            return element

        return ET.tostring(build(top), encoding="unicode")

    return write


def to_xml(graph: DataGraph) -> str:
    """Serialise a *tree-shaped* data graph back to XML text.

    Only TREE edges are followed for nesting; IDREF edges are written as
    ``idref`` attributes pointing at generated ``id`` attributes.
    """
    doc_children = tree_children(graph, graph.root)
    if len(doc_children) != 1:
        raise XmlFormatError(
            f"serialisation needs exactly one document element, found {len(doc_children)}"
        )
    return element_writer(graph)(doc_children[0], lambda target: f"n{target}")


def describe(graph: DataGraph) -> str:
    """A short human-readable summary, in the style of the paper's Section 7.

    >>> from repro.graph.builder import GraphBuilder
    >>> g = GraphBuilder().edge("root", "a").build()
    >>> print(describe(g))
    2 dnodes, 1 dedges (0 IDREF), 2 labels
    """
    idref = sum(1 for _ in graph.edges_of_kind(EdgeKind.IDREF))
    return (
        f"{graph.num_nodes} dnodes, {graph.num_edges} dedges "
        f"({idref} IDREF), {len(graph.labels())} labels"
    )
