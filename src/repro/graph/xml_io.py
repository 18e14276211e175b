"""XML <-> data graph conversion.

Section 3 of the paper models an XML document as a rooted, labeled digraph
whose solid edges are element containment and whose dashed edges are
IDREF references (Figure 1).  This module realises that mapping on top of
the standard library's :mod:`xml.etree.ElementTree`:

* every element becomes a dnode labeled with its tag;
* every attribute becomes a child dnode labeled with the attribute name
  whose value is the attribute text (attributes that *define* ids or
  *are* references are treated specially, below);
* element text becomes the dnode's value;
* an attribute named ``id`` registers the element under that identifier;
* attributes named ``idref`` / ``idrefs`` (or listed in *ref_attributes*)
  create IDREF dedges from the element to the referenced element(s).

A database of several documents becomes one graph with an artificial ROOT
connecting the individual document roots, exactly as the paper states.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.exceptions import XmlFormatError
from repro.graph.datagraph import DataGraph, EdgeKind

#: Attribute names that define an element identifier.
DEFAULT_ID_ATTRIBUTES = ("id",)

#: Attribute names whose value references other elements' identifiers.
DEFAULT_REF_ATTRIBUTES = ("idref", "idrefs", "ref", "person", "open_auction")


def parse_xml(
    text: str,
    id_attributes: Sequence[str] = DEFAULT_ID_ATTRIBUTES,
    ref_attributes: Sequence[str] = DEFAULT_REF_ATTRIBUTES,
    attribute_nodes: bool = True,
) -> DataGraph:
    """Parse one XML document into a :class:`DataGraph`.

    The document element becomes a child of the artificial ROOT node.
    Unresolvable references raise :class:`XmlFormatError`.
    """
    return parse_documents([text], id_attributes, ref_attributes, attribute_nodes)


def parse_documents(
    texts: Iterable[str],
    id_attributes: Sequence[str] = DEFAULT_ID_ATTRIBUTES,
    ref_attributes: Sequence[str] = DEFAULT_REF_ATTRIBUTES,
    attribute_nodes: bool = True,
    names: Optional[Sequence[str]] = None,
) -> DataGraph:
    """Parse several XML documents into one data graph with a shared ROOT.

    Identifiers share one registry across documents (that is what makes
    cross-document IDREFs resolvable here); a colliding id — within one
    document or across two — is an error either way, but the message
    names the offending document's ordinal (and its entry in *names*,
    when given) and distinguishes the two cases.  For file-scoped id
    isolation use :mod:`repro.corpus` instead.
    """
    graph = DataGraph()
    root = graph.add_root()
    by_id: dict[str, int] = {}
    pending_refs: list[tuple[int, str, str, int, Optional[str]]] = []
    id_set = set(id_attributes)
    ref_set = set(ref_attributes)

    for ordinal, text in enumerate(texts):
        name = names[ordinal] if names is not None and ordinal < len(names) else None
        try:
            element = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XmlFormatError(
                f"malformed XML: {exc}", source=name, ordinal=ordinal
            ) from exc
        _walk(
            graph, root, element, by_id, pending_refs, id_set, ref_set,
            attribute_nodes, path="", sibling_tally={}, document_ids=set(),
            ordinal=ordinal, name=name,
        )

    for source, ident, path, ordinal, name in pending_refs:
        target = by_id.get(ident)
        if target is None:
            raise XmlFormatError(
                f"unresolvable IDREF {ident!r} referenced from {path}",
                source=name, ordinal=ordinal, path=path,
            )
        if not graph.has_edge(source, target):
            graph.add_edge(source, target, EdgeKind.IDREF)
    return graph


def _walk(
    graph: DataGraph,
    parent: int,
    element: ET.Element,
    by_id: dict[str, int],
    pending_refs: list[tuple[int, str, str, int, Optional[str]]],
    id_set: set[str],
    ref_set: set[str],
    attribute_nodes: bool,
    path: str,
    sibling_tally: dict[str, int],
    document_ids: set[str],
    ordinal: int,
    name: Optional[str],
) -> int:
    position = sibling_tally.get(element.tag, 0)
    sibling_tally[element.tag] = position + 1
    element_path = f"{path}/{element.tag}[{position}]"
    text = element.text.strip() if element.text and element.text.strip() else None
    oid = graph.add_node(element.tag, value=text)
    graph.add_edge(parent, oid)
    for attr_name, raw in element.attrib.items():
        if attr_name in id_set:
            if raw in document_ids:
                raise XmlFormatError(
                    f"duplicate id {raw!r} within one document",
                    source=name, ordinal=ordinal, path=element_path,
                )
            if raw in by_id:
                raise XmlFormatError(
                    f"id {raw!r} already defined by an earlier document "
                    "(repro.corpus keeps ids file-scoped)",
                    source=name, ordinal=ordinal, path=element_path,
                )
            document_ids.add(raw)
            by_id[raw] = oid
        elif attr_name in ref_set:
            for ident in raw.split():
                pending_refs.append((oid, ident, element_path, ordinal, name))
        elif attribute_nodes:
            attr_oid = graph.add_node(attr_name, value=raw)
            graph.add_edge(oid, attr_oid)
    child_tally: dict[str, int] = {}
    for child in element:
        _walk(
            graph, oid, child, by_id, pending_refs, id_set, ref_set,
            attribute_nodes, path=element_path, sibling_tally=child_tally,
            document_ids=document_ids, ordinal=ordinal, name=name,
        )
    return oid


def to_xml(graph: DataGraph, indent: bool = False) -> str:
    """Serialise a *tree-shaped* data graph back to XML text.

    Only TREE edges are followed for nesting; IDREF edges are emitted as
    ``idref`` attributes pointing at generated ``id`` attributes.  Nodes
    reachable via more than one TREE edge, or TREE cycles, are rejected
    because they have no faithful XML nesting.
    """
    root = graph.root
    doc_children = [
        child
        for child in sorted(graph.iter_succ(root))
        if graph.edge_kind(root, child) is EdgeKind.TREE
    ]
    if len(doc_children) != 1:
        raise XmlFormatError(
            f"serialisation needs exactly one document element, found {len(doc_children)}"
        )

    # Give every IDREF target a stable id attribute.
    ids: dict[int, str] = {}
    for source, target in graph.edges_of_kind(EdgeKind.IDREF):
        ids.setdefault(target, f"n{target}")

    visiting: set[int] = set()
    built: set[int] = set()

    def build(oid: int) -> ET.Element:
        if oid in visiting:
            raise XmlFormatError("TREE edges form a cycle; cannot serialise")
        if oid in built:
            raise XmlFormatError("node has multiple TREE parents; cannot serialise")
        visiting.add(oid)
        element = ET.Element(graph.label(oid))
        if graph.value(oid) is not None:
            element.text = str(graph.value(oid))
        if oid in ids:
            element.set("id", ids[oid])
        refs = [
            ids[child]
            for child in sorted(graph.iter_succ(oid))
            if graph.edge_kind(oid, child) is EdgeKind.IDREF
        ]
        if refs:
            element.set("idrefs" if len(refs) > 1 else "idref", " ".join(refs))
        for child in sorted(graph.iter_succ(oid)):
            if graph.edge_kind(oid, child) is EdgeKind.TREE:
                element.append(build(child))
        visiting.discard(oid)
        built.add(oid)
        return element

    tree = ET.ElementTree(build(doc_children[0]))
    if indent:
        ET.indent(tree)
    buffer = io.BytesIO()
    tree.write(buffer, encoding="utf-8", xml_declaration=False)
    return buffer.getvalue().decode("utf-8")


def roundtrip(graph: DataGraph) -> DataGraph:
    """Serialise then re-parse a graph (testing helper)."""
    return parse_xml(
        to_xml(graph),
        id_attributes=("id",),
        ref_attributes=("idref", "idrefs"),
        attribute_nodes=False,
    )


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
