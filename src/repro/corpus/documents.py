"""Per-document XML parsing with file-scoped, diff-stable local ids.

The corpus engine never merges identifier namespaces: every node of a
document is addressed by a **local id** that is unique *within that
document only*, and the pair ``<doc-id>/<local-id>`` is the corpus-wide
scoped name.  Two kinds of local id exist:

* **explicit** — the value of the element's ``id`` attribute.  Explicit
  ids are the only legal reference targets, and they keep their identity
  across re-parses: an element that moves within the document keeps its
  oid in the graph because its local id is unchanged.
* **synthetic** — derived from the element's position for everything
  else: the document element is ``.<tag>``, a child is
  ``<parent>.<tag>[<n>]`` (``n`` = ordinal among same-tag siblings) and
  an attribute node is ``<parent>.@<name>``.  The chain restarts at
  every explicit id, so the anonymous subtree *under* an identified
  element also survives moves of that element.

Reference attributes (``idref`` / ``idrefs``) hold whitespace-separated
tokens.  A bare token references an explicit id in the *same* document
and must resolve at parse time; a token containing ``/`` is the scoped
form ``<doc-id>/<local-id>`` and may reference a document that has not
arrived yet (the corpus tracks it as *dangling* and resolves it when
the target appears).  The attribute names are
:mod:`repro.graph.xml_io`'s, the writer's, so what one writes the other
reads.  No name is empty: a document id, an explicit id and either half
of a scoped token all name something (and a local id holds no ``/``).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import XmlFormatError
from repro.graph.xml_io import ID_ATTRIBUTE, REF_ATTRIBUTES


@dataclass(frozen=True)
class ScopedRef:
    """One reference edge, in document-local terms.

    ``target_doc`` is ``None`` for an intra-document reference; the
    scoped form normalises a self-reference (``<own-doc>/x``) back to
    intra, so ``target_doc`` is never the owning document's id.
    """

    source_local: str
    target_doc: Optional[str]
    target_local: str


@dataclass
class ParsedDocument:
    """One parsed document: nodes, tree shape, and references.

    ``order`` lists local ids in document order (root first); builders
    allocate oids in this order so a from-scratch corpus build is
    deterministic.  The structure is oid-free on purpose — diffing two
    parses of the same document is pure local-id set algebra.
    """

    doc_id: str
    root_local: str = ""
    labels: dict[str, str] = field(default_factory=dict)
    values: dict[str, Optional[str]] = field(default_factory=dict)
    #: (parent_local, child_local) containment edges
    tree_edges: list[tuple[str, str]] = field(default_factory=list)
    refs: list[ScopedRef] = field(default_factory=list)
    explicit_ids: set[str] = field(default_factory=set)
    order: list[str] = field(default_factory=list)

    def parent_of(self) -> dict[str, str]:
        """child local -> parent local (the tree is a proper tree)."""
        return {child: parent for parent, child in self.tree_edges}

    def same_content(self, other: "ParsedDocument") -> bool:
        """Whether a replace would be a no-op."""
        return (
            self.labels == other.labels
            and self.values == other.values
            and set(self.tree_edges) == set(other.tree_edges)
            and set(self.refs) == set(other.refs)
        )


def parse_document(doc_id: str, text: str, attribute_nodes: bool = True) -> ParsedDocument:
    """Parse one XML document into the corpus' local-id model.

    Raises :class:`XmlFormatError` (carrying ``source=doc_id`` and the
    element path) for malformed XML, an empty or duplicate explicit id,
    explicit ids colliding with a synthetic id, a scoped token with an
    empty half or a second ``/``, and unresolvable bare references.
    """
    if not doc_id or "/" in doc_id:
        raise XmlFormatError(
            f"document id {doc_id!r} must be non-empty and must not contain '/' "
            "(reserved for scoped references)",
            source=doc_id,
        )
    try:
        element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlFormatError(f"malformed XML: {exc}", source=doc_id) from exc
    document = ParsedDocument(doc_id=doc_id)
    pending: list[tuple[ScopedRef, str]] = []
    _walk(document, element, parent_local=None, path="", position=0,
          attribute_nodes=attribute_nodes, pending=pending)
    document.root_local = document.order[0]

    for ref, path in pending:
        if ref.target_doc is None and ref.target_local not in document.explicit_ids:
            raise XmlFormatError(
                f"unresolvable reference {ref.target_local!r} "
                f"referenced from {path}",
                source=doc_id, path=path,
            )
    return document


def _walk(
    document: ParsedDocument,
    element: ET.Element,
    parent_local: Optional[str],
    path: str,
    position: int,
    attribute_nodes: bool,
    pending: list[tuple[ScopedRef, str]],
) -> None:
    element_path = f"{path}/{element.tag}[{position}]"
    explicit = element.attrib.get(ID_ATTRIBUTE)
    if explicit is not None:
        if not explicit or "/" in explicit:
            raise XmlFormatError(
                f"explicit id {explicit!r} must be non-empty and must not contain '/'",
                source=document.doc_id, path=element_path,
            )
        if explicit in document.explicit_ids:
            raise XmlFormatError(
                f"duplicate id {explicit!r} within one document",
                source=document.doc_id, path=element_path,
            )
        if explicit in document.labels:
            raise XmlFormatError(
                f"explicit id {explicit!r} collides with a synthetic id",
                source=document.doc_id, path=element_path,
            )
        local = explicit
        document.explicit_ids.add(explicit)
    elif parent_local is None:
        local = f".{element.tag}"
    else:
        local = f"{parent_local}.{element.tag}[{position}]"
    if local in document.labels:
        raise XmlFormatError(
            f"synthetic id {local!r} collides with an explicit id",
            source=document.doc_id, path=element_path,
        )
    text = element.text.strip() if element.text and element.text.strip() else None
    document.labels[local] = element.tag
    document.values[local] = text
    document.order.append(local)
    if parent_local is not None:
        document.tree_edges.append((parent_local, local))

    for attr_name, raw in element.attrib.items():
        if attr_name == ID_ATTRIBUTE:
            continue
        if attr_name in REF_ATTRIBUTES:
            for token in raw.split():
                if "/" in token:
                    target_doc, target_local = token.split("/", 1)
                    if not target_doc or not target_local or "/" in target_local:
                        raise XmlFormatError(
                            f"scoped reference {token!r} needs a document id "
                            "and a local id without '/'",
                            source=document.doc_id, path=element_path,
                        )
                    if target_doc == document.doc_id:
                        target_doc = None  # self-scoped → intra
                else:
                    target_doc, target_local = None, token
                ref = ScopedRef(local, target_doc, target_local)
                document.refs.append(ref)
                pending.append((ref, element_path))
        elif attribute_nodes:
            attr_local = f"{local}.@{attr_name}"
            if attr_local in document.labels:
                raise XmlFormatError(
                    f"synthetic id {attr_local!r} collides with an explicit id",
                    source=document.doc_id, path=element_path,
                )
            document.labels[attr_local] = attr_name
            document.values[attr_local] = raw
            document.order.append(attr_local)
            document.tree_edges.append((local, attr_local))

    tally: dict[str, int] = {}
    for child in element:
        child_position = tally.get(child.tag, 0)
        tally[child.tag] = child_position + 1
        _walk(document, child, parent_local=local, path=element_path,
              position=child_position, attribute_nodes=attribute_nodes,
              pending=pending)
