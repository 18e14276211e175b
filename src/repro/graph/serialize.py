"""JSON-friendly (de)serialisation of data graphs.

Structural indexes are cheap to rebuild but data graphs are not always
re-parseable (they may have been assembled programmatically), so the
library offers a plain-dict wire format::

    {
      "format_version": 2,
      "labels": ["chapter", "section", ...],
      "nodes": [[oid, label-id, value-or-null], ...],
      "edges": [[source, target, "tree"|"idref"], ...],
      "root": oid-or-null
    }

Values must be JSON-serialisable; everything else round-trips exactly
(including oids, which index serialisation relies on).

Since v2 node labels are indexes into a sorted ``labels`` table (XML
element names repeat massively; inlining them dominated v1 payload
size).  The reader also accepts an inline string where a label id is
expected, so hand-edited payloads stay loadable.  v0/v1 payloads (no
``labels`` table, inline labels) load unchanged.

:func:`graph_to_dict` is the wire form and the reference;
:func:`graph_to_json` writes the canonical JSON text of the same dict
straight off the slab core (no dict between), one oid page
(``oid >> PAGE_BITS``, the slot map's 1 024-key page) at a time:
:func:`graph_page_nodes` / :func:`graph_page_edges` render a page's
entries and :func:`graph_json` joins them.  A checkpoint keeps those page
texts and re-renders only the pages commits touched
(:mod:`repro.store.checkpoint`); a node names its label by rank in
:func:`graph_labels`' table, so its text holds until the set of labels in
use changes, while edge text never names a label.

``format_version`` makes persisted payloads (checkpoints, WAL subgraph
operations — see :mod:`repro.store`) evolvable: the reader accepts a
missing version as v0 (the pre-versioned format, identical minus the
field) and raises :class:`SerializationError` on versions newer than it
understands, instead of misparsing a future layout.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any, TextIO

from repro.core.codec import (
    canonical,
    canonical_array,
    canonical_object,
    canonical_value,
    is_count,
)
from repro.core.intmap import PAGE_BITS
from repro.exceptions import GraphError, SerializationError
from repro.graph.datagraph import _OID_SHIFT, ROOT_LABEL, DataGraph, EdgeKind

#: current graph wire-format version; bump on structural changes
GRAPH_FORMAT_VERSION = 2

_KIND_OF_VALUE = {kind.value: kind for kind in EdgeKind}


def check_format_version(data: Any, current: int, error: type) -> int:
    """Validate a payload's ``format_version`` against *current*.

    Shared by the graph and index loaders: a missing field reads as v0
    (every pre-versioned payload), anything newer than *current* raises
    *error* — readers must never guess at a future layout.  Returns the
    version so loaders can branch on it once v1+ diverges.
    """
    if not isinstance(data, dict):
        return 0
    version = data.get("format_version", 0)
    if not is_count(version):
        raise error(f"malformed format_version {version!r}: expected a non-negative int")
    if version > current:
        raise error(
            f"payload format_version {version} is newer than the supported "
            f"version {current}; upgrade the library to read it"
        )
    return version


def graph_to_dict(graph: DataGraph) -> dict[str, Any]:
    """Convert a graph to the plain-dict wire format."""
    labels = sorted({graph.label(oid) for oid in graph.nodes()})
    label_id = {label: i for i, label in enumerate(labels)}
    return {
        "format_version": GRAPH_FORMAT_VERSION,
        "labels": labels,
        "nodes": [
            [oid, label_id[graph.label(oid)], graph.value(oid)]
            for oid in sorted(graph.nodes())
        ],
        "edges": [
            [source, target, graph.edge_kind(source, target).value]
            for source, target in sorted(graph.edges())
        ],
        "root": graph.root if graph.has_root else None,
    }


def graph_labels(graph: DataGraph) -> tuple[list[str], dict[int, str]]:
    """The label table: the names in use, sorted, and each interned label
    id's wire id (the rank of its name), already as text.

    A set over the slot label array (C speed, no per-dnode call).
    """
    name_of = graph._interner.name_of
    used = sorted(
        (name_of(label_id), label_id) for label_id in set(graph._label_at) if label_id >= 0
    )
    wire_of = {label_id: str(rank) for rank, (_, label_id) in enumerate(used)}
    return [name for name, _ in used], wire_of


def graph_pages(graph: DataGraph) -> list[int]:
    """The numbers of the oid pages (``oid >> PAGE_BITS``) that hold a slot, ascending."""
    return sorted(graph._slot_of._pages)


def _page_slots(graph: DataGraph, page_no: int) -> list[tuple[int, int]]:
    """``(oid, slot)`` of every node on oid page *page_no*, ascending."""
    page = graph._slot_of._pages.get(page_no)
    if page is None:
        return []
    base = page_no << PAGE_BITS
    return [(base + offset, slot) for offset, slot in enumerate(page) if slot >= 0]


def graph_page_nodes(graph: DataGraph, page_no: int, wire_of: dict[int, str]) -> str:
    """The ``nodes`` entries of oid page *page_no*, comma-joined ("" if none).

    *wire_of* is :func:`graph_labels`' second half; the text is valid for
    as long as the set of labels in use does not change.
    """
    label_at = graph._label_at
    values_get = graph._values.get
    return ",".join(
        f"[{oid},{wire_of[label_at[slot]]},{canonical_value(values_get(oid))}]"
        for oid, slot in _page_slots(graph, page_no)
    )


def graph_page_edges(graph: DataGraph, page_no: int) -> str:
    """The ``edges`` entries whose source is on oid page *page_no*,
    comma-joined ("" if none); each source's successor segment sorted once."""
    targets_of = graph._succ_slabs.to_list
    idref = graph._idref
    tree_kind, idref_kind = canonical(EdgeKind.TREE.value), canonical(EdgeKind.IDREF.value)
    edges: list[str] = []
    for oid, slot in _page_slots(graph, page_no):
        targets = targets_of(slot)
        if len(targets) > 1:
            targets.sort()
        packed_source = oid << _OID_SHIFT
        for target in targets:
            kind = idref_kind if (packed_source | target) in idref else tree_kind
            edges.append(f"[{oid},{target},{kind}]")
    return ",".join(edges)


def graph_json(
    graph: DataGraph, labels: list[str], nodes: Iterable[str], edges: Iterable[str]
) -> str:
    """The graph's canonical text from its pages' texts, in page order
    (empty page texts are skipped)."""
    return canonical_object(
        {
            "format_version": canonical(GRAPH_FORMAT_VERSION),
            "labels": canonical(labels),
            "nodes": canonical_array(filter(None, nodes)),
            "edges": canonical_array(filter(None, edges)),
            "root": canonical(graph._root),
        }
    )


def graph_to_json(graph: DataGraph) -> str:
    """``canonical(graph_to_dict(graph))``, read off the core in bulk.

    Every oid page rendered by :func:`graph_page_nodes` and
    :func:`graph_page_edges` and joined: the cold case of a checkpoint's
    paged text (:class:`repro.store.checkpoint.CheckpointText`).  No
    public per-dnode accessor is called and no list-of-lists is built.
    """
    labels, wire_of = graph_labels(graph)
    pages = graph_pages(graph)
    return graph_json(
        graph,
        labels,
        [graph_page_nodes(graph, page_no, wire_of) for page_no in pages],
        [graph_page_edges(graph, page_no) for page_no in pages],
    )


def graph_from_dict(data: dict[str, Any]) -> DataGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    The entries are validated and split into columns, and
    :meth:`DataGraph.from_columns` lays the graph out in one pass, slot for
    slot what adding them one by one would give.  Malformed payloads —
    wrong shapes, bad or duplicate oids, non-string labels, dangling,
    duplicate or root-bound edges, unknown edge kinds, a missing root
    node — raise :class:`SerializationError` (or another
    :class:`GraphError` subclass) with a descriptive message, never a bare
    ``KeyError`` / ``TypeError`` / ``ValueError``.
    """
    version = check_format_version(data, GRAPH_FORMAT_VERSION, SerializationError)
    try:
        nodes = data["nodes"]
        edges = data["edges"]
        root = data.get("root")
        labels = data.get("labels", []) if version >= 2 else []
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed graph payload: {exc!r}") from exc
    if version >= 2 and (
        not isinstance(labels, list) or any(not isinstance(l, str) for l in labels)
    ):
        raise SerializationError("malformed label table: expected a list of strings")
    oids: list[Any] = []
    names: list[Any] = []
    values: list[Any] = []
    has_root = False
    for entry in nodes:
        try:
            oid, label, value = entry
        except (ValueError, TypeError) as exc:
            raise SerializationError(
                f"malformed node entry {entry!r}: expected [oid, label, value]"
            ) from exc
        if version >= 2 and not isinstance(label, str):
            # Labels are table indexes since v2; inline strings (above)
            # are still honoured for hand-edited payloads.
            if (
                not isinstance(label, int)
                or isinstance(label, bool)
                or not 0 <= label < len(labels)
            ):
                raise SerializationError(
                    f"malformed node entry {entry!r}: label id {label!r} is not "
                    f"an index into the label table"
                )
            label = labels[label]
        if root is not None and oid == root:
            if label != ROOT_LABEL:
                raise GraphError(f"root node {oid} must carry the ROOT label")
            has_root = True
        oids.append(oid)
        names.append(label)
        values.append(value)
    sources: list[Any] = []
    targets: list[Any] = []
    kinds: list[EdgeKind] = []
    for entry in edges:
        try:
            source, target, kind = entry
            kinds.append(_KIND_OF_VALUE.get(kind) or EdgeKind(kind))
        except (ValueError, TypeError) as exc:
            raise SerializationError(
                f"malformed edge entry {entry!r}: expected [source, target, kind]"
            ) from exc
        sources.append(source)
        targets.append(target)
    if root is not None and not has_root:
        raise SerializationError(f"root oid {root!r} is not among the nodes")
    try:
        return DataGraph.from_columns(oids, names, values, sources, targets, kinds, root)
    except TypeError as exc:  # add_node's, for a bad oid or label
        raise SerializationError(f"malformed node entry: {exc}") from exc


def dump_graph(graph: DataGraph, fp: TextIO) -> None:
    """Write a graph as JSON to an open text file."""
    json.dump(graph_to_dict(graph), fp)


def load_graph(fp: TextIO) -> DataGraph:
    """Read a graph from JSON written by :func:`dump_graph`."""
    return graph_from_dict(json.load(fp))


def dumps_graph(graph: DataGraph) -> str:
    """Serialise a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph))


def loads_graph(text: str) -> DataGraph:
    """Deserialise a graph from a JSON string."""
    return graph_from_dict(json.loads(text))
