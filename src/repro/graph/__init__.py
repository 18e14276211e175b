"""Data-graph substrate: the XML data model of Section 3."""

from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DELETE_LABEL, ROOT_LABEL, DataGraph, EdgeKind
from repro.graph.traversal import (
    descendants_within,
    is_acyclic,
    strongly_connected_components,
)
from repro.graph.serialize import (
    dump_graph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads_graph,
)
from repro.graph.xml_io import describe, to_xml

__all__ = [
    "DataGraph",
    "EdgeKind",
    "GraphBuilder",
    "ROOT_LABEL",
    "DELETE_LABEL",
    "descendants_within",
    "is_acyclic",
    "strongly_connected_components",
    "to_xml",
    "describe",
    "graph_to_dict",
    "graph_from_dict",
    "dump_graph",
    "load_graph",
    "dumps_graph",
    "loads_graph",
]
