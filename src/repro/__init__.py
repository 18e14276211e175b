"""repro — incremental maintenance of XML structural indexes.

A complete reproduction of *"Incremental Maintenance of XML Structural
Indexes"* (Yi, He, Stanoi & Yang, SIGMOD 2004): the 1-index and
A(k)-index structural summaries, the paper's split/merge maintenance
algorithms with their minimality guarantees, the baselines they are
evaluated against, a path-query engine, and the workload generators and
harness that regenerate the paper's experiments.

Quickstart::

    from repro import GraphBuilder, OneIndex
    from repro.maintenance import SplitMergeMaintainer

    graph = (GraphBuilder()
             .edge("root", "a").edge("root", "b")
             .edge("a", "c").edge("b", "d")
             .build())
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)

See the README for the full tour and ``repro.experiments`` for the
paper's figures and tables.
"""

from repro.exceptions import (
    GraphError,
    InvalidIndexError,
    MaintenanceError,
    PathSyntaxError,
    ReproError,
    StructuralIndexError,
    XmlFormatError,
)
from repro.corpus import parse_xml
from repro.graph import DataGraph, EdgeKind, GraphBuilder, to_xml
from repro.index import AkIndexFamily, OneIndex, StructuralIndex

__version__ = "1.0.0"

__all__ = [
    "DataGraph",
    "EdgeKind",
    "GraphBuilder",
    "parse_xml",
    "to_xml",
    "StructuralIndex",
    "OneIndex",
    "AkIndexFamily",
    "ReproError",
    "GraphError",
    "StructuralIndexError",
    "InvalidIndexError",
    "MaintenanceError",
    "XmlFormatError",
    "PathSyntaxError",
    "__version__",
]
