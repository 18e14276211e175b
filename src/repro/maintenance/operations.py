"""The update vocabulary: the eight operations, stated once.

The paper's write interface is closed — edge insert/delete (Figure 3),
subgraph add/delete (Figure 6), the node and value operations composed
from them, and Section 7's reconstruction — and every layer of the
update path needs the same four facts about each name.
:data:`OPERATIONS` is where they live, one :class:`Operation` per name:

* ``arity`` — the argument counts the operation admits (checked where
  an operation enters: :class:`repro.service.queue.Update`, and both
  directions of :mod:`repro.resilience.wire`);
* ``to_wire`` / ``from_wire`` — the JSON form of the arguments in a log
  record.  Six operations carry plain values and travel as they are;
  ``insert_edge`` carries an :class:`EdgeKind` and ``add_subgraph`` a
  whole :class:`DataGraph` plus cross edges.  The encoding is **stable
  by contract**: logs written by one version must replay on the next,
  so a change here adds optional trailing arguments and never
  repurposes one (``add_subgraph``'s fourth, ``true`` for an
  oid-preserving addition, is absent from older logs);
* ``raw`` — the operation's effect on a data graph with no index
  attached, ``raw(graph, *args)``, returning what the maintainer method
  returns beside its stats (the new oid, the oid mapping) — the guard's
  last resort under ``degrade`` and the corpus bulk load;
* ``families`` — the index families that admit it (an A(k) family is
  never reconstructed: its maintenance keeps the unique minimum,
  Theorem 2).

There is no way to register a ninth operation: a new one is a new entry
here, a method on the maintainers and a constructor on ``Update``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from repro.exceptions import MaintenanceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.index.structure import KINDS

#: the index families a service can maintain
FAMILIES = KINDS


def normalise_cross_edges(cross_edges: Iterable[tuple]) -> list[tuple[int, int, EdgeKind]]:
    """Accept ``(a, b)`` or ``(a, b, kind)`` cross-edge tuples."""
    normalised = []
    for item in cross_edges:
        if len(item) == 2:
            a, b = item
            normalised.append((a, b, EdgeKind.TREE))
        else:
            a, b, kind = item
            normalised.append((a, b, kind))
    return normalised


def require_disjoint_oids(
    graph: DataGraph,
    subgraph: DataGraph,
    cross_edges: Iterable[tuple[int, int]],
    preserve_oids: bool = False,
) -> None:
    """Reject ambiguous cross-edge endpoints (and, when the subgraph's
    oids are to be preserved, any oid collision at all).

    Cross edges are resolved "subgraph oid first, host oid otherwise", so
    when a subgraph oid is *also* a live host oid the reference is
    ambiguous.  Subgraphs extracted from a host
    (:func:`repro.workload.updates.extract_subgraphs`) are naturally
    disjoint (their oids just left the host); hand-built subgraphs should
    pass explicit non-colliding oids to ``DataGraph.add_node``.
    """
    if not cross_edges and not preserve_oids:
        return
    colliding = [oid for oid in subgraph.nodes() if graph.has_node(oid)]
    if colliding:
        raise MaintenanceError(
            f"subgraph oids {sorted(colliding)[:5]} also exist in the host graph; "
            + (
                "cannot preserve them — use disjoint oids"
                if preserve_oids
                else "cross-edge endpoints would be ambiguous — use disjoint oids"
            )
        )


def _plain_to_wire(*args: Any) -> list:
    return list(args)


def _plain_from_wire(*wire_args: Any) -> tuple:
    return wire_args


@dataclass(frozen=True)
class Operation:
    """What every layer of the update path knows about one operation."""

    arity: tuple[int, ...]
    raw: Callable[..., Any]
    to_wire: Callable[..., list] = _plain_to_wire
    from_wire: Callable[..., tuple] = _plain_from_wire
    families: tuple[str, ...] = FAMILIES


def _insert_node(graph: DataGraph, parent: int, label: str, value: object) -> int:
    oid = graph.add_node(label, value)
    graph.add_edge(parent, oid)
    return oid


def _add_subgraph(
    graph: DataGraph,
    subgraph: DataGraph,
    subgraph_root: int,
    cross_edges: Iterable[tuple],
    preserve_oids: bool = False,
) -> dict[int, int]:
    mapping = graph.add_subgraph(subgraph, preserve_oids)
    for a, b, kind in normalise_cross_edges(cross_edges):
        graph.add_edge(mapping.get(a, a), mapping.get(b, b), kind)
    return mapping


def _add_subgraph_to_wire(
    subgraph: DataGraph,
    subgraph_root: int,
    cross_edges: Iterable[tuple],
    preserve_oids: bool = False,
) -> list:
    cross_wire = [[a, b, kind.value] for a, b, kind in normalise_cross_edges(cross_edges)]
    wire_args = [graph_to_dict(subgraph), subgraph_root, cross_wire]
    if preserve_oids:
        wire_args.append(True)  # absent otherwise, so older logs replay unchanged
    return wire_args


def _add_subgraph_from_wire(
    graph_dict: dict, subgraph_root: int, cross_wire: list, preserve_oids: bool = False
) -> tuple:
    cross_edges = tuple((a, b, EdgeKind(kind)) for a, b, kind in cross_wire)
    args: tuple = (graph_from_dict(graph_dict), subgraph_root, cross_edges)
    if preserve_oids:
        args += (True,)
    return args


def _delete_subgraph(graph: DataGraph, subgraph_root: int) -> None:
    graph.remove_nodes(graph.subgraph_from(subgraph_root).nodes())


OPERATIONS: Mapping[str, Operation] = MappingProxyType(
    {
        "insert_edge": Operation(
            arity=(3,),
            raw=DataGraph.add_edge,
            to_wire=lambda source, target, kind: [source, target, kind.value],
            from_wire=lambda source, target, kind: (source, target, EdgeKind(kind)),
        ),
        "delete_edge": Operation(arity=(2,), raw=DataGraph.remove_edge),
        "insert_node": Operation(arity=(3,), raw=_insert_node),
        "delete_node": Operation(arity=(1,), raw=DataGraph.remove_node),
        "add_subgraph": Operation(
            arity=(3, 4),
            raw=_add_subgraph,
            to_wire=_add_subgraph_to_wire,
            from_wire=_add_subgraph_from_wire,
        ),
        "delete_subgraph": Operation(arity=(1,), raw=_delete_subgraph),
        "set_value": Operation(arity=(2,), raw=DataGraph.set_value),
        # index-only: the data graph is untouched, and a rebuild is the minimum
        "reconstruct": Operation(arity=(0,), raw=lambda graph: None, families=("one",)),
    }
)


def operation(method: object, num_args: int, error: type) -> Operation:
    """The table entry for a call of *method* with *num_args* arguments.

    Raises *error* for a name outside the vocabulary or an argument
    count the operation does not admit.
    """
    entry = OPERATIONS.get(method) if isinstance(method, str) else None
    if entry is None:
        raise error(f"unknown operation {method!r}; choose from {tuple(OPERATIONS)}")
    if num_args not in entry.arity:
        admitted = " or ".join(str(n) for n in entry.arity)
        raise error(f"{method!r} takes {admitted} arguments, got {num_args}")
    return entry
