"""The operation table's contract, one case per entry.

Every consumer of :data:`OPERATIONS` trusts two things about an entry:
its wire codec gives the arguments back, and its raw effect is the
graph effect of the maintainer method of the same name.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_to_dict
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.index.oneindex import OneIndex
from repro.maintenance import (
    OPERATIONS,
    AkSplitMergeMaintainer,
    PropagateMaintainer,
    SimpleAkMaintainer,
    SplitMergeMaintainer,
)
from repro.maintenance.operations import normalise_cross_edges


def host() -> DataGraph:
    """ROOT(0) - site(1) - {item(2)-name(3), item(4)-name(5), person(6)-name(7),
    person(8)}, person(6) -IDREF-> item(2)."""
    graph = DataGraph()
    graph.add_root()
    for label, parent, value in (
        ("site", 0, None), ("item", 1, None), ("name", 2, "a"), ("item", 1, None),
        ("name", 4, "b"), ("person", 1, None), ("name", 6, "p"), ("person", 1, None),
    ):
        graph.add_edge(parent, graph.add_node(label, value))
    graph.add_edge(6, 2, EdgeKind.IDREF)
    return graph


def subgraph(first_oid: int) -> DataGraph:
    sub = DataGraph()
    top = sub.add_node("item", None, oid=first_oid)
    sub.add_edge(top, sub.add_node("name", "s", oid=first_oid + 1))
    return sub


#: argument tuples valid on :func:`host`, every admitted arity of every operation
CALLS = [
    ("insert_edge", (8, 4, EdgeKind.IDREF)),
    ("delete_edge", (6, 2)),
    ("insert_node", (1, "category", {"k": [1, 2]})),
    ("delete_node", (7,)),
    ("add_subgraph", (subgraph(100), 100, ((1, 100), (101, 2, EdgeKind.IDREF)))),
    ("add_subgraph", (subgraph(200), 200, ((1, 200),), True)),
    ("delete_subgraph", (4,)),
    ("set_value", (3, {"k": [1, 2]})),
    ("reconstruct", ()),
]
CALL_IDS = [f"{method}/{len(args)}" for method, args in CALLS]

MAINTAINERS = {
    SplitMergeMaintainer: lambda graph: SplitMergeMaintainer(OneIndex.build(graph)),
    PropagateMaintainer: lambda graph: PropagateMaintainer(OneIndex.build(graph)),
    AkSplitMergeMaintainer: lambda graph: AkSplitMergeMaintainer(AkIndexFamily.build(graph, 2)),
    SimpleAkMaintainer: lambda graph: SimpleAkMaintainer(
        StructuralIndex.from_partition(graph, blocks_of(ak_class_maps(graph, 2)[2])), 2
    ),
}


def implements(maintainer: type, method: str, args: tuple) -> bool:
    if not hasattr(maintainer, method):
        return False
    try:
        inspect.signature(getattr(maintainer, method)).bind(None, *args)
    except TypeError:  # propagate's add_subgraph has no preserve_oids
        return False
    return True


MAINTAINED_CALLS = [
    pytest.param(maintainer, method, args, id=f"{maintainer.__name__}.{call_id}")
    for maintainer in MAINTAINERS
    for (method, args), call_id in zip(CALLS, CALL_IDS)
    if implements(maintainer, method, args)
]


def comparable(method: str, args: tuple) -> tuple:
    """*args* with graphs as dicts and cross edges in their kinded form."""
    if method != "add_subgraph":
        return args
    sub, root, cross, *flag = args
    return (graph_to_dict(sub), root, tuple(normalise_cross_edges(cross)), *flag)


def test_the_cases_cover_the_table():
    assert {(m, len(a)) for m, a in CALLS} == {
        (method, arity) for method, entry in OPERATIONS.items() for arity in entry.arity
    }
    with pytest.raises(TypeError):
        OPERATIONS["truncate_graph"] = OPERATIONS["delete_node"]  # closed


@pytest.mark.parametrize("method, args", CALLS, ids=CALL_IDS)
def test_the_wire_codec_gives_the_arguments_back(method, args):
    entry = OPERATIONS[method]
    wire_args = json.loads(json.dumps(entry.to_wire(*args)))
    assert comparable(method, entry.from_wire(*wire_args)) == comparable(method, args)


@pytest.mark.parametrize("maintainer, method, args", MAINTAINED_CALLS)
def test_the_raw_effect_is_the_maintainers_graph_effect(maintainer, method, args):
    maintained, raw = host(), host()
    result = getattr(MAINTAINERS[maintainer](maintained), method)(*args)
    payload = OPERATIONS[method].raw(raw, *args)
    assert graph_to_dict(raw) == graph_to_dict(maintained)
    # the oid insert_node allocates, the mapping add_subgraph returns
    assert payload == (result[0] if isinstance(result, tuple) else None)
    # and both allocate the same oid next
    assert raw.add_node("probe") == maintained.add_node("probe")


def test_every_operation_has_a_maintainer_on_each_family_that_admits_it():
    implemented = {(p.values[0], p.values[1]) for p in MAINTAINED_CALLS}
    for method, entry in OPERATIONS.items():
        assert (SplitMergeMaintainer, method) in implemented
        assert ((AkSplitMergeMaintainer, method) in implemented) == ("ak" in entry.families)
