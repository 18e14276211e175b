"""Constructor differential: ``DataGraph.from_columns`` against per-call builds.

Every graph is built twice from the same columns — once by the bulk
constructor, once by ``add_node`` / ``add_edge`` one call at a time
(:func:`tests.graph.slot_layout.per_call_graph`) — and the two must agree
field by field: slot numbers, labels and the interner, values, the IDREF
table, the oid counter, the edge count and every successor and
predecessor list in order.  Both are then put through one mutation
sequence (an append into a tight slot, removals, slot recycling and
enough growth to compact the slab) and must still agree.  Bad columns
raise what the first failing call raises.
"""

from __future__ import annotations

import random

import pytest

from repro.core.slab import OVERLAY_MIN, SlotSlabs
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    GraphError,
    NodeNotFoundError,
    RootError,
)
from repro.graph.datagraph import OID_LIMIT, ROOT_LABEL, DataGraph, EdgeKind
from repro.workload.random_graphs import random_cyclic, random_dag
from repro.workload.xmark import XMarkConfig, generate_xmark
from tests.graph.slot_layout import assert_same_slots, columns_of, per_call_graph

SMOKE_XMARK = XMarkConfig(
    num_items=20,
    num_persons=20,
    num_open_auctions=10,
    num_closed_auctions=10,
    num_categories=5,
)


def _with_random_kinds(graph: DataGraph, seed: int) -> DataGraph:
    """A copy of *graph* whose edges are TREE or IDREF at random."""
    rng = random.Random(seed)
    twin = DataGraph()
    for oid in sorted(graph.nodes()):
        if graph.has_root and oid == graph.root:
            twin.add_root(oid=oid)
        else:
            twin.add_node(graph.label(oid), graph.value(oid), oid=oid)
    for source, target in sorted(graph.edges()):
        twin.add_edge(source, target, rng.choice(list(EdgeKind)))
    return twin


def _hub() -> DataGraph:
    """root -> hub -> OVERLAY_MIN + 40 children -> one sink: the hub's
    successor slot and the sink's predecessor slot carry overlays."""
    graph = DataGraph()
    root = graph.add_root()
    hub = graph.add_node("hub", "h")
    sink = graph.add_node("sink")
    graph.add_edge(root, hub)
    for n in range(OVERLAY_MIN + 40):
        child = graph.add_node("leaf", n if n % 3 else None)
        graph.add_edge(hub, child)
        graph.add_edge(child, sink, EdgeKind.IDREF if n % 2 else EdgeKind.TREE)
    return graph


def _edgeless() -> DataGraph:
    graph = DataGraph()
    for n in range(7):
        graph.add_node("A" if n % 2 else "B", oid=3 * n + 1)
    return graph


def _figure2() -> DataGraph:
    graph = DataGraph()
    root = graph.add_root()
    labels = {1: "A", 2: "D", 3: "B", 4: "B", 5: "B", 6: "C", 7: "C", 8: "C"}
    for oid, label in labels.items():
        graph.add_node(label, oid=oid)
    for source, target in [(root, 1), (root, 2), (1, 3), (1, 4), (1, 5), (2, 5),
                           (3, 6), (4, 7), (5, 8)]:
        graph.add_edge(source, target)
    return graph


GRAPHS = {
    "figure2": _figure2,
    "random-dag-0": lambda: _with_random_kinds(random_dag(random.Random(0), 60, 40), 0),
    "random-dag-1": lambda: _with_random_kinds(random_dag(random.Random(1), 90, 70), 1),
    "random-cyclic-2": lambda: _with_random_kinds(random_cyclic(random.Random(2), 80, 90), 2),
    "xmark-smoke": lambda: generate_xmark(SMOKE_XMARK).graph,
    "rootless-subgraph": lambda: generate_xmark(SMOKE_XMARK).graph.subgraph_from(3),
    "edgeless": _edgeless,
    "empty": DataGraph,
    "hub": _hub,
}


def _both(graph: DataGraph, shuffle_seed=None) -> tuple[DataGraph, DataGraph]:
    rng = None if shuffle_seed is None else random.Random(shuffle_seed)
    columns = columns_of(graph, rng)
    root = graph.root if graph.has_root else None
    return DataGraph.from_columns(*columns, root), per_call_graph(*columns, root)


@pytest.fixture(params=sorted(GRAPHS))
def graph(request) -> DataGraph:
    return GRAPHS[request.param]()


class TestSlotForSlot:
    @pytest.mark.parametrize("shuffle_seed", [None, 5, 6])
    def test_equals_the_per_call_build(self, graph, shuffle_seed):
        bulk, reference = _both(graph, shuffle_seed)
        assert_same_slots(bulk, reference)
        bulk.check_invariants()
        assert bulk.num_nodes == graph.num_nodes and bulk.num_edges == graph.num_edges

    def test_slots_are_tight_and_the_generation_moves_once(self, graph):
        bulk, _ = _both(graph, 7)
        assert bulk.generation == 1
        for slabs in (bulk._succ_slabs, bulk._pred_slabs):
            assert slabs._cap == slabs._len
            assert slabs._dead == 0

    def test_hub_slots_carry_overlays(self):
        bulk, reference = _both(_hub(), 8)
        assert len(bulk._succ_slabs._overlay) == len(bulk._pred_slabs._overlay) == 1
        assert_same_slots(bulk, reference)

    def test_root_value_and_recycled_oids(self):
        columns = ([9, 4, 2], [ROOT_LABEL, "A", "B"], ["r", None, 0], [9, 4], [4, 2],
                   [EdgeKind.TREE, EdgeKind.IDREF])
        bulk = DataGraph.from_columns(*columns, root=9)
        assert_same_slots(bulk, per_call_graph(*columns, root=9))
        assert (bulk.root, bulk.value(9), bulk.value(2)) == (9, "r", 0)
        assert bulk.add_node("C") == 10


def _mutate(graph: DataGraph, seed: int) -> None:
    """One seeded mutation sequence through the public API."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    parents = [oid for oid in nodes if graph.out_degree(oid)]
    # an append into a tight slot: the first one grows it
    for parent in parents[:3]:
        graph.add_edge(parent, graph.add_node("grown"))
    # removals: edges, then whole nodes (their slots go to the freelist)
    edges = sorted(graph.edges())
    for source, target in rng.sample(edges, min(5, len(edges))):
        if graph.has_edge(source, target):
            graph.remove_edge(source, target)
    keep = {graph.root} if graph.has_root else set()
    removable = [oid for oid in sorted(graph.nodes()) if oid not in keep]
    for oid in rng.sample(removable, min(3, len(removable))):
        graph.remove_node(oid)
    # recycle the freed slots, with edges both ways
    live = sorted(graph.nodes())
    for _ in range(4):
        oid = graph.add_node("recycled")
        if live:
            graph.add_edge(rng.choice(live), oid, EdgeKind.IDREF)
            target = rng.choice(live)
            if not (graph.has_root and target == graph.root):
                graph.add_edge(oid, target)
    # growth enough to compact: a fan doubled past COMPACT_MIN_DEAD, then
    # its slot cleared
    fan = graph.add_node("fan")
    for _ in range(5000):
        graph.add_edge(fan, graph.add_node("blade"))
    graph.remove_node(fan)


class TestMutationsKeepThemEqual:
    def test_same_sequence_same_slots(self, graph, monkeypatch):
        compacted: list[SlotSlabs] = []
        compact = SlotSlabs.compact

        def counted(slabs: SlotSlabs) -> None:
            compacted.append(slabs)
            compact(slabs)

        monkeypatch.setattr(SlotSlabs, "compact", counted)
        bulk, reference = _both(graph, 11)
        _mutate(bulk, 12)
        _mutate(reference, 12)
        assert any(slabs is bulk._succ_slabs for slabs in compacted)
        assert any(slabs is reference._succ_slabs for slabs in compacted)
        assert_same_slots(bulk, reference)
        bulk.check_invariants()
        reference.check_invariants()


def _columns(graph: DataGraph) -> list[list]:
    """Shuffled columns of a rooted graph, the root's node first (so a
    corrupted node is never the root)."""
    columns = [list(column) for column in columns_of(graph, random.Random(3))]
    first = columns[0].index(graph.root)
    for column in columns[:3]:
        column.insert(0, column.pop(first))
    return columns


def _set(column: int, row: int, value):
    def corrupt(columns: list[list]) -> None:
        columns[column][row] = value
    return corrupt


def _duplicate_node(columns: list[list]) -> None:
    columns[0][6] = columns[0][2]


def _duplicate_edge(columns: list[list]) -> None:
    for column in columns[3:]:
        column.append(column[4])


def _into_root(columns: list[list]) -> None:
    columns[3].append(columns[3][0])
    columns[4].append(0)
    columns[5].append(EdgeKind.IDREF)


#: one fault of one call each: the corruption and what the call raises
FAULTS = {
    "bool-oid": (_set(0, 4, True), TypeError),
    "str-oid": (_set(0, 4, "4"), TypeError),
    "negative-oid": (_set(0, 4, -1), TypeError),
    "huge-oid": (_set(0, 4, OID_LIMIT), TypeError),
    "duplicate-node": (_duplicate_node, DuplicateNodeError),
    "bad-label": (_set(1, 5, 17), TypeError),
    "dangling": (_set(4, 3, 999_999), NodeNotFoundError),
    "non-int-endpoint": (_set(3, 2, 1.0), NodeNotFoundError),
    "duplicate-edge": (_duplicate_edge, DuplicateEdgeError),
    "into-root": (_into_root, RootError),
}


def _raised(build, columns) -> BaseException:
    with pytest.raises((TypeError, GraphError)) as caught:
        build(*columns, 0)
    return caught.value


class TestErrors:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_raises_what_the_call_raises(self, fault):
        corrupt, raised = FAULTS[fault]
        columns = _columns(_figure2())
        corrupt(columns)
        bulk = _raised(DataGraph.from_columns, columns)
        reference = _raised(per_call_graph, columns)
        assert type(bulk) is type(reference) is raised
        assert str(bulk) == str(reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_several_faults_raise_the_first_calls(self, seed):
        rng = random.Random(seed)
        columns = _columns(generate_xmark(SMOKE_XMARK).graph)
        for name in rng.sample(sorted(FAULTS), 3):
            FAULTS[name][0](columns)
        bulk = _raised(DataGraph.from_columns, columns)
        reference = _raised(per_call_graph, columns)
        assert (type(bulk), str(bulk)) == (type(reference), str(reference))

    def test_root_must_be_a_node_labelled_root(self):
        columns = _columns(_figure2())
        with pytest.raises(NodeNotFoundError):
            DataGraph.from_columns(*columns, root=12345)
        with pytest.raises(RootError):
            DataGraph.from_columns(*columns, root=1)

    def test_ragged_columns(self):
        with pytest.raises(ValueError):
            DataGraph.from_columns([1, 2], ["A"], [None, None], [], [], [])
        with pytest.raises(ValueError):
            DataGraph.from_columns([1], ["A"], [None], [1], [], [])

