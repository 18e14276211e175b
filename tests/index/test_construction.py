"""Unit tests for index construction (signature iteration + worklist)."""

from __future__ import annotations

import random

import pytest

from repro.corpus.builder import CorpusBuilder
from repro.experiments.config import SMOKE
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.index.construction import (
    ak_class_maps,
    bisimulation_partition,
    blocks_of,
    label_partition,
    partition_index,
    stabilize,
    stabilize_from_labels,
)
from repro.index.stability import is_minimal_1index, is_valid_1index
from repro.obs import InMemorySink, observed
from repro.workload.imdb import generate_imdb
from repro.workload.random_graphs import random_cyclic, random_dag, random_tree
from repro.workload.xmark import generate_xmark

from tests.index.signature_reference import (
    reference_ak_maps,
    reference_rounds,
    refine_by_signature,
)


def as_blocks(class_of: dict[int, int]) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for node, cls in class_of.items():
        groups.setdefault(cls, set()).add(node)
    return {frozenset(b) for b in groups.values()}


class TestLabelPartition:
    def test_groups_by_label(self, figure2_graph):
        blocks = as_blocks(label_partition(figure2_graph))
        assert len(blocks) == 5  # ROOT A D B C
        for block in blocks:
            assert len({figure2_graph.label(w) for w in block}) == 1

    def test_empty_graph(self):
        assert label_partition(DataGraph()) == {}


class TestSignatureRefinement:
    """The per-round reference's own properties (it is the engine's oracle)."""

    def test_one_round_splits_by_parents(self, figure2_graph):
        level0 = label_partition(figure2_graph)
        level1 = refine_by_signature(figure2_graph, level0)
        # B-nodes split: {3,4} have A-parent only, {5} has A and D parents
        b_nodes = figure2_graph.nodes_with_label("B")
        classes = {level1[w] for w in b_nodes}
        assert len(classes) == 2

    def test_refinement_is_monotone(self, figure4_graph):
        current = label_partition(figure4_graph)
        for _ in range(5):
            refined = refine_by_signature(figure4_graph, current)
            # every refined class sits inside one current class
            for block in as_blocks(refined):
                assert len({current[w] for w in block}) == 1
            current = refined

    def test_fixpoint_reached(self, figure2_graph):
        fixed = bisimulation_partition(figure2_graph)
        again = refine_by_signature(figure2_graph, fixed)
        assert as_blocks(fixed) == as_blocks(again)


class TestBisimulationPartition:
    def test_figure2_minimum(self, figure2_graph):
        blocks = as_blocks(bisimulation_partition(figure2_graph))
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [1, 1, 1, 1, 1, 2, 2]  # {3,4} and {6,7} merge

    def test_tree_groups_by_root_path(self):
        # In a tree, two nodes are bisimilar iff their root label paths match.
        b = (
            GraphBuilder()
            .edge("root", "a1")
            .edge("root", "a2")
            .edge("a1", "b1")
            .edge("a2", "b2")
        )
        b.node("a1x", "a1")  # same label as key a1? keys are labels here
        g = (
            GraphBuilder()
            .node("x1", "A").node("x2", "A").node("y1", "B").node("y2", "B")
            .edge("root", "x1").edge("root", "x2")
            .edge("x1", "y1").edge("x2", "y2")
            .build()
        )
        blocks = as_blocks(bisimulation_partition(g))
        assert len(blocks) == 3  # root, {x1,x2}, {y1,y2}

    def test_cycle_handled(self, figure4_graph):
        blocks = as_blocks(bisimulation_partition(figure4_graph))
        # minimum folds the two parallel 2-cycles together
        assert len(blocks) == 3

    def test_max_rounds_cap(self, figure4_graph):
        capped = bisimulation_partition(figure4_graph, max_rounds=1)
        assert len(as_blocks(capped)) <= len(
            as_blocks(bisimulation_partition(figure4_graph))
        )


class TestAkClassMaps:
    def test_level_zero_is_label_partition(self, figure2_graph):
        maps = ak_class_maps(figure2_graph, 2)
        assert as_blocks(maps[0]) == as_blocks(label_partition(figure2_graph))

    def test_each_level_refines_previous(self, figure4_graph):
        maps = ak_class_maps(figure4_graph, 4)
        for i in range(1, 5):
            for block in as_blocks(maps[i]):
                assert len({maps[i - 1][w] for w in block}) == 1

    def test_high_k_reaches_bisimulation_on_dag(self):
        rng = random.Random(1)
        g = random_dag(rng, 30, 8)
        depth = 40
        maps = ak_class_maps(g, depth)
        assert as_blocks(maps[depth]) == as_blocks(bisimulation_partition(g))

    def test_negative_k_rejected(self, figure2_graph):
        with pytest.raises(ValueError):
            ak_class_maps(figure2_graph, -1)


class TestWorklistEngine:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("family", ["tree", "dag", "cyclic"])
    def test_worklist_matches_signature_iteration(self, seed, family):
        rng = random.Random(seed)
        if family == "tree":
            g = random_tree(rng, 30)
        elif family == "dag":
            g = random_dag(rng, 30, 10)
        else:
            g = random_cyclic(rng, 30, 10)
        via_signature = as_blocks(bisimulation_partition(g))
        via_worklist = stabilize_from_labels(g).as_blocks()
        assert via_signature == via_worklist

    @pytest.mark.parametrize("choice", ["small", "first"])
    def test_splitter_choice_does_not_change_result(self, figure2_graph, choice):
        index = partition_index(figure2_graph, label_partition(figure2_graph))
        with_parents: dict[int, set[int]] = {}
        for node in figure2_graph.nodes():
            if figure2_graph.in_degree(node) > 0:
                with_parents.setdefault(index.inode_of(node), set()).add(node)
        for inode, members in list(with_parents.items()):
            if len(members) < index.extent_size(inode):
                index.split_off(inode, members)
        stabilize(index, [list(index.inodes())], splitter_choice=choice)
        assert index.as_blocks() == as_blocks(bisimulation_partition(figure2_graph))

    def test_unknown_splitter_choice_rejected(self, figure2_graph):
        index = partition_index(figure2_graph, label_partition(figure2_graph))
        with pytest.raises(ValueError):
            stabilize(index, [], splitter_choice="biggest")

    def test_empty_queue_is_noop(self, figure2_graph):
        index = partition_index(figure2_graph, bisimulation_partition(figure2_graph))
        before = index.as_blocks()
        stats = stabilize(index, [])
        assert index.as_blocks() == before
        assert stats.splits == 0

    def test_result_is_valid_and_minimal(self, figure4_graph):
        index = stabilize_from_labels(figure4_graph)
        assert is_valid_1index(index)
        assert is_minimal_1index(index)

    def test_self_loop_graph(self):
        g = DataGraph()
        root = g.add_root()
        a = g.add_node("A")
        b = g.add_node("A")
        g.add_edge(root, a)
        g.add_edge(root, b)
        g.add_edge(a, a)  # self-loop distinguishes a from b
        index = stabilize_from_labels(g)
        assert index.as_blocks() == as_blocks(bisimulation_partition(g))


class TestPartitionIndex:
    def test_blocks_roundtrip(self, figure2_graph):
        classes = bisimulation_partition(figure2_graph)
        index = partition_index(figure2_graph, classes)
        assert index.as_blocks() == as_blocks(classes)
        assert {frozenset(b) for b in blocks_of(classes)} == as_blocks(classes)


# ----------------------------------------------------------------------
# The refinement engine against the per-round reference
# ----------------------------------------------------------------------


def recycled_slot_graph() -> DataGraph:
    """Deletions, then additions: slot order is no longer oid order."""
    rng = random.Random(7)
    g = random_cyclic(rng, 40, 12)
    doomed = [w for w in g.nodes() if w != g.root][5:25:2]
    for w in doomed:
        g.remove_node(w)
    survivors = list(g.nodes())
    for i in range(len(doomed)):
        node = g.add_node(rng.choice(("A", "B", "C")))
        g.add_edge(rng.choice(survivors), node)
        if i % 3 == 0:
            g.add_edge(node, rng.choice(survivors[1:]))
        survivors.append(node)
    return g


def self_loop_graph() -> DataGraph:
    g = DataGraph()
    root = g.add_root()
    a, b = g.add_node("A"), g.add_node("A")
    g.add_edge(root, a)
    g.add_edge(root, b)
    g.add_edge(a, a)
    return g


def root_only_graph() -> DataGraph:
    g = DataGraph()
    g.add_root()
    return g


def rootless_forest() -> DataGraph:
    """The shape ``add_subgraph`` refines: no ROOT, several trees, oids far from 0."""
    g = DataGraph()
    for base in (2000, 3000):
        top = g.add_node("S", oid=base)
        for i in range(1, 4):
            child = g.add_node("A" if i % 2 else "B", oid=base + i)
            g.add_edge(top, child)
            leaf = g.add_node("C", oid=base + 10 + i)
            g.add_edge(child, leaf)
    return g


def corpus_graph() -> DataGraph:
    builder = CorpusBuilder()
    builder.add_all(generate_xmark(SMOKE.xmark).as_documents(8))
    graph, _ = builder.build()
    return graph


GRAPHS = {
    "figure2": lambda request: request.getfixturevalue("figure2_graph"),
    "figure4": lambda request: request.getfixturevalue("figure4_graph"),
    "self-loop": lambda request: self_loop_graph(),
    "empty": lambda request: DataGraph(),
    "root-only": lambda request: root_only_graph(),
    "rootless-forest": lambda request: rootless_forest(),
    "recycled-slots": lambda request: recycled_slot_graph(),
    "random-dag": lambda request: random_dag(random.Random(3), 60, 25),
    "xmark-smoke": lambda request: generate_xmark(SMOKE.xmark).graph,
    "imdb-smoke": lambda request: generate_imdb(SMOKE.imdb).graph,
    "corpus-smoke": lambda request: corpus_graph(),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph_and_rounds(request):
    graph = GRAPHS[request.param](request)
    return graph, reference_rounds(graph)


class TestRefinementEngine:
    """Class maps equal the reference's: values *and* key order."""

    def test_every_round_is_the_reference_round(self, graph_and_rounds):
        graph, maps = graph_and_rounds
        fixpoint = len(maps) - 1
        for rounds in range(1, fixpoint + 1):
            got = bisimulation_partition(graph, max_rounds=rounds)
            assert list(got.items()) == list(maps[rounds].items()), rounds
        assert list(bisimulation_partition(graph).items()) == list(maps[-1].items())

    def test_ak_levels_are_the_reference_levels(self, graph_and_rounds):
        graph, maps = graph_and_rounds
        k = len(maps) + 1  # two levels past the fixpoint
        levels = [list(level.items()) for level in ak_class_maps(graph, k)]
        assert levels == [list(level.items()) for level in reference_ak_maps(graph, k)]

    def test_rounds_and_classes_are_the_reference_counts(self, graph_and_rounds):
        graph, maps = graph_and_rounds
        sink = InMemorySink()
        with observed(sink) as obs:
            bisimulation_partition(graph)
        (span,) = sink.spans("construct.bisim_partition")
        assert obs.metrics.counter("construct.bisim_rounds").value == len(maps) - 1
        assert span["attrs"]["rounds"] == len(maps) - 1
        assert span["attrs"]["classes"] == len(set(maps[-1].values()))
        assert "truncated" not in span["attrs"]

    def test_a_capped_run_says_it_was_truncated(self, figure2_graph):
        sink = InMemorySink()
        with observed(sink):
            bisimulation_partition(figure2_graph, max_rounds=1)
        (span,) = sink.spans("construct.bisim_partition")
        assert span["attrs"]["rounds"] == 1 and span["attrs"]["truncated"] is True

    def test_ids_follow_slot_order_not_oid_order(self):
        g = DataGraph()
        root = g.add_root()
        doomed = g.add_node("A")
        b = g.add_node("B")
        g.remove_node(doomed)
        c = g.add_node("C")  # takes the freed slot
        assert list(g.nodes()) == [root, b, c]
        assert list(label_partition(g).items()) == [(root, 0), (c, 1), (b, 2)]
        g.add_edge(root, b)
        g.add_edge(root, c)
        for class_map in (bisimulation_partition(g), *ak_class_maps(g, 2)):
            assert list(class_map) == [root, c, b]

    def test_xmark1_reaches_the_fixpoint_in_eighteen_rounds(self):
        graph = generate_xmark().graph
        with observed() as obs:
            classes = bisimulation_partition(graph)
        assert obs.metrics.counter("construct.bisim_rounds").value == 18
        assert list(classes.items()) == list(reference_rounds(graph)[-1].items())
