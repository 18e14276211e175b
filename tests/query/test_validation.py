"""A(k) validation in layers: against two references, and its cost as counts.

An automaton of L steps is validated in label-pruned backward layers from
the candidates, closed under predecessors at each loop state, and one
forward pass from the root inside them (``repro.query.index_evaluator``).
Two statements, neither of them timed:

* **Differential.**  On XMark-smoke, the (cyclic) IMDB generator and
  seeded random cyclic graphs, at k = 0..3, every expression of the
  2000-walk pool (child-only, ``//x`` and ``/a//x``) and of two
  adversarial pools, child-only and descendant-axis, answers what
  :func:`~repro.query.evaluator.evaluate_on_graph` answers and what the
  validator it replaced answers — ``cone_validation``, kept in
  ``tests.query.test_cone_reference`` — with a dnode footprint equal to
  the layers written out from their definition (:func:`layers_of`),
  never outside the cone, and equal to it when only the last step
  descends.  Hand-built graphs cover what the generators do not: a
  candidate that is its own ancestor, IDREF in-edges into every layer,
  an unrooted cycle feeding the candidates and a loop layer, an
  unreachable twin of the reachable subtree, an element named ROOT, a
  rootless graph, and a ``//a/b`` graph whose footprint is strictly
  inside the cone.
* **Cost.**  Through a counting graph, label / ``iter_pred`` /
  ``iter_succ`` reads are bounded by the layers and their dnodes'
  degrees, and the dnodes read are the footprint; on the ``//a/b`` graph
  no ancestor of a parent that fails ``a`` is read; 1000 IDREF edges
  pointed at the candidates' ancestors from an unrelated subtree cost at
  most one label read each (the cone grows by those sources' whole
  ancestor cones); and ``/site/regions/africa`` reads the same on XMark
  at 1x and 4x counts.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SMOKE
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.query.automaton import as_nfa
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import EvalFootprint, evaluate_on_ak, evaluate_on_index
from repro.query.path_expression import WILDCARD
from repro.workload.random_graphs import random_cyclic
from repro.workload.xmark import generate_xmark

from tests.query.test_cone_reference import ancestors_of, cone_validation
from tests.query.test_index_kernel import CYCLIC, scaled_xmark, walk_pool

KS = (0, 1, 2, 3)

#: child-only expressions the walk pool never emits: wildcard steps, a
#: step no label passes (first, middle, last), a ROOT step, lengths 1..11
ADVERSARIAL = (
    "/*", "/site", "/nosuch", "/*/*", "/*/*/*/*", "/site/*/*/item", "/*/regions/*/item/*",
    "/site/nosuch/africa/item", "/nosuch/regions/africa/item", "/site/regions/africa/nosuch",
    "/site/people/person/*/*/*", "/site/*/person/name", "/ROOT", "/ROOT/site", "/site/ROOT",
    "/A/B/A/B", "/*/B/*/B/*", "/A/*/*/*/*/*/A", "/movies/movie/cast/actor/person/filmography",
    "/site/people/person/watches/watch/open_auction/bidder/personref/person/watches/watch",
)


#: descendant-axis expressions the walk pool never emits (it emits ``//x``
#: and ``/a//x`` only): wildcards under a loop, labels no dnode has, ROOT as
#: a label, two and three loop states, child steps after a loop, a loop
#: after child steps, and a missing step before one
DESCENDANT_ADVERSARIAL = (
    "//*", "//nosuch", "//ROOT", "/*//*", "/site//*//name", "//A//A", "//A//B//A",
    "//a/b/c", "//A/B/C", "/a/b//c", "/A/B//C", "/nosuch//a", "/nosuch//A",
    "//person/name", "//*/name", "/site//person//name", "//B/*//D", "//*//*/*",
    "/site/people//watch/open_auction", "//open_auction/bidder/personref/person",
)


def passes(test: str, label: str) -> bool:
    return test == WILDCARD or test == label


def layers_of(graph, query, candidates) -> list[set[int]]:
    """Layers L..0 from their definition, until one is empty: layer i-1 is
    the parents of layer i's dnodes that pass step i, and every ancestor
    of those when state i-1 loops."""
    nfa = as_nfa(query)
    layers = [set(candidates)]
    for state in range(nfa.accept - 1, -1, -1):
        test = nfa.advance[state][0]
        parents = {
            parent
            for w in layers[-1] if passes(test, graph.label(w))
            for parent in graph.iter_pred(w)
        }
        layers.append(ancestors_of(graph, parents) if state in nfa.loops else parents)
        if not layers[-1]:
            break
    return layers


def read_layers(query, layers) -> list[set[int]]:
    """The layers whose dnodes validation reads: L..1, and layer 0 when state 0 loops."""
    nfa = as_nfa(query)
    if 0 in nfa.loops and len(layers) == nfa.accept + 1:
        return layers
    return layers[: nfa.accept]


def expected_footprint(graph, query, candidates) -> set[int]:
    """The read layers plus the root once the forward pass starts."""
    layers = layers_of(graph, query, candidates)
    read = set().union(*read_layers(query, layers))
    if len(layers) == as_nfa(query).accept + 1 and graph.has_root and graph.root in layers[-1]:
        read.add(graph.root)
    return read


def only_the_last_step_descends(query) -> bool:
    """``//x``, ``/a//x``, ``/a/b//x``: shapes whose footprint is the cone."""
    nfa = as_nfa(query)
    return nfa.loops == {nfa.accept - 1}


def assert_validation_agrees(index, k, expression, where, all_reachable=True) -> None:
    graph = index.graph
    truth = evaluate_on_graph(graph, expression).matches
    cone_matches, cone, on_index, _ = cone_validation(index, expression)
    assert cone_matches == truth, (where, expression)
    footprint = EvalFootprint()
    report = evaluate_on_ak(index, k, expression, validate=True, footprint=footprint)
    assert report.matches == truth, (where, expression)
    if all_reachable:  # else A(k) is not exact unvalidated, whatever the length
        assert evaluate_on_ak(index, k, expression).matches == truth, (where, expression)
    if not on_index.matches:  # nothing to validate
        assert report == on_index and not footprint.dnodes
        return
    assert report.validated
    assert report.candidates_before_validation == len(on_index.matches)
    assert footprint.dnodes == expected_footprint(graph, expression, on_index.matches), (
        where, expression,
    )
    assert footprint.dnodes <= cone, (where, expression)
    if only_the_last_step_descends(expression):
        assert footprint.dnodes == cone, (where, expression)
    # the footprint is optional and changes nothing
    assert evaluate_on_ak(index, k, expression, validate=True) == report


def levels_of(graph: DataGraph):
    family = AkIndexFamily.build(graph, max(KS))
    return [(k, family.level_index(k)) for k in KS]


# ----------------------------------------------------------------------
# Differential: generators
# ----------------------------------------------------------------------


GENERATED = {"xmark": lambda: generate_xmark(SMOKE.xmark).graph, **CYCLIC}


@pytest.mark.parametrize("name", GENERATED)
def test_layers_equal_graph_and_cone_on_generated_graphs(name):
    graph = GENERATED[name]()
    pool = walk_pool(graph)
    child_only = [e for e in pool if "//" not in e]
    assert child_only and len(child_only) < len(pool)
    assert {e.startswith("//") for e in pool if e not in child_only} == {True, False}
    levels = levels_of(graph)
    for k, index in levels:
        for expression in (*pool, *ADVERSARIAL, *DESCENDANT_ADVERSARIAL):
            assert_validation_agrees(index, k, expression, (name, k))
    # the pools are not vacuous: validation removes something from an A(0)
    # answer (not on IMDB, whose labels name their depth: its cycles are the
    # point there)
    coarsest = levels[0][1]
    for expressions in (child_only, DESCENDANT_ADVERSARIAL):
        assert name == "imdb" or any(
            evaluate_on_ak(coarsest, 0, e, validate=False).matches
            != evaluate_on_graph(graph, e).matches
            for e in expressions
        )


def feed_from_an_unrooted_cycle(graph: DataGraph, rng: random.Random, length: int = 8) -> None:
    """A parentless cycle of *length* labelled dnodes with an edge from each
    of its first half into the graph: extra candidates no root path reaches,
    and extra ancestors for every loop layer below them."""
    targets = [w for w in sorted(graph.nodes()) if w != graph.root]
    ring = [graph.add_node(rng.choice(STEPS[:4])) for _ in range(length)]
    for source, target in zip(ring, ring[1:] + ring[:1]):
        graph.add_edge(source, target, EdgeKind.IDREF)
    for source in ring[: length // 2] if targets else ():
        graph.add_edge(source, rng.choice(targets), EdgeKind.IDREF)


STEPS = ("A", "B", "C", "D", WILDCARD, "Z")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=0, max_value=40),
    steps=st.lists(
        st.tuples(st.sampled_from(("/", "//")), st.sampled_from(STEPS)), min_size=1, max_size=6
    ),
    cycle=st.booleans(),
    k=st.sampled_from(KS),
)
def test_layers_equal_graph_and_cone_on_random_graphs(seed, nodes, extra, steps, cycle, k):
    rng = random.Random(seed)
    graph = random_cyclic(rng, nodes, extra)
    if cycle:
        feed_from_an_unrooted_cycle(graph, rng)
    index = AkIndexFamily.build(graph, k).level_index()
    expression = "".join(axis + test for axis, test in steps)
    assert_validation_agrees(index, k, expression, (seed, nodes, extra, cycle, k), not cycle)


# ----------------------------------------------------------------------
# Differential: what the generators do not build
# ----------------------------------------------------------------------


def chain(graph: DataGraph, parent: int, *labels: str) -> list[int]:
    nodes = []
    for label in labels:
        node = graph.add_node(label)
        graph.add_edge(parent, node)
        nodes.append(node)
        parent = node
    return nodes


def parent_failing_the_child_step():
    """``root -> a -> b`` beside ``root -> y -> y -> y -> c -> b``: for ``//a/b``
    the ``y`` chain is in b's cone and in no layer."""
    graph = DataGraph()
    a, b = chain(graph, graph.add_root(), "a", "b")
    *above, c = chain(graph, graph.root, "y", "y", "y", "c")
    graph.add_edge(c, b, EdgeKind.IDREF)
    return graph, a, b, c, above


def assert_exact_at_every_k(
    graph: DataGraph, expression: str, expected: set[int], all_reachable: bool = True
) -> None:
    assert evaluate_on_graph(graph, expression).matches == expected, expression
    for k, index in levels_of(graph):
        assert_validation_agrees(index, k, expression, k, all_reachable)


class TestHandBuiltGraphs:
    def test_a_candidate_that_is_its_own_ancestor(self):
        graph = DataGraph()
        a, b = chain(graph, graph.add_root(), "A", "B")
        graph.add_edge(b, a, EdgeKind.IDREF)  # root -> a -> b -> a -> ...
        lone = graph.add_node("B")  # a B no A leads to: A(0)'s false positive
        graph.add_edge(graph.root, lone)
        for length in range(1, 8):
            expression = "/" + "/".join("AB"[i % 2] for i in range(length))
            assert_exact_at_every_k(graph, expression, {b if length % 2 == 0 else a})
        assert_exact_at_every_k(graph, "/B/A", set())
        assert_exact_at_every_k(graph, "/*/*/*", {a})
        # a loop state idles round the cycle as often as it likes
        assert_exact_at_every_k(graph, "//A", {a})
        assert_exact_at_every_k(graph, "//B", {b, lone})
        assert_exact_at_every_k(graph, "//A/B", {b})
        assert_exact_at_every_k(graph, "/A//A", {a})
        assert_exact_at_every_k(graph, "//B//A", {a})
        assert_exact_at_every_k(graph, "//B/A//B/A", {a})
        assert_exact_at_every_k(graph, "/B//*", set())

    def test_idref_in_edges_into_every_layer(self):
        graph = DataGraph()
        s, r, n, item = chain(graph, graph.add_root(), "site", "regions", "namerica", "item")
        elsewhere = chain(graph, s, "people", "person", "watches", "watch")
        for source, target in zip(elsewhere, (s, r, n, item)):
            graph.add_edge(source, target, EdgeKind.IDREF)
        # an item only a watch points at: same label, no /site/regions/namerica above it
        stray = graph.add_node("item")
        graph.add_edge(elsewhere[-1], stray, EdgeKind.IDREF)
        assert_exact_at_every_k(graph, "/site/regions/namerica/item", {item})
        assert_exact_at_every_k(graph, "/site/people/person/watches/watch/item", {item, stray})
        assert_exact_at_every_k(graph, "/site/*/*/*/*/item", {item, stray})
        assert_exact_at_every_k(graph, "/site/people/site/regions/namerica/item", {item})
        assert_exact_at_every_k(graph, "//item", {item, stray})
        assert_exact_at_every_k(graph, "//namerica/item", {item})
        assert_exact_at_every_k(graph, "/site//watch//item", {item, stray})
        assert_exact_at_every_k(graph, "//person//regions/namerica", {n})
        assert_exact_at_every_k(graph, "//people//site/regions", {r})

    def test_an_unrooted_cycle_feeding_the_candidates_and_a_loop_layer(self):
        graph = DataGraph()
        site, regions, item = chain(graph, graph.add_root(), "site", "regions", "item")
        ring = [graph.add_node(label) for label in ("item", "regions", "X", "site")]
        for source, target in zip(ring, ring[1:] + ring[:1]):
            graph.add_edge(source, target, EdgeKind.IDREF)
        graph.add_edge(ring[2], item, EdgeKind.IDREF)  # into a candidate
        graph.add_edge(ring[3], regions, EdgeKind.IDREF)  # into //item's loop layer
        for expression in ("//item", "/site//item", "//regions/item", "//regions//item"):
            assert_exact_at_every_k(graph, expression, {item}, all_reachable=False)
        assert_exact_at_every_k(graph, "//X//item", set(), all_reachable=False)
        assert_exact_at_every_k(graph, "//site/regions", {regions}, all_reachable=False)
        assert_exact_at_every_k(graph, "//*", {site, regions, item}, all_reachable=False)
        # the ring's item is a candidate and the ring is in the loop layer:
        # read, never answered
        footprint = EvalFootprint()
        index = AkIndexFamily.build(graph, 0).level_index()
        report = evaluate_on_ak(index, 0, "//item", footprint=footprint)
        assert report.candidates_before_validation == 2 and report.matches == {item}
        assert set(ring) <= footprint.dnodes

    def test_a_child_step_after_a_loop_prunes_the_cone(self):
        graph, a, b, c, above = parent_failing_the_child_step()
        assert_exact_at_every_k(graph, "//a/b", {b})
        assert_exact_at_every_k(graph, "//*/b", {b})
        assert_exact_at_every_k(graph, "//y/c/b", {b})
        for k, index in levels_of(graph):
            footprint = EvalFootprint()
            evaluate_on_ak(index, k, "//a/b", validate=True, footprint=footprint)
            cone = cone_validation(index, "//a/b")[1]
            assert footprint.dnodes == {graph.root, a, b, c}
            assert cone == footprint.dnodes | set(above)  # strictly larger

    def test_an_unreachable_twin_of_the_reachable_subtree(self):
        graph = DataGraph()
        *_, c = chain(graph, graph.add_root(), "A", "B", "C")
        # parentless, ROOT-labelled, over the same A/B/C: bisimilar to the root at
        # every k, so every level of the family offers the twin's C as a candidate
        twin_root = graph.add_node(ROOT_LABEL)
        *_, twin_c = chain(graph, twin_root, "A", "B", "C")
        for k, index in levels_of(graph):
            loose = evaluate_on_ak(index, k, "/A/B/C", validate=False).matches
            assert loose == {c, twin_c}, k
        assert_exact_at_every_k(graph, "/A/B/C", {c}, all_reachable=False)
        assert_exact_at_every_k(graph, "/*/*/C", {c}, all_reachable=False)
        footprint = EvalFootprint()
        index = AkIndexFamily.build(graph, 1).level_index()
        evaluate_on_ak(index, 1, "/A/B/C", footprint=footprint)
        assert twin_root not in footprint.dnodes and graph.root in footprint.dnodes

    def test_an_element_named_root_below_the_root(self):
        graph = DataGraph()
        x, impostor, a = chain(graph, graph.add_root(), "x", ROOT_LABEL, "a")
        assert_exact_at_every_k(graph, "/a", set())
        assert_exact_at_every_k(graph, "/ROOT/a", set())
        assert_exact_at_every_k(graph, "/x/ROOT/a", {a})
        assert_exact_at_every_k(graph, "/x/ROOT", {impostor})
        assert_exact_at_every_k(graph, "/*/*/*", {a})
        assert_exact_at_every_k(graph, "//ROOT", {impostor})
        assert_exact_at_every_k(graph, "//ROOT/a", {a})
        assert_exact_at_every_k(graph, "//ROOT//a", {a})
        assert_exact_at_every_k(graph, "/x//a", {a})
        assert_exact_at_every_k(graph, "/ROOT//a", set())

    def test_a_rootless_graph_answers_nothing(self):
        graph = DataGraph()
        b = graph.add_node(ROOT_LABEL)
        chain(graph, b, "a", "b")
        for k, index in levels_of(graph):
            for expression in ("/a", "/a/b", "/ROOT/a", "/*", "//a", "//b", "//*", "/a//b"):
                report = evaluate_on_ak(index, k, expression, validate=True)
                assert report.matches == frozenset(), (k, expression)

    def test_length_one_at_k_zero(self):
        graph = DataGraph()
        (top,) = chain(graph, graph.add_root(), "A")
        chain(graph, top, "B", "A")  # a second A, two levels down
        index = AkIndexFamily.build(graph, 0).level_index()
        report = evaluate_on_ak(index, 0, "/A")
        assert report.validated and report.candidates_before_validation == 2
        assert report.matches == {top}


# ----------------------------------------------------------------------
# Cost: counts, not clocks
# ----------------------------------------------------------------------


class CountedGraph:
    """The evaluation surface of a graph, counting every read and keeping
    the dnodes read."""

    def __init__(self, graph):
        self.graph = graph
        self.reads: Counter = Counter()
        self.asked: dict[str, set[int]] = {"label": set(), "iter_pred": set(), "iter_succ": set()}

    @property
    def has_root(self) -> bool:
        return self.graph.has_root

    @property
    def root(self) -> int:
        return self.graph.root

    @property
    def dnodes(self) -> set[int]:
        return set().union(*self.asked.values())

    def label(self, w: int) -> str:
        self.reads["label"] += 1
        self.asked["label"].add(w)
        return self.graph.label(w)

    def iter_pred(self, w: int):
        parents = list(self.graph.iter_pred(w))
        self.reads["iter_pred"] += 1
        self.reads["edges"] += len(parents)
        self.asked["iter_pred"].add(w)
        return iter(parents)

    def iter_succ(self, w: int):
        children = list(self.graph.iter_succ(w))
        self.reads["iter_succ"] += 1
        self.reads["edges"] += len(children)
        self.asked["iter_succ"].add(w)
        return iter(children)


class CountedSurface:
    """*index* with a counting graph behind it."""

    def __init__(self, index):
        self.evaluation_tables = index.evaluation_tables
        self.graph = CountedGraph(index.graph)


def validation_reads(index, k, expression):
    """``(the counting graph after one forced validation, its report)``."""
    surface = CountedSurface(index)
    report = evaluate_on_ak(surface, k, expression, validate=True)
    assert report.matches == evaluate_on_graph(index.graph, expression).matches, expression
    return surface.graph, report


@pytest.fixture(scope="module")
def xmark() -> DataGraph:
    return scaled_xmark(1)


def test_reads_are_bounded_by_the_layers_and_their_degrees(xmark):
    index = AkIndexFamily.build(xmark, 2).level_index()
    pool = walk_pool(xmark)
    assert len([e for e in pool if "//" not in e]) > 40
    in_degree, out_degree = xmark.in_degree, xmark.out_degree
    for expression in (*pool, *ADVERSARIAL, *DESCENDANT_ADVERSARIAL):
        candidates = evaluate_on_index(index, expression).matches
        counted, report = validation_reads(index, 2, expression)
        reads = counted.reads
        if not candidates:
            assert not reads
            continue
        nfa = as_nfa(expression)
        layers = layers_of(xmark, expression, candidates)  # layers[m] is layer L - m
        looped = [layers[nfa.accept - j] for j in nfa.loops if nfa.accept - j < len(layers)]
        members = sum(len(layer) for layer in layers)
        closed = sum(len(layer) for layer in looped)
        # a layer member's predecessors are read at most twice (for the
        # closure of a loop layer, and when it passes its step), its
        # successors at most once (when the forward pass expands it)
        degrees = sum(in_degree(w) + out_degree(w) for layer in layers for w in layer)
        degrees += sum(in_degree(w) for layer in looped for w in layer)
        assert reads["label"] <= members, expression
        assert reads["iter_pred"] <= members + closed, expression
        assert reads["iter_succ"] <= members, expression
        assert reads["edges"] <= degrees, expression
        # what is read is the footprint, and nothing else
        assert counted.dnodes == expected_footprint(xmark, expression, candidates), expression
        # and the report counts them: a visit per member of a read layer (its
        # label read, unless the step is a wildcard) and per forward
        # expansion, an edge per adjacency entry
        on_index = evaluate_on_index(index, expression)
        labelled = sum(len(layer) for layer in read_layers(expression, layers))
        assert report.edges_followed - on_index.edges_followed == reads["edges"]
        assert report.nodes_visited - on_index.nodes_visited == labelled + reads["iter_succ"]
        assert reads["label"] <= labelled


def test_no_ancestor_of_a_parent_that_fails_the_child_step_is_read():
    graph, a, b, c, above = parent_failing_the_child_step()
    for k, index in levels_of(graph):
        counted, report = validation_reads(index, k, "//a/b")
        assert report.matches == {b}
        # c's label is read and fails step a; nothing above it is asked for
        assert c in counted.asked["label"] and c not in counted.asked["iter_pred"]
        assert not counted.dnodes & set(above)
        assert counted.dnodes == {graph.root, a, b, c}


def test_in_edges_from_an_unrelated_subtree_cost_one_label_read_each():
    graph = scaled_xmark(1)
    expression = "/site/regions/namerica/item"
    (site,) = graph.iter_succ(graph.root)
    (regions,) = (w for w in graph.iter_succ(site) if graph.label(w) == "regions")
    (namerica,) = (w for w in graph.iter_succ(regions) if graph.label(w) == "namerica")
    (people,) = (w for w in graph.iter_succ(site) if graph.label(w) == "people")

    def measure():
        index = AkIndexFamily.build(graph, 2).level_index()
        counted, report = validation_reads(index, 2, expression)
        return counted.reads, report.matches, cone_validation(index, expression)[1]

    before, matches_before, cone_before = measure()
    # deep inside the people subtree and not above any candidate yet:
    # grandchildren of person elements outside the cone
    deep = [
        leaf
        for person in graph.iter_succ(people)
        for child in graph.iter_succ(person)
        for leaf in graph.iter_succ(child)
        if leaf not in cone_before
    ][:1000]
    assert len(deep) == 1000
    for source, target in zip(deep, (site, regions, namerica) * 334):
        graph.add_edge(source, target, EdgeKind.IDREF)
    after, matches_after, cone_after = measure()
    assert matches_after == matches_before and len(matches_before) > 50
    # a source under `regions` or `namerica` has its label read and fails the
    # step; one under `site` sits in layer 0, which reads nothing
    assert after["label"] - before["label"] == 666
    assert after["iter_pred"] == before["iter_pred"]
    assert after["iter_succ"] == before["iter_succ"]
    assert after["edges"] - before["edges"] == 1000  # three longer predecessor lists
    # the cone takes in every source and what is above it
    assert len(cone_after - cone_before) > 1000


def test_an_expression_whose_layers_do_not_grow_reads_the_same_at_four_times_the_graph(xmark):
    expression = "/site/regions/africa"
    reads = {}
    for factor, graph in ((1, xmark), (4, scaled_xmark(4))):
        index = AkIndexFamily.build(graph, 2).level_index()
        counted, report = validation_reads(index, 2, expression)
        reads[factor] = counted.reads
        assert report.validated and len(report.matches) == 1
    assert graph.num_nodes > 3.5 * xmark.num_nodes
    assert reads[1] == reads[4] and reads[1]["label"] == 3
    # a path through the growing part does grow: the test can tell
    grew = {
        factor: validation_reads(
            AkIndexFamily.build(graph, 2).level_index(), 2, "/site/regions/africa/item"
        )[0].reads["label"]
        for factor, graph in ((1, xmark), (4, graph))
    }
    assert grew[4] > 3 * grew[1]
