"""The index-evaluation kernel against an in-test reference, and its cost as counts.

Four statements, none of them timed:

* **Differential.**  :func:`reference_evaluation` below walks the
  automaton per iedge with a worklist of state sets, written against each
  surface's *public* methods (``isucc`` / ``label_of`` / ``extent``) and
  seeded at the inode that holds the root, found by scanning extents.  It
  decides the matches and the inode footprint, and derives both effort
  counters from its own state sets: one visit per (inode, state) pair,
  each reading that inode's iedges.  The kernel must agree with it on all
  four for every expression of a 2000-walk pool, on the live
  :class:`StructuralIndex`, the published :class:`FrozenIndex` and every
  :class:`LadderLevel`, at every version of a seeded update stream —
  which also compares the seed an ``evolve`` carried with a fresh
  ``capture``'s at each version — and on the cyclic generated graphs
  (IMDB and six seeded random ones) at k = 0..3, where a loop layer's
  closure runs round the index's cycles.
* **Only the root seeds.**  A dnode that merely carries the ROOT label is
  not a seed on any surface (the parent commit seeded by label scan and
  lost 1-index precision on ``root → x → ROOT' → a``).
* **O(path).**  No served query iterates the index, and ``/site`` reads
  the same number of table entries on XMark(1) as on XMark at 4x counts.
* **No ``PathNfa.step``.**  The kernel builds one inode layer per
  automaton state with set operations: an automaton of the test's own
  whose ``step`` fails is evaluated unharmed, each inode's iedges are read
  exactly once per state it holds, and the automata shared through the
  ``as_nfa`` LRU come out of concurrent evaluations as they went in.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

from repro.adaptive.ladder import LadderLevel, build_ladder_state
from repro.adaptive.service import AdaptiveConfig, AdaptiveIndexService
from repro.experiments.config import SMOKE
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import EvalFootprint, evaluate_on_ak, evaluate_on_index
from repro.service import IndexService, ServiceConfig
from repro.service.queue import Update
from repro.service.snapshot import FrozenIndex, IndexSnapshot
from repro.workload.imdb import generate_imdb
from repro.workload.queries import QueryWorkload
from repro.workload.random_graphs import random_cyclic
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

K = 3
LEVELS = (0, 1, 2)
SMALL = XMarkConfig(
    num_items=12, num_persons=16, num_open_auctions=10,
    num_closed_auctions=6, num_categories=4,
)


def scaled_xmark(factor: int) -> DataGraph:
    base = XMarkConfig()
    return generate_xmark(XMarkConfig(
        num_items=factor * base.num_items,
        num_persons=factor * base.num_persons,
        num_open_auctions=factor * base.num_open_auctions,
        num_closed_auctions=factor * base.num_closed_auctions,
        num_categories=factor * base.num_categories,
    )).graph


#: State sets the walk pool never produces — it emits child-only paths and
#: at most one ``//``, no ``*``: three and more states held at once,
#: wildcard rows, labels the graph lacks, and child paths of 11 steps, one
#: running off the tree and one going twice round the IDREF cycle.
ADVERSARIAL = (
    "//*", "/*/*/*", "//*//*//*//*", "//name//name",
    "//listitem//listitem//listitem", "/site//*//name", "//*/name",
    "/*//*/*//bold", "//parlist//*//parlist//*", "//nosuch", "/site/nosuch//name",
    "/site/regions/africa/item/description/parlist/listitem/text/bold/keyword/emph",
    "/site/people/person/watches/watch/open_auction/bidder/personref/person/watches/watch",
    "//person//*//person//*", "/ROOT", "//ROOT", "*",
)


def walk_pool(graph: DataGraph) -> list[str]:
    """The distinct expressions of a 2000-walk workload (the bench's pool)."""
    return sorted(set(QueryWorkload.generate(graph, count=2000, max_depth=4).expressions))


def holder_of_root(surface) -> list[int]:
    """The seed, found the slow way: the inode whose extent holds the root."""
    graph = surface.graph
    if not graph.has_root:
        return []
    return [i for i in surface.inodes() if graph.root in surface.extent(i)]


def reference_states(surface, query, roots=None) -> tuple[dict[int, frozenset[int]], set[int]]:
    """A per-iedge worklist on the public surface: every inode's state set,
    and every inode whose label or iedges it read."""
    nfa = as_nfa(query)
    if roots is None:
        roots = holder_of_root(surface)
    states_of = {inode: frozenset({nfa.start}) for inode in roots}
    queue, read = deque(roots), set(roots)
    while queue:
        inode = queue.popleft()
        current = states_of[inode]
        for child in surface.isucc(inode):
            read.add(child)
            advanced = nfa.step(current, surface.label_of(child))
            known = states_of.get(child, frozenset())
            if advanced and known | advanced != known:
                states_of[child] = known | advanced
                queue.append(child)
    return states_of, read


def reference_evaluation(surface, query, roots=None):
    """What the kernel reports, decided per iedge: the matches and the
    footprint, and the effort counters derived from the state sets — one
    visit per (inode, state) pair, and each of those reads its iedges."""
    nfa = as_nfa(query)
    states_of, read = reference_states(surface, nfa, roots)
    matches: set[int] = set()
    for inode, states in states_of.items():
        if nfa.accepts_states(states):
            matches |= surface.extent(inode)
    visited = sum(map(len, states_of.values()))
    followed = sum(len(states) * len(list(surface.isucc(i))) for i, states in states_of.items())
    return frozenset(matches), visited, followed, read


def assert_kernel_matches_reference(surface, pool, where, truth=None) -> None:
    """*truth*: the graph's own answers to some of the expressions, for a
    precise surface."""
    truth = truth or {}
    roots = holder_of_root(surface)
    assert list(surface.evaluation_tables()[0]) == roots, where
    for expression in (*pool, *ADVERSARIAL):
        footprint = EvalFootprint()
        report = evaluate_on_index(surface, expression, footprint=footprint)
        got = (report.matches, report.nodes_visited, report.edges_followed, footprint.inodes)
        assert got == reference_evaluation(surface, expression, roots), (where, expression)
        assert not footprint.dnodes
        if expression in truth:
            assert report.matches == truth[expression], (where, expression)
    for expression in pool[::10]:  # the footprint is optional and changes nothing
        bare = evaluate_on_index(surface, expression)
        with_footprint = evaluate_on_index(surface, expression, footprint=EvalFootprint())
        assert bare == with_footprint, (where, expression)


# ----------------------------------------------------------------------
# Differential: every surface, every version of a served stream
# ----------------------------------------------------------------------


def start_service(kind: str, family: str):
    graph = generate_xmark(SMALL).graph
    config = ServiceConfig(family=family, k=K, batch_max_ops=8)
    if kind == "plain":
        return IndexService(graph, config)
    return AdaptiveIndexService(
        graph, config, AdaptiveConfig(levels=LEVELS, retune_every=0)
    )


def surfaces_of(service) -> dict:
    """Every evaluation surface of the service's current version, by name."""
    snapshot, guarded = service.snapshot, service.guarded
    surfaces = {"frozen": snapshot.index}
    if service.config.family == "one":
        surfaces["live"] = guarded.index
        return surfaces
    family = guarded.family
    ladder = getattr(service, "_ladder", None) or build_ladder_state(
        family, snapshot.index, snapshot.version, LEVELS
    )
    for level in LEVELS:
        view = surfaces[f"ladder A({level})"] = ladder.level_view(level)
        assert isinstance(view, LadderLevel)
        assert ladder.root_tokens[level] == frozenset(view.roots)
    assert ladder.root_tokens[K] == frozenset(snapshot.index.roots)
    for level in (0, K):
        surfaces[f"live A({level})"] = family.level_index(level)
    return surfaces


def fresh_capture(service) -> IndexSnapshot:
    return IndexSnapshot.capture(0, service.graph, service.structure)


def check_version(service, pool) -> None:
    version = service.version
    fresh = fresh_capture(service)
    # the seed an evolve carried is the seed a cold capture reads
    assert service.snapshot.index.roots == fresh.index.roots, version
    assert service.snapshot.fingerprint() == fresh.fingerprint(), version
    exact = None
    if service.config.family == "one":  # precise: the index answer is the graph's
        graph = service.snapshot.graph
        exact = {e: evaluate_on_graph(graph, e).matches for e in ADVERSARIAL}
    for name, surface in surfaces_of(service).items():
        assert_kernel_matches_reference(surface, pool, (version, name), exact)
    for expression in pool[::7]:  # and what is served is the graph's answer
        truth = evaluate_on_graph(service.snapshot.graph, expression).matches
        assert service.query(expression).matches == truth, (version, expression)


@pytest.mark.parametrize("family", ["one", "ak"])
@pytest.mark.parametrize("kind", ["plain", "adaptive"])
def test_kernel_equals_reference_at_every_version(kind, family):
    service = start_service(kind, family)
    graph = service.graph
    pool = walk_pool(graph)
    assert len(pool) > 100
    check_version(service, pool)

    def commit(*updates, full_capture=False):
        before = service.version
        for update in updates:
            service.submit(update)
        if full_capture:
            service._touched.mark_all()  # what a degrade-rebuild leaves behind
        service.drain()
        assert service.version > before
        check_version(service, pool)

    workload = MixedUpdateWorkload.prepare(graph, seed=17)
    stream = (
        Update.insert_edge(s, t, EdgeKind.IDREF) if op == "insert" else Update.delete_edge(s, t)
        for op, s, t in workload.steps(16, validate=False)
    )
    for _ in range(3):
        commit(*islice(stream, 4))
    root = graph.root
    site = next(iter(graph.iter_succ(root)))
    # a child under the root: the seed's own iedges change
    commit(Update.insert_node(root, "annex"))
    # a second ROOT-labelled dnode; orphaned it is bisimilar to the root and
    # merges into the seed inode, re-attached it splits out again (on the
    # 1-index the root moves to a fresh inode id — the carried seed must follow)
    commit(Update.insert_node(site, ROOT_LABEL))
    (impostor,) = (w for w in graph.nodes_with_label(ROOT_LABEL) if w != root)
    seed_before = service.snapshot.index.roots
    commit(Update.delete_edge(site, impostor))
    (seed,) = service.snapshot.index.roots
    assert service.snapshot.index.extent(seed) == {root, impostor}
    commit(Update.insert_edge(site, impostor, EdgeKind.TREE))
    (seed,) = service.snapshot.index.roots
    assert service.snapshot.index.extent(seed) == {root}
    if family == "one":
        assert service.snapshot.index.roots != seed_before
    commit(*islice(stream, 4), full_capture=True)
    for _ in range(2):
        commit(*islice(stream, 4))
    service.check()
    service.close()


#: The cyclic generated graphs of the validation differential: IMDB's
#: clustered references and six seeded random graphs over labels A..D.
CYCLIC = {
    "imdb": lambda: generate_imdb(SMOKE.imdb).graph,
    **{
        f"cyclic-{seed}": lambda seed=seed: random_cyclic(random.Random(seed), 40, 25)
        for seed in range(6)
    },
}

#: Loop layers the random graphs' walk pool never builds: two and six loop
#: states, a child step between loops, wildcards inside a closure.
CYCLIC_ADVERSARIAL = (
    "//A//A", "//A//B//A", "/*//*/*", "//B/*//D", "//A/B//C", "//*//*//*//*//*//*",
)


@pytest.mark.parametrize("name", CYCLIC)
def test_kernel_equals_reference_on_cyclic_graphs(name):
    graph = CYCLIC[name]()
    pool = [*walk_pool(graph), *CYCLIC_ADVERSARIAL]
    truth = {e: evaluate_on_graph(graph, e).matches for e in (*pool, *ADVERSARIAL)}
    index = OneIndex.build(graph)
    for where, surface in (("live", index), ("frozen", IndexSnapshot.capture(0, graph, index).index)):
        assert_kernel_matches_reference(surface, pool, (name, where), truth)
    family = AkIndexFamily.build(graph, K)
    snapshot = IndexSnapshot.capture(0, graph, family)
    ladder = build_ladder_state(family, snapshot.index, 0, LEVELS)
    surfaces = {f"live A({k})": family.level_index(k) for k in range(K + 1)}
    surfaces |= {f"ladder A({level})": ladder.level_view(level) for level in LEVELS}
    surfaces[f"frozen A({K})"] = snapshot.index
    for where, surface in surfaces.items():
        assert_kernel_matches_reference(surface, pool, (name, where))


# ----------------------------------------------------------------------
# Only the root seeds an evaluation
# ----------------------------------------------------------------------


def impostor_graph() -> tuple[DataGraph, int]:
    """``root → x → ROOT' → a``: an element named ROOT below the real root."""
    graph = DataGraph()
    root = graph.add_root()
    x = graph.add_node("x")
    impostor = graph.add_node(ROOT_LABEL)
    a = graph.add_node("a")
    graph.add_edge(root, x)
    graph.add_edge(x, impostor)
    graph.add_edge(impostor, a)
    return graph, a


#: (expression, whether it matches the ``a`` below the impostor)
IMPOSTOR_QUERIES = (("/a", False), ("/ROOT/a", False), ("/x/ROOT/a", True), ("//a", True))


class TestOnlyTheRootSeeds:
    @pytest.mark.parametrize("expression,matches", IMPOSTOR_QUERIES)
    def test_live_and_captured_one_index(self, expression, matches):
        graph, a = impostor_graph()
        expected = frozenset({a}) if matches else frozenset()
        assert evaluate_on_graph(graph, expression).matches == expected
        index = OneIndex.build(graph)
        assert evaluate_on_index(index, expression).matches == expected
        snapshot = IndexSnapshot.capture(0, graph, index)
        assert evaluate_on_index(snapshot.index, expression).matches == expected
        assert snapshot.evaluate(expression).matches == expected

    @pytest.mark.parametrize("expression,matches", IMPOSTOR_QUERIES)
    def test_ak_leaf_and_every_ladder_level(self, expression, matches):
        graph, a = impostor_graph()
        expected = frozenset({a}) if matches else frozenset()
        family = AkIndexFamily.build(graph, K)
        snapshot = IndexSnapshot.capture(0, graph, family)
        assert snapshot.evaluate(expression).matches == expected
        ladder = build_ladder_state(family, snapshot.index, 0, LEVELS)
        for level in LEVELS + (K,):
            view = ladder.level_view(level)
            assert evaluate_on_ak(view, level, expression).matches == expected, level
            loose = evaluate_on_ak(view, level, expression, validate=False).matches
            assert loose >= expected  # safe at every level, A(0) included
            live = family.level_index(level)
            assert evaluate_on_ak(live, level, expression).matches == expected, level
        # A(0) keeps both ROOT dnodes in one class: still safe, validation cleans up
        (seed,) = ladder.level_view(0).roots
        assert len(ladder.level_view(0).extent(seed)) == 2
        # from A(1) up the seed class is the root alone, so /a is exact unvalidated
        assert not evaluate_on_ak(ladder.level_view(1), 1, "/a", validate=False).matches

    @pytest.mark.parametrize("family", ["one", "ak"])
    @pytest.mark.parametrize("kind", ["plain", "adaptive"])
    def test_served_with_the_impostor_added_by_later_batches(self, kind, family):
        graph = DataGraph()
        root = graph.add_root()
        x = graph.add_node("x")
        graph.add_edge(root, x)
        config = ServiceConfig(family=family, k=K)
        if kind == "plain":
            service = IndexService(graph, config)
        else:
            service = AdaptiveIndexService(
                graph, config, AdaptiveConfig(levels=LEVELS, audit=True)
            )
        assert not service.query("/a").matches  # (and, adaptive, now cached)
        service.submit(Update.insert_node(x, ROOT_LABEL))
        service.flush()
        (impostor,) = (w for w in graph.nodes_with_label(ROOT_LABEL) if w != root)
        service.submit(Update.insert_node(impostor, "a"))
        service.flush()
        (a,) = graph.nodes_with_label("a")
        for _ in range(2):  # second pass: the adaptive cache's answer
            for expression, matches in IMPOSTOR_QUERIES:
                expected = frozenset({a}) if matches else frozenset()
                assert service.query(expression).matches == expected, expression
                assert service.snapshot.evaluate(expression).matches == expected
        service.check()
        service.close()

    def test_a_rootless_graph_answers_nothing(self):
        graph = DataGraph()
        a, b = graph.add_node("a"), graph.add_node(ROOT_LABEL)
        graph.add_edge(b, a)
        index = OneIndex.build(graph)
        family = AkIndexFamily.build(graph, K)
        one = IndexSnapshot.capture(0, graph, index)
        ak = IndexSnapshot.capture(0, graph, family)
        ladder = build_ladder_state(family, ak.index, 0, LEVELS)
        surfaces = [index, one.index, ak.index, *(ladder.level_view(j) for j in LEVELS)]
        for surface in surfaces:
            assert surface.evaluation_tables()[0] == ()
            for expression in ("/a", "//a", "/ROOT/a"):
                footprint = EvalFootprint()
                report = evaluate_on_index(surface, expression, footprint=footprint)
                assert report.matches == frozenset() and report.nodes_visited == 0
                assert not footprint.inodes
        assert all(not tokens for tokens in ladder.root_tokens.values())


# ----------------------------------------------------------------------
# O(path): counts, not clocks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", ["one", "ak"])
@pytest.mark.parametrize("kind", ["plain", "adaptive"])
def test_no_served_query_iterates_the_index(kind, family, monkeypatch):
    service = start_service(kind, family)
    pool = walk_pool(service.graph)
    for op, s, t in MixedUpdateWorkload.prepare(service.graph, seed=3).steps(2):
        if op == "insert":
            service.submit(Update.insert_edge(s, t, EdgeKind.IDREF))
    service.drain()

    def iterated(self):
        raise AssertionError(f"a served query iterated {type(self).__name__}.inodes()")

    monkeypatch.setattr(FrozenIndex, "inodes", iterated)
    monkeypatch.setattr(LadderLevel, "inodes", iterated)
    for expression in pool:
        served = service.query(expression)
        truth = evaluate_on_graph(service.snapshot.graph, expression).matches
        assert served.matches == truth, expression
    service.close()


class CountedReads:
    """A surface whose table callables count how often the kernel calls them,
    and which inodes' iedges it asked for."""

    def __init__(self, surface):
        self.surface = surface
        self.reads: Counter = Counter()
        self.children_read: Counter = Counter()

    def evaluation_tables(self):
        roots, *tables = self.surface.evaluation_tables()

        def counted(name, table):
            def read(key):
                self.reads[name] += 1
                if name == "children_of":
                    self.children_read[key] += 1
                return table(key)

            return read

        names = ("children_of", "label_of", "extent_of")
        return (roots, *(counted(name, table) for name, table in zip(names, tables)))


def reads_of(surface, expression) -> Counter:
    counted = CountedReads(surface)
    report = evaluate_on_index(counted, expression)
    assert report.matches == reference_evaluation(surface, expression)[0]
    assert counted.reads["children_of"] == report.nodes_visited
    # a label is read per child a non-accepting layer reaches, not per iedge
    assert counted.reads["label_of"] <= report.edges_followed
    return counted.reads


@pytest.fixture(scope="module")
def scaled_surfaces() -> dict:
    """``{factor: (live 1-index, its frozen capture)}`` on XMark at 1x and 4x counts."""
    surfaces = {}
    for factor in (1, 4):
        graph = scaled_xmark(factor)
        index = OneIndex.build(graph)
        surfaces[factor] = (index, IndexSnapshot.capture(0, graph, index).index)
    return surfaces


def test_a_child_path_reads_the_same_tables_at_four_times_the_index(scaled_surfaces):
    reads = {}
    for factor, (index, frozen) in scaled_surfaces.items():
        for name, surface in (("live", index), ("frozen", frozen)):
            reads[factor, name] = {
                expression: reads_of(surface, expression)
                for expression in ("/site", "/site/regions", "//name")
            }
        assert reads[factor, "live"] == reads[factor, "frozen"]
        reads[factor, "inodes"] = index.num_inodes
    assert 3.5 < reads[4, "inodes"] / reads[1, "inodes"] < 4.5
    small, large = reads[1, "frozen"], reads[4, "frozen"]
    # /site: the root's one iedge, then site's five — whatever hangs below
    assert small["/site"] == large["/site"]
    assert small["/site"]["children_of"] == 2 and small["/site"]["extent_of"] == 1
    assert small["/site/regions"] == large["/site/regions"]
    # //name walks everything reachable, so its reads grow with the index
    for table in ("children_of", "label_of"):
        assert 3.0 < large["//name"][table] / small["//name"][table] < 5.0


# ----------------------------------------------------------------------
# The automaton: never stepped, shared untouched
# ----------------------------------------------------------------------


def never_stepped(expression: str) -> PathNfa:
    """A compiled automaton of the test's own whose ``step`` fails the test."""

    class Unstepped(PathNfa):
        def step(self, states, label):
            raise AssertionError(f"the kernel stepped {expression!r} on {label!r}")

    nfa = as_nfa(expression)
    return Unstepped(nfa.expression, nfa.advance, nfa.loops)


def children_reads_of(surface, expression) -> Counter:
    """How often the kernel read each inode's iedges: once per state it holds."""
    counted = CountedReads(surface)
    report = evaluate_on_index(counted, never_stepped(expression))
    roots = list(surface.evaluation_tables()[0])
    states_of, _ = reference_states(surface, expression, roots)
    assert report.matches == reference_evaluation(surface, expression, roots)[0]
    assert counted.children_read == {i: len(states) for i, states in states_of.items()}
    return counted.children_read


def test_the_kernel_never_steps_and_reads_iedges_once_per_state_held(scaled_surfaces):
    index, frozen = scaled_surfaces[1]
    for surface in (index, frozen):
        # //*//*//*//* holds five states at once, in every inode deep enough
        assert max(children_reads_of(surface, "//*//*//*//*").values()) == 5
        for expression in ("//name", "/site//*//name"):
            assert children_reads_of(surface, expression)
    # and a child path reads the same entries whatever hangs below it
    followed = {
        factor: evaluate_on_index(frozen, never_stepped("/site")).edges_followed
        for factor, (_, frozen) in scaled_surfaces.items()
    }
    assert followed[1] == followed[4] == 6  # the root's one iedge, then site's five
    for factor, (_, frozen) in scaled_surfaces.items():
        assert sum(children_reads_of(frozen, "/site").values()) == 2, factor


def test_the_shared_automata_are_untouched_by_concurrent_readers():
    graph = generate_xmark(SMALL).graph
    frozen = IndexSnapshot.capture(0, graph, OneIndex.build(graph)).index
    pool = [*walk_pool(graph), *ADVERSARIAL]
    shared = {text: as_nfa(text) for text in pool}  # what the LRU hands every reader

    def one_pass():
        reports = []
        for text in pool:
            footprint = EvalFootprint()
            report = evaluate_on_index(frozen, text, footprint=footprint)
            reports.append((report, footprint.inodes))
        return reports

    serial = one_pass()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as readers:
            passes = [readers.submit(one_pass) for _ in range(4)]
            for concurrent in passes:
                assert concurrent.result(timeout=120) == serial
    finally:
        sys.setswitchinterval(interval)
    for text, nfa in shared.items():
        assert as_nfa(text) is nfa
        assert set(vars(nfa)) == {"expression", "advance", "loops"}, text
