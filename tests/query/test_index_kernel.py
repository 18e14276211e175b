"""The index-evaluation kernel against an in-test reference, and its cost as counts.

Six statements, none of them timed:

* **Differential.**  :func:`reference_evaluation` below walks the
  automaton per iedge with a worklist of state sets, written against each
  surface's *public* methods (``isucc`` / ``label_of`` / ``extent``) and
  seeded at the inode that holds the root, found by scanning extents.  It
  decides the matches and the inode footprint, and derives both effort
  counters from its own state sets: one visit per (inode, state) pair,
  each reading that inode's iedges.  The kernel must agree with it on all
  four for every expression of a 2000-walk pool — evaluated twice, and
  once more with an empty closure memo — on the live
  :class:`StructuralIndex`, the published :class:`FrozenIndex` and every
  coarsened ladder level, at every version of a seeded update stream —
  which also compares the seed an ``evolve`` carried with a fresh
  ``capture``'s at each version — and on the cyclic generated graphs
  (IMDB and six seeded random ones) at k = 0..3, where a loop layer's
  closure runs round the index's cycles.
* **The closure memo.**  A loop state's closure is read once per surface
  version and entering layer: a second ``//x`` reads no iedge of its
  closed layer and reports what the first did; a fifth entering layer is
  closed and not stored; every version, every ladder level and every
  generation of the live index starts with its own empty memo — across a
  rollback, a reachability change, a degrade rebuild and readers racing
  the first closure.  A live index reads one capture per generation:
  reused between mutations, taken anew after a commit, a rollback and a
  degrade rebuild.
* **Only the root seeds.**  A dnode that merely carries the ROOT label is
  not a seed on any surface (the parent commit seeded by label scan and
  lost 1-index precision on ``root → x → ROOT' → a``).
* **The label table.**  Every surface's ``labelled(l)`` is its inodes
  labelled l, and the empty set for a label it lacks — live, frozen and
  at every ladder level, at every version of the stream, across a batch
  rolled back inside maintenance, a degrade rebuild, a 1-index
  reconstruct and a live index mutated between reads; an ``evolve``'s
  table equals a fresh ``capture``'s, shares *prev*'s when no inode came
  or went, and re-forms only the labels an inode joined or left.
* **O(path).**  No served query iterates the index; ``/site`` reads the
  same number of table entries on XMark(1) as on XMark at 4x counts, and
  every expression reads one label set per non-wildcard state.
* **No ``PathNfa.step``.**  The kernel builds one inode layer per
  automaton state with set operations: an automaton of the test's own
  whose ``step`` fails is evaluated unharmed, each inode's iedges are read
  exactly once per state it holds, and the automata shared through the
  ``as_nfa`` LRU come out of concurrent evaluations as they went in —
  also when the readers race a ladder level's first extent unions.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

from repro.adaptive.ladder import build_ladder_state
from repro.adaptive.service import AdaptiveConfig, AdaptiveIndexService
from repro.exceptions import InjectedFaultError
from repro.experiments.config import SMOKE
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.frozen import FrozenIndex, LabelTable
from repro.index.oneindex import OneIndex
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import (
    CLOSURES_PER_VERSION,
    EvalFootprint,
    evaluate_on_ak,
    evaluate_on_index,
)
from repro.query.path_expression import WILDCARD
from repro.resilience import FaultInjector, GuardConfig
from repro.service import IndexService, ServiceConfig
from repro.service.queue import Update
from repro.service.snapshot import IndexSnapshot
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


def tables(surface) -> tuple:
    """What the kernel reads of *surface*: its version's evaluation tables."""
    return surface.frozen().evaluation_tables()


def assert_label_table(surface, where) -> None:
    """``labelled(l)`` is the surface's inodes labelled l, read off its public
    methods, for every label it holds, and empty for a label it lacks."""
    labelled = tables(surface)[2]
    by_label: dict[str, set[int]] = {}
    for inode in surface.inodes():
        by_label.setdefault(surface.label_of(inode), set()).add(inode)
    for label, inodes in by_label.items():
        members = labelled(label)
        assert type(members) is frozenset and members == inodes, (where, label)
    assert labelled("nosuch") == frozenset(), where


class Memoless:
    """*surface* handing the kernel an empty closure memo at every evaluation."""

    def __init__(self, surface):
        self.surface = surface

    def frozen(self):
        return self

    def evaluation_tables(self):
        return (*tables(self.surface)[:4], {})


def evaluated(surface, expression) -> tuple:
    """``(matches, nodes_visited, edges_followed, footprint inodes)``."""
    footprint = EvalFootprint()
    report = evaluate_on_index(surface, expression, footprint=footprint)
    assert not footprint.dnodes
    return report.matches, report.nodes_visited, report.edges_followed, footprint.inodes


def assert_kernel_matches_reference(surface, pool, where, truth=None) -> None:
    """*truth*: the graph's own answers to some of the expressions, for a
    precise surface.  Every expression is evaluated twice on the surface —
    the second reads each loop state's closure from the version's memo —
    and both reports equal the reference's and a memo-less evaluation's."""
    truth = truth or {}
    roots = holder_of_root(surface)
    assert list(tables(surface)[0]) == roots, where
    for expression in (*pool, *ADVERSARIAL):
        expected = reference_evaluation(surface, expression, roots)
        assert evaluated(Memoless(surface), expression) == expected, (where, expression)
        for _ in range(2):
            assert evaluated(surface, expression) == expected, (where, expression)
        if expression in truth:
            assert expected[0] == truth[expression], (where, expression)
    closures = tables(surface)[4]
    assert 0 < len(closures) <= CLOSURES_PER_VERSION, where
    stored = {key: (set(below), *counts) for key, (below, *counts) in closures.items()}
    for expression in ADVERSARIAL:  # a wildcard step hands a stored set onwards
        evaluate_on_index(surface, expression, footprint=EvalFootprint())
    after = {key: (set(below), *counts) for key, (below, *counts) in closures.items()}
    assert after == stored, where  # a stored closure is never written to
    for expression in pool[::10]:  # the footprint is optional and changes nothing
        bare = evaluate_on_index(surface, expression)
        with_footprint = evaluate_on_index(surface, expression, footprint=EvalFootprint())
        assert bare == with_footprint, (where, expression)


# ----------------------------------------------------------------------
# Differential: every surface, every version of a served stream
# ----------------------------------------------------------------------


def start_service(kind: str, family: str, seed: int):
    """A service on a small XMark, and its seeded IDREF stream (see :func:`churn`)."""
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed)
    config = ServiceConfig(family=family, k=K, batch_max_ops=8)
    if kind == "plain":
        return IndexService(graph, config), stream
    service = AdaptiveIndexService(
        graph, config, AdaptiveConfig(levels=LEVELS, retune_every=0)
    )
    return service, stream


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
        assert isinstance(view, FrozenIndex) and view is not snapshot.index
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
    check_tables(service)
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
    service, stream = start_service(kind, family, seed=17)
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
    assert service.guarded.stats.degradations == 0  # every version an evolve
    service.check()
    service.close()


def churn(graph: DataGraph, seed: int):
    """A seeded IDREF insert/delete stream as updates; it pools its edges out
    of *graph* at once, so call it before building an index on *graph*."""
    return (
        Update.insert_edge(s, t, EdgeKind.IDREF) if op == "insert" else Update.delete_edge(s, t)
        for op, s, t in MixedUpdateWorkload.prepare(graph, seed=seed).steps(16, validate=False)
    )


def check_tables(service) -> None:
    """Every surface's label table, and the published one against a capture's."""
    assert service.snapshot.index._labelled == fresh_capture(service).index._labelled
    for name, surface in surfaces_of(service).items():
        assert_label_table(surface, (service.version, name))


def next_id(service) -> int:
    """The id the next fresh inode (A(k) leaf class) of the service takes."""
    structure = service.structure
    return structure._next_id if service.config.family == "one" else structure.levels[K].next_token


@pytest.mark.parametrize("family", ["one", "ak"])
def test_the_label_table_across_a_rollback_a_rebuild_and_a_reconstruct(family):
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    config = ServiceConfig(family=family, k=K, guard=GuardConfig(policy="raise"))
    service = IndexService(graph, config)
    check_tables(service)
    # a batch rolled back inside maintenance: its fresh ids are handed out again
    batch = list(islice(stream, 4))
    first, published = next_id(service), service.version
    injector = service.guarded.fault_injector = FaultInjector(at_phase="split")
    for update in batch:
        service.submit(update)
    with pytest.raises(InjectedFaultError):
        service.flush()
    assert injector.fired == 1 and service.version == published
    assert next_id(service) == first
    service.guarded.fault_injector = None
    for update in batch:
        service.submit(update)
    service.flush()
    assert service.version == published + 1
    assert next_id(service) > first  # the rolled-back batch's ids, reused
    check_tables(service)
    if family == "one":  # a reconstruct merges through journaled merges
        service.submit(Update.reconstruct())
        service.flush()
        assert service.version == published + 2
        check_tables(service)
    service.close()
    # a degrade rebuild renames every inode: the table is captured whole
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    config = ServiceConfig(family=family, k=K, guard=GuardConfig(policy="degrade"))
    service = IndexService(graph, config, fault_injector=FaultInjector(at_record=1))
    for version in (1, 2):  # the rebuilt version, then an evolve from it
        for update in islice(stream, 4):
            service.submit(update)
        service.flush()
        assert service.version == version
        assert service.guarded.stats.degradations == 1
        check_tables(service)
    service.close()


def test_a_live_index_regroups_its_labels_between_mutations():
    graph = generate_xmark(SMALL).graph
    workload = MixedUpdateWorkload.prepare(graph, seed=3)
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)
    pool = walk_pool(graph)[::25]
    inodes, changed = set(index.inodes()), 0
    for op, s, t in workload.steps(6):
        assert_label_table(index, (op, s, t))  # the read that memoises a table
        if op == "insert":
            maintainer.insert_edge(s, t, EdgeKind.IDREF)
        else:
            maintainer.delete_edge(s, t)
        assert_label_table(index, (op, s, t))
        assert_kernel_matches_reference(index, pool, (op, s, t))
        changed += inodes != set(index.inodes())
        inodes = set(index.inodes())
    assert changed >= 2


@pytest.mark.parametrize("family", ["one", "ak"])
def test_an_evolve_re_forms_only_the_label_sets_an_inode_joined_or_left(family):
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=23)
    service = IndexService(graph, ServiceConfig(family=family, k=K))
    value = Update.set_value(next(iter(graph.nodes_with_label("name"))), "renamed")
    shared = reformed = 0
    for updates in ([value], *([update] for update in islice(stream, 12))):
        prev = service.snapshot.index
        for update in updates:
            service.submit(update)
        service.flush()
        new = service.snapshot.index
        before, after = (
            LabelTable.group((i, index.label_of(i)) for i in index.inodes()) for index in (prev, new)
        )
        changed = {label for label in before.keys() | after.keys()
                   if before.get(label) != after.get(label)}
        if not changed:
            assert new._labelled is prev._labelled, updates
            shared += 1
            continue
        reformed += 1
        assert {
            label for label, members in new._labelled.items()
            if members is not prev._labelled.get(label)
        } == changed & after.keys(), updates
    assert shared >= 1 and reformed >= 1
    service.close()


# ----------------------------------------------------------------------
# The closure memo: one per surface version, read back unchanged
# ----------------------------------------------------------------------

#: descendant expressions whose answers a commit below changes: ``annex``
#: is a label the generated graph lacks until a commit inserts one
DESCENDANT = ("//name", "/site//name", "//annex", "/site//annex")


def assert_closures_agree(service, where) -> None:
    """On every surface of the service, each descendant expression twice
    equals a memo-less evaluation; on a 1-index, also the graph's answer."""
    for name, surface in surfaces_of(service).items():
        for expression in DESCENDANT:
            bare = evaluated(Memoless(surface), expression)
            for _ in range(2):
                assert evaluated(surface, expression) == bare, (where, name, expression)
            if service.config.family == "one":
                truth = evaluate_on_graph(service.graph, expression).matches
                assert bare[0] == truth, (where, name, expression)


def annexes(graph: DataGraph) -> frozenset[int]:
    """The ``annex`` dnodes reachable from the root."""
    return evaluate_on_graph(graph, "//annex").matches


@pytest.mark.parametrize("family", ["one", "ak"])
def test_the_closures_across_a_rollback_a_reachability_change_and_a_rebuild(family):
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    site = next(iter(graph.iter_succ(graph.root)))
    config = ServiceConfig(family=family, k=K, guard=GuardConfig(policy="raise"))
    service = IndexService(graph, config)
    assert_closures_agree(service, "built")
    # a batch that makes an annex reachable, rolled back inside maintenance
    batch = [*islice(stream, 4), Update.insert_node(site, "annex")]
    published = service.version
    injector = service.guarded.fault_injector = FaultInjector(at_phase="split")
    for update in batch:
        service.submit(update)
    with pytest.raises(InjectedFaultError):
        service.flush()
    assert injector.fired == 1 and service.version == published
    assert not annexes(graph)
    assert_closures_agree(service, "rolled back")
    service.guarded.fault_injector = None
    for update in batch:
        service.submit(update)
    service.flush()
    (annex,) = annexes(graph)
    assert_closures_agree(service, "annex reachable")
    # cut off and re-attached: //annex loses and regains its one match
    service.submit(Update.delete_edge(site, annex))
    service.flush()
    assert not annexes(graph)
    assert_closures_agree(service, "annex cut off")
    service.submit(Update.insert_edge(site, annex, EdgeKind.TREE))
    service.flush()
    assert annexes(graph) == {annex}
    assert_closures_agree(service, "annex re-attached")
    service.close()
    # a degrade rebuild renames every inode; then an evolve from it
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    site = next(iter(graph.iter_succ(graph.root)))
    config = ServiceConfig(family=family, k=K, guard=GuardConfig(policy="degrade"))
    service = IndexService(graph, config, fault_injector=FaultInjector(at_record=1))
    assert_closures_agree(service, "built")
    for version in (1, 2):
        for update in (*islice(stream, 4), Update.insert_node(site, "annex")):
            service.submit(update)
        service.flush()
        assert service.version == version and service.guarded.stats.degradations == 1
        assert len(annexes(graph)) == version
        assert_closures_agree(service, ("rebuilt", version))
    service.close()


def test_a_second_descendant_read_reads_no_iedge_of_its_closed_layer():
    graph = generate_xmark(SMALL).graph
    index = OneIndex.build(graph)
    family = AkIndexFamily.build(graph, K)
    leaf = IndexSnapshot.capture(0, graph, family).index
    level = build_ladder_state(family, leaf, 0, LEVELS).level_view(1)
    frozen = IndexSnapshot.capture(0, graph, index).index
    # three entering layers: the seed, site, and site's children
    for surface in (index, frozen, leaf, level):
        for expression in ("//name", "/site//name", "/site/*//keyword"):
            nfa = as_nfa(expression)
            counted = CountedReads(surface, shared=True)
            first = evaluate_on_index(counted, expression)
            assert counted.reads["children_of"] == first.nodes_visited, expression
            # the second evaluation reads iedges only for the states that
            # do not loop: the closed layer comes from the version's memo
            states_of, _ = reference_states(surface, nfa, list(tables(surface)[0]))
            held = Counter({i: len(states - nfa.loops) for i, states in states_of.items()})
            counted.children_read.clear()
            assert evaluate_on_index(counted, expression) == first, expression
            assert counted.children_read == +held, (surface, expression)
        assert len(tables(surface)[4]) == 3


def test_a_fifth_entering_layer_is_closed_but_not_stored():
    graph = generate_xmark(SMALL).graph
    frozen = IndexSnapshot.capture(0, graph, OneIndex.build(graph)).index
    closures = tables(frozen)[4]
    entering = (
        "//name", "/site//name", "/site/regions//name", "/site/people//name",
        "/site/open_auctions//name",
    )
    assert CLOSURES_PER_VERSION == 4
    for count, expression in enumerate(entering, 1):
        assert evaluated(frozen, expression) == evaluated(Memoless(frozen), expression)
        assert len(closures) == min(count, CLOSURES_PER_VERSION), expression
    stored = dict(closures)
    assert frozenset(tables(frozen)[0]) in stored
    fifth = entering[-1]
    counted = CountedReads(frozen, shared=True)
    report = evaluate_on_index(counted, fifth)
    assert counted.reads["children_of"] == report.nodes_visited  # closed again
    assert report.matches == evaluate_on_graph(graph, fifth).matches
    assert closures == stored  # and still not stored
    for expression in entering:  # the stored four answer as before
        assert evaluated(frozen, expression) == evaluated(Memoless(frozen), expression)


@pytest.mark.parametrize("family", ["one", "ak"])
def test_every_version_and_every_level_closes_into_its_own_memo(family):
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=5)
    config = ServiceConfig(family=family, k=K)
    service = AdaptiveIndexService(graph, config, AdaptiveConfig(levels=LEVELS, retune_every=0))
    for _ in range(3):
        prev = service.snapshot.index
        evaluate_on_index(prev, "//name")
        assert tables(prev)[4]
        for update in islice(stream, 4):
            service.submit(update)
        service.flush()
        new = service.snapshot.index
        assert new is not prev and tables(new)[4] == {}  # evolve starts empty
        memos = [tables(surface)[4] for surface in surfaces_of(service).values()]
        assert len({id(memo) for memo in memos}) == len(memos)
    service.close()


def assert_a_fresh_capture(index, capture, where) -> None:
    """*capture* is the live index's current generation, with an empty memo."""
    assert index.frozen() is capture, where
    fresh = FrozenIndex.capture(index, index.graph)
    assert capture.roots == fresh.roots, where
    assert capture._extent == fresh._extent and capture._isucc.keys() == fresh._isucc.keys()
    assert all(set(capture._isucc[i]) == set(fresh._isucc[i]) for i in fresh._isucc), where
    assert capture._labelled == fresh._labelled and tables(capture)[4] == {}, where


def test_a_live_index_reads_one_capture_per_generation():
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    config = ServiceConfig(family="one", guard=GuardConfig(policy="raise"))
    service = IndexService(graph, config)
    index = service.structure
    capture = index.frozen()
    assert_a_fresh_capture(index, capture, "built")
    for expression in DESCENDANT:  # reads between mutations share one capture
        evaluate_on_index(index, expression)
        assert index.frozen() is capture
    assert tables(capture)[4]
    # a committed batch
    for update in islice(stream, 4):
        service.submit(update)
    service.flush()
    committed = index.frozen()
    assert committed is not capture
    assert_a_fresh_capture(index, committed, "committed")
    evaluate_on_index(index, "//name")
    # a batch rolled back inside maintenance
    generation = index.generation
    service.guarded.fault_injector = FaultInjector(at_phase="split")
    for update in islice(stream, 4):
        service.submit(update)
    with pytest.raises(InjectedFaultError):
        service.flush()
    assert index.generation != generation
    rolled_back = index.frozen()
    assert rolled_back is not committed and rolled_back._extent == committed._extent
    assert_a_fresh_capture(index, rolled_back, "rolled back")
    service.close()
    # a degrade rebuild renames every inode in place
    graph = generate_xmark(SMALL).graph
    stream = churn(graph, seed=3)
    config = ServiceConfig(family="one", guard=GuardConfig(policy="degrade"))
    service = IndexService(graph, config, fault_injector=FaultInjector(at_record=1))
    index = service.structure
    evaluate_on_index(index, "//name")
    built = index.frozen()
    for update in islice(stream, 4):
        service.submit(update)
    service.flush()
    assert service.guarded.stats.degradations == 1 and service.structure is index
    assert index.frozen() is not built
    assert_a_fresh_capture(index, index.frozen(), "rebuilt")
    for expression in DESCENDANT:
        truth = evaluate_on_graph(graph, expression).matches
        assert evaluate_on_index(index, expression).matches == truth, expression
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
            assert tables(surface)[0] == ()
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
    service, stream = start_service(kind, family, seed=3)
    pool = walk_pool(service.graph)
    for update in islice(stream, 4):
        if update.op == "insert_edge":
            service.submit(update)
    service.drain()

    def iterated(self):
        raise AssertionError(f"a served query iterated {type(self).__name__}.inodes()")

    monkeypatch.setattr(FrozenIndex, "inodes", iterated)  # every version and level
    for expression in pool:
        served = service.query(expression)
        truth = evaluate_on_graph(service.snapshot.graph, expression).matches
        assert served.matches == truth, expression
    service.close()


class CountedReads:
    """A surface whose table callables count how often the kernel calls them,
    and which inodes' iedges it asked for.  Its closure memo is its own,
    empty at first, so its first evaluation of a loop state reads the
    closure; with *shared* it is the surface's own."""

    def __init__(self, surface, shared: bool = False):
        self.surface = surface
        self.reads: Counter = Counter()
        self.children_read: Counter = Counter()
        self.closures = None if shared else {}

    def frozen(self):
        return self

    def evaluation_tables(self):
        roots, *callables, closures = tables(self.surface)

        def counted(name, table):
            def read(key):
                self.reads[name] += 1
                if name == "children_of":
                    self.children_read[key] += 1
                return table(key)

            return read

        names = ("children_of", "labelled", "extent_of")
        counted_tables = (counted(name, table) for name, table in zip(names, callables))
        return (roots, *counted_tables, closures if self.closures is None else self.closures)


def reads_of(surface, expression) -> Counter:
    counted = CountedReads(surface)
    report = evaluate_on_index(counted, expression)
    assert report.matches == reference_evaluation(surface, expression)[0]
    assert counted.reads["children_of"] == report.nodes_visited
    # one label set per non-wildcard state, however many children it filters
    tests = [test for test, _ in as_nfa(expression).advance]
    assert counted.reads["labelled"] == len(tests) - tests.count(WILDCARD)
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
    # //name walks everything reachable, so its iedge reads grow with the
    # index; its one label set is read once at either size
    assert 3.0 < large["//name"]["children_of"] / small["//name"]["children_of"] < 5.0
    assert small["//name"]["labelled"] == large["//name"]["labelled"] == 1


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
    roots = list(tables(surface)[0])
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
    index = OneIndex.build(graph)
    family = AkIndexFamily.build(graph, K)
    leaf = IndexSnapshot.capture(0, graph, family).index
    anc = build_ladder_state(family, leaf, 0, LEVELS).anc[1]
    pool = [*walk_pool(graph), *ADVERSARIAL]
    shared = {text: as_nfa(text) for text in pool}  # what the LRU hands every reader

    def one_pass(surface):
        reports = []
        for text in pool:
            footprint = EvalFootprint()
            report = evaluate_on_index(surface, text, footprint=footprint)
            reports.append((report, footprint.inodes))
        return reports

    # a ladder level unions a token's extent on its first read, and every
    # surface version fills its closure memo on the first descendant reads:
    # fresh surfaces make the concurrent readers race both
    fresh_surfaces = (
        lambda: IndexSnapshot.capture(0, graph, index).index,
        lambda: FrozenIndex.coarsen(leaf, anc),
    )
    for fresh in fresh_surfaces:
        serial = one_pass(fresh())
        surface = fresh()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as readers:
                passes = [readers.submit(one_pass, surface) for _ in range(4)]
                for concurrent in passes:
                    assert concurrent.result(timeout=120) == serial
        finally:
            sys.setswitchinterval(interval)
    for text, nfa in shared.items():
        assert as_nfa(text) is nfa
        assert set(vars(nfa)) == {"expression", "advance", "loops"}, text
