"""The scoped post-check against the whole-graph one.

After a batch the guard verifies the batch's neighbourhood, not the
graph (:mod:`repro.resilience.invariants`).  That is only sound if

* on every state a workload can produce, the scoped verdict equals the
  full verdict (the differential runs — chaos, service-soak and
  corpus-churn workloads, both families, seeded by ``CHAOS_SEED``);
* a corruption *inside* the touched region is caught by the scoped check
  with the same exception type as the full one (the corruption matrix),
  while one *outside* it is the audit's to catch — that is the contract,
  and the last matrix row documents it;
* the audit cursor — one pass over the next slice of whole leaf extents
  stating what the oracles state of it, riding on every local check —
  states in one cycle everything the unscoped check states (the cycle
  differential: every matrix row planted *outside* the touched region,
  and the rows only a cycle can see), raises on no clean stream, finds a
  corruption anywhere within ``commits_per_full_audit`` + 1 commits, and
  walks deterministically;
* the fall-backs (no touched set, ``TouchedSet.full``, recovery) really
  take the whole-graph path and restart the cursor, and every non-empty
  commit is checked;
* what a commit visits — local scope and audit slice — does not grow
  with the graph.

The scoped differential and the matrix judge the scoped check *alone*
(``local_only``): with a slice riding along, some of what it misses
would be caught by accident.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import pytest

from repro.corpus import CorpusService
from repro.exceptions import InvariantViolationError
from repro.graph.datagraph import EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import InMemorySink, observed
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    GuardedMaintainer,
    InvariantGuard,
    TouchedSet,
)
from repro.resilience import invariants
from repro.resilience.invariants import AUDIT_SLICE_VISITS as SERVED_SLICE  # (before any patch)
from repro.service import IndexService, ServiceConfig, Update
from repro.store import StoreConfig
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark
from tests.corpus.churn_workload import CorpusChurnWorkload
from tests.resilience import check_reference as reference
from tests.resilience.conftest import CHAOS_SEED, CHAOS_XMARK, edge_call
from tests.workload.sessions import ClosedLoopDriver, SessionMix

FAMILIES = ("one", "ak")
AK_K = 2
#: ``CHAOS_XMARK`` is ≈ 4k visits: a cycle of at least four slices
SLICE = 900


def build(family: str, graph):
    """A fresh maintainer of *family* over *graph*."""
    if family == "one":
        return SplitMergeMaintainer(OneIndex.build(graph))
    return AkSplitMergeMaintainer(AkIndexFamily.build(graph, AK_K))


def prepared(seed: int, config: XMarkConfig = CHAOS_XMARK):
    """A graph with its update pool already carved out, and the pool.

    ``prepare`` removes the pooled IDREF edges from the graph, so it
    must run before anything indexes the graph.
    """
    graph = generate_xmark(config).graph
    return graph, MixedUpdateWorkload.prepare(graph, seed=seed)


def without_audit(patch) -> None:
    patch.setattr(InvariantGuard, "_audit_slice", lambda self, graph, structure: None)


@pytest.fixture
def local_only(monkeypatch):
    """Local checks without the audit slice that normally rides on them."""
    without_audit(monkeypatch)


@pytest.fixture
def small_slices(monkeypatch):
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", SLICE)


def verdict(level: str, graph, structure, touched=None):
    """The exception a fresh guard raises on this state, or ``None``."""
    guard = InvariantGuard(level=level)
    try:
        guard.check(graph, structure, touched)
    except InvariantViolationError as exc:
        return exc
    assert (guard.checks_local == 1) == (touched is not None)
    return None


# ----------------------------------------------------------------------
# Differential: scoped verdict == full verdict after every batch
# ----------------------------------------------------------------------


@pytest.fixture
def paired(monkeypatch, local_only):
    """Every scoped post-check is followed by a full one on the same state."""
    tally = {"local": 0, "violations": [], "disagreements": []}
    scoped_check = InvariantGuard.check

    def both(self, graph, structure, touched=None):
        scoped = full = None
        local_before = self.checks_local
        try:
            scoped_check(self, graph, structure, touched)
        except InvariantViolationError as exc:
            scoped = exc
        if self.checks_local > local_before:
            tally["local"] += 1
            try:
                scoped_check(InvariantGuard(level=self.level), graph, structure)
            except InvariantViolationError as exc:
                full = exc
            if type(scoped) is not type(full):  # (a raise here would be "handled")
                tally["disagreements"].append((scoped, full))
        if scoped is not None:
            tally["violations"].append(scoped)
            raise scoped

    monkeypatch.setattr(InvariantGuard, "check", both)
    return tally


def chaos_stream(family: str):
    """Single-operation guarded batches of every kind under injected faults."""
    graph, workload = prepared(61 + CHAOS_SEED)
    guard = GuardedMaintainer(
        build(family, graph),
        GuardConfig(policy="degrade"),
        FaultInjector(at_record=37 + CHAOS_SEED, rearm=True),
    )
    touched = TouchedSet()
    guard.track_touched(touched)

    def commit(call) -> None:
        guard.apply_batch([call])
        touched.clear()

    for count, step in enumerate(workload.steps(60, validate=True)):
        call = edge_call(step)
        commit(call)
        if count % 10 == 0:  # node and subgraph surgery ride along
            before = set(graph.nodes())
            commit(("insert_node", (call[1][0], "chaos", count)))
            (oid,) = set(graph.nodes()) - before
            commit(("set_value", (oid, "v")))
            commit(("delete_node", (oid,)))
    assert guard.stats.faults > 0, "the injector never fired"
    return graph, guard.structure, guard.invariants, 101


def soak_stream(family: str, steps: int = 300):
    """Coalesced batches through the serving layer, with rollbacks."""
    graph, workload = prepared(29 + CHAOS_SEED)
    service = IndexService(
        graph,
        ServiceConfig(family=family, k=AK_K, batch_max_ops=16, queue_capacity=64),
        fault_injector=FaultInjector(rate=0.002, seed=31 + CHAOS_SEED, rearm=True),
    )
    driver = ClosedLoopDriver(
        service,
        workload,
        QueryWorkload.generate(graph, count=24, seed=37 + CHAOS_SEED),
        SessionMix(steps=steps, seed=41 + CHAOS_SEED),
    )
    report = driver.run()
    assert report.batch_failures == 0
    service.check()
    service.close()
    promised = report.batches - service.guarded.stats.degradations
    return graph, service.structure, service.guarded.invariants, promised


def churn_stream(family: str):
    """Document add / remove / replace: subgraph surgery and value edits."""
    pool = generate_xmark(CHAOS_XMARK).as_documents(12)
    corpus = CorpusService.bulk_load(
        pool, config=ServiceConfig(family=family, k=AK_K)
    )
    churn = CorpusChurnWorkload(pool=pool, steps=30, seed=13 + CHAOS_SEED)
    report = churn.run(corpus, compare="full", check_every=1)  # commit each step
    assert report.converged, report.summary()
    corpus.close()
    service = corpus.service
    return service.graph, service.structure, service.guarded.invariants, 30 - report.noop_replaces


#: every stream: ``(graph, structure, its guard, local checks it promises)``,
#: each long enough to take the cursor round at ``SLICE`` visits a commit
STREAMS = {"chaos": chaos_stream, "soak": partial(soak_stream, steps=1500), "churn": churn_stream}


@pytest.mark.parametrize("family", FAMILIES)
def test_differential_chaos(family, paired):
    *_, promised = chaos_stream(family)
    assert paired["local"] >= promised
    assert paired["disagreements"] == paired["violations"] == []


@pytest.mark.parametrize("family", FAMILIES)
def test_differential_service_soak(family, paired):
    *_, promised = soak_stream(family)
    assert paired["local"] >= promised
    assert paired["disagreements"] == paired["violations"] == []


@pytest.mark.parametrize("family", FAMILIES)
def test_differential_corpus_churn(family, paired):
    *_, promised = churn_stream(family)
    assert paired["local"] >= promised
    assert paired["disagreements"] == paired["violations"] == []


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("stream", STREAMS)
def test_no_slice_raises_on_a_clean_stream(stream, family, small_slices, monkeypatch):
    """The cursor under mutation, rollbacks and degrade-rebuilds: where the
    full check passes, no slice of any cycle raises."""
    raised = []
    real_check = InvariantGuard.check

    def recording(self, graph, structure, touched=None):
        try:
            real_check(self, graph, structure, touched)
        except InvariantViolationError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(InvariantGuard, "check", recording)
    # (the streams' own full checks would restart the cursor at every step)
    monkeypatch.setattr(IndexService, "check", lambda self: None)
    graph, structure, guard, _ = STREAMS[stream](family)
    assert raised == []
    assert guard.audits >= 1, "the stream never completed a cycle"
    assert verdict("minimal", graph, structure) is None


# ----------------------------------------------------------------------
# Corruption matrix
# ----------------------------------------------------------------------


class NoMerge(SplitMergeMaintainer):
    def _merge_phase(self, starts, stats):
        """Skip Figure 3's merge phase: valid, but no longer minimal."""


def batched(family: str, build=build, pairs: int = 8, config: XMarkConfig = CHAOS_XMARK):
    """One committed, *unchecked* batch and the touched set it left."""
    graph, workload = prepared(7 + CHAOS_SEED, config)
    maintainer = build(family, graph)
    guard = GuardedMaintainer(maintainer, GuardConfig(policy="raise", check_level=""))
    touched = TouchedSet()
    guard.track_touched(touched)
    while not touched.moved:  # (a seed may open with trivial updates only)
        guard.apply_batch([edge_call(step) for step in workload.steps(pairs)])
    assert guard.stats.checks == 0
    return graph, maintainer, touched


def touched_edge(graph, touched) -> tuple[int, int]:
    """A live dedge with both endpoints in the touched dnodes."""
    for target in sorted(touched.dnodes):
        if graph.has_node(target):
            for source in sorted(graph.iter_pred(target)):
                if source in touched.dnodes:
                    return source, target
    raise AssertionError("the batch left no touched edge")


def swap_extent_member(graph, maintainer, touched):
    index = maintainer.index
    _, w = touched_edge(graph, touched)
    inode = index.inode_of(w)
    stranger = next(v for v in graph.nodes() if index.inode_of(v) != inode)
    index._extent_arr[inode][index._pos_of[w]] = stranger


def drop_iedge_support(graph, maintainer, touched):
    index = maintainer.index
    source, target = touched_edge(graph, touched)
    del index._succ_support[index.inode_of(source)][index.inode_of(target)]


def add_iedge_support(graph, maintainer, touched):
    index = maintainer.index
    _, target = touched_edge(graph, touched)
    inode = index.inode_of(target)
    stranger = next(
        i for i in index.inodes() if i != inode and not index.has_iedge(i, inode)
    )
    index._succ_support[stranger][inode] = 1
    index._pred_support[inode][stranger] = 1


def repoint_dnode(graph, maintainer, touched):
    index = maintainer.index
    _, w = touched_edge(graph, touched)
    index._inode_of[w] = next(i for i in index.inodes() if i != index.inode_of(w))


def drop_dnode_entry(graph, maintainer, touched):
    # the bare KeyError of old: an oracle's lookup misses the entry
    del maintainer.index._inode_of[touched_edge(graph, touched)[1]]


def leak_dead_inode(graph, maintainer, touched):
    index = maintainer.index
    dead = next(
        (i for i in sorted(touched.inodes) if not index.has_inode(i)), index._next_id
    )
    touched.inodes.add(dead)  # (in case every inode the batch made survived)
    index._label[dead] = "leaked"


def break_graph_mirror(graph, maintainer, touched):
    source, target = touched_edge(graph, touched)
    graph._pred_slabs.remove(graph._slot_of[target], source)


def break_class_map(graph, maintainer, touched):
    level = maintainer.family.levels[1]
    w = next(w for w in sorted(touched.moved) if graph.has_node(w))
    level.class_of[w] = next(t for t in level.extents if t != level.class_of[w])


def break_tree_parent(graph, maintainer, touched):
    family = maintainer.family
    level = family.levels[1]
    token = next(t for lvl, t in sorted(touched.tokens) if lvl == 1 and t in level.extents)
    level.parent[token] = next(
        t for t in family.levels[0].extents if t != level.parent[token]
    )


def unmerge_ak_class(graph, maintainer, touched):
    # a class split in two although both halves sign the same (Def. 4)
    family = maintainer.family
    level, coarser = family.levels[AK_K], family.levels[AK_K - 1]
    token = next(
        t for lvl, t in sorted(touched.tokens)
        if lvl == AK_K and len(level.extents.get(t, ())) > 1
    )
    w = min(level.extents[token])
    fresh = level.fresh_token()
    level.extents[token].discard(w)
    level.extents[fresh] = {w}
    level.class_of[w] = fresh
    level.parent[fresh] = level.parent[token]
    coarser.children[level.parent[token]].add(fresh)
    touched.moved.add(w)


def move_to_sibling_class(graph, maintainer, touched):
    # a dnode among leaf classmates that sign differently (Def. 4), under
    # the same tree parent: every map and link stays consistent
    family = maintainer.family
    level, coarser = family.levels[AK_K], family.levels[AK_K - 1]
    token, sibling = next(
        (t, s)
        for lvl, t in sorted(touched.tokens)
        if lvl == AK_K and len(level.extents.get(t, ())) > 1
        for s in sorted(coarser.children[level.parent[t]])
        if s != t
    )
    w = min(level.extents[token])
    level.extents[token].discard(w)
    level.extents[sibling].add(w)
    level.class_of[w] = sibling
    touched.moved.add(w)


def move_to_sibling_inode(graph, maintainer, touched):
    # the 1-index analogue, through the index's own surgery (supports kept)
    index = maintainer.index
    w, other = next(
        (w, i)
        for w in sorted(touched.moved)
        if graph.has_node(w) and index.extent_size(index.inode_of(w)) > 1
        for i in sorted(index.inodes())
        if i != index.inode_of(w) and index.label_of(i) == graph.label(w)
    )
    index.move_dnode(w, other)


MATRIX = [
    ("one", swap_extent_member),
    ("one", drop_iedge_support),
    ("one", add_iedge_support),
    ("one", repoint_dnode),
    ("one", drop_dnode_entry),
    ("one", leak_dead_inode),
    ("one", break_graph_mirror),
    ("ak", break_graph_mirror),
    ("ak", break_class_map),
    ("ak", break_tree_parent),
    ("ak", move_to_sibling_class),
]


@pytest.mark.parametrize(
    "family,corrupt", MATRIX, ids=[f"{f}-{c.__name__}" for f, c in MATRIX]
)
def test_corruption_inside_the_touched_region_is_caught(family, corrupt, local_only):
    graph, maintainer, touched = batched(family)
    structure = maintainer.structure
    assert verdict("minimal", graph, structure, touched) is None
    assert verdict("minimal", graph, structure) is None
    corrupt(graph, maintainer, touched)
    scoped = verdict("minimal", graph, structure, touched)
    full = verdict("minimal", graph, structure)
    assert type(scoped) is type(full) is InvariantViolationError, (scoped, full)


@pytest.mark.parametrize("family,definition", [("one", 5), ("ak", 4)])
def test_a_missed_merge_is_caught_at_minimal_only(family, definition, local_only):
    if family == "one":  # the batch ran without Figure 3's merge phase
        graph, maintainer, touched = batched(
            family, lambda _, graph: NoMerge(OneIndex.build(graph)), pairs=32
        )
    else:
        graph, maintainer, touched = batched(family)
        unmerge_ak_class(graph, maintainer, touched)
    structure = maintainer.structure
    assert verdict("valid", graph, structure, touched) is None
    assert verdict("valid", graph, structure) is None
    scoped = verdict("minimal", graph, structure, touched)
    full = verdict("minimal", graph, structure)
    assert type(scoped) is type(full) is InvariantViolationError
    assert scoped.definition == full.definition == definition
    assert scoped.pair is not None


@pytest.mark.parametrize(
    "family,misplace,definition",
    [("one", move_to_sibling_inode, 1), ("ak", move_to_sibling_class, 4)],
    ids=["one", "ak"],
)
def test_a_dnode_in_a_sibling_class_is_caught_from_valid_up(
    family, misplace, definition, local_only
):
    """Every map, support and tree link consistent, one dnode where its
    parents do not put it: nothing for ``basic``, a validity violation of
    either structure, scoped and full alike, at every level above."""
    graph, maintainer, touched = batched(family)
    structure = maintainer.structure
    misplace(graph, maintainer, touched)
    assert verdict("basic", graph, structure, touched) is None
    assert verdict("basic", graph, structure) is None
    for level in ("valid", "minimal"):
        scoped = verdict(level, graph, structure, touched)
        full = verdict(level, graph, structure)
        assert type(scoped) is type(full) is InvariantViolationError, (level, scoped, full)
        assert scoped.definition == full.definition == definition
    if family == "ak":
        assert "mixes signatures" in str(scoped) and "mixes signatures" in str(full)


# ----------------------------------------------------------------------
# The audit cursor: one cycle of slices == the unscoped check
# ----------------------------------------------------------------------


def classes_of(structure, w: int) -> list[tuple[int, int]]:
    """``(level, class)`` of a dnode at every level (a 1-index has one)."""
    if structure.kind == "one":
        return [(0, structure.inode_of(w))]
    return [(i, level.class_of[w]) for i, level in enumerate(structure.levels)]


def outside(graph, maintainer, touched) -> TouchedSet:
    """A region the batch's scope misses, described the way a touched set
    describes the batch's own, so a matrix row can plant there: the dnodes
    that share no inode or class with anything the local check may read —
    the scope, its classmates (a representative is drawn from them) and
    their neighbours."""
    structure = maintainer.structure
    taken = touched.tokens | {(structure.k, inode) for inode in touched.inodes}
    for w in touched.dnodes | touched.moved:
        if graph.has_node(w):
            taken.update(classes_of(structure, w))
            if w in touched.moved:
                taken.update(cls for c in graph.iter_succ(w) for cls in classes_of(structure, c))
    near = {w for w in graph.nodes() if not taken.isdisjoint(classes_of(structure, w))}
    for w in list(near):  # (every oracle reads a dnode's parents, none its children)
        near.update(graph.iter_pred(w))
    taken.update(cls for w in near for cls in classes_of(structure, w))
    region = TouchedSet()
    for w in graph.nodes():
        if taken.isdisjoint(classes_of(structure, w)):
            region.dnodes.add(w)
            region.moved.add(w)
            region.tokens.update(classes_of(structure, w))
    region.inodes = {token for level, token in region.tokens if level == structure.k}
    return region


def inflate_support(graph, maintainer, touched):
    # consistent in both mirrors, so only an extent recounted whole sees it
    index = maintainer.index
    source, target = touched_edge(graph, touched)
    i, j = index.inode_of(source), index.inode_of(target)
    index._succ_support[i][j] += 1
    index._pred_support[j][i] += 1


def duplicate_extent_slot(graph, maintainer, touched):
    # a dnode listed twice over a classmate, which no extent lists any more
    index = maintainer.index
    arr = next(
        index._extent_arr[i]
        for i in sorted(touched.inodes)
        if index.has_inode(i) and index.extent_size(i) > 1
    )
    arr[1] = arr[0]


def plant_root_impostor(graph, maintainer, touched):
    # a second parentless ROOT-labelled inode, every map consistent: it
    # merges with the root's, which the scoped minimality oracle skips
    maintainer.index.add_dnode(graph.add_node(graph.label(graph.root)))


def empty_inner_class(graph, maintainer, touched):
    family = maintainer.family
    token = family.open_class(1, next(iter(family.levels[0].extents)))
    assert not family.levels[1].extents[token]


def stray_leaf_member(graph, maintainer, touched):
    # a leaf extent also lists a dnode classed under another leaf token, whose
    # own classes stay consistent: only a leaf class read whole sees it
    leaf = maintainer.family.levels[AK_K]
    token, stranger = next(
        (t, w)
        for lvl, t in sorted(touched.tokens) if lvl == AK_K
        for w in sorted(touched.dnodes) if leaf.class_of[w] != t
    )
    leaf.extents[token].add(stranger)


def dead_dnode_classed_inside(graph, maintainer, touched):
    # a childless dnode deleted from the graph and from every table but one
    # class map below the leaf level: no extent lists it any more
    family = maintainer.family
    leaf = family.levels[AK_K]
    w = next(
        w for w in sorted(touched.dnodes)
        if graph.out_degree(w) == 0 and len(leaf.extents[leaf.class_of[w]]) > 1
    )
    graph.remove_node(w)
    for i, level in enumerate(family.levels):
        level.extents[level.class_of[w]].discard(w)
        if i != AK_K - 1:
            del level.class_of[w]


def stale_inner_child(graph, maintainer, touched):
    # a live class below the leaf level lists, beside its own children, a
    # live leaf class whose tree parent is another
    family = maintainer.family
    inner = family.levels[AK_K - 1]
    token, child = next(
        (t, c)
        for lvl, t in sorted(touched.tokens) if lvl == AK_K - 1
        for lvl_c, c in sorted(touched.tokens) if lvl_c == AK_K
        and family.levels[AK_K].parent[c] != t
    )
    inner.children[token].add(child)


def relabel_dnode(graph, maintainer, touched):
    # a dnode takes a label of its own, its classes left as they were: its
    # level-0 class mixes labels (a slice without it may meet that first
    # through the representative the class is signed by)
    graph.relabel_node(min(w for w in touched.dnodes if w != graph.root), "relabelled")


def drop_leaf_link(graph, maintainer, touched):
    # a leaf class's parent no longer lists it among its children
    family = maintainer.family
    token = min(t for lvl, t in touched.tokens if lvl == AK_K)
    family.levels[AK_K - 1].children[family.levels[AK_K].parent[token]].discard(token)


#: every row of ``MATRIX``, and what only a cycle can see; at ``basic`` where
#: a depth oracle would see it first (an empty class also fails to sign, a
#: relabelled dnode signs unlike its classmates)
CYCLE_MATRIX = [(family, corrupt, "minimal") for family, corrupt in MATRIX] + [
    ("one", inflate_support, "minimal"),
    ("one", duplicate_extent_slot, "minimal"),
    ("one", move_to_sibling_inode, "minimal"),
    ("one", plant_root_impostor, "minimal"),
    ("ak", unmerge_ak_class, "minimal"),
    ("ak", empty_inner_class, "basic"),
    ("ak", stray_leaf_member, "minimal"),
    ("ak", dead_dnode_classed_inside, "minimal"),
    ("ak", stale_inner_child, "minimal"),
    ("ak", relabel_dnode, "basic"),
    ("ak", drop_leaf_link, "minimal"),
]


def cycle_verdict(level: str, graph, structure):
    """What one cycle of audit slices raises on this state (the first
    slice that raises ends it), and the slices it took."""
    guard = InvariantGuard(level=level)
    slices = 0
    while not guard.audits:
        slices += 1
        try:
            guard.check(graph, structure, TouchedSet())
        except InvariantViolationError as exc:
            assert exc.audit_range is not None and guard.last_audit_ok is False
            return exc, slices
    assert guard.audit_cursor == guard.cycle_visited == 0
    return None, slices


@pytest.mark.parametrize(
    "family,corrupt,level", CYCLE_MATRIX, ids=[f"{f}-{c.__name__}" for f, c, _ in CYCLE_MATRIX]
)
def test_one_cycle_of_slices_states_what_the_unscoped_check_states(
    family, corrupt, level, small_slices, monkeypatch
):
    graph, maintainer, touched = batched(family)
    structure = maintainer.structure
    clean, slices = cycle_verdict(level, graph, structure)
    assert clean is None and slices >= 4
    corrupt(graph, maintainer, outside(graph, maintainer, touched))
    with monkeypatch.context() as patch:  # out of the local check's sight
        without_audit(patch)
        assert verdict(level, graph, structure, touched) is None
    full = reference.verdict(level, graph, structure)  # the unscoped oracles, in turn
    cycle, _ = cycle_verdict(level, graph, structure)
    assert type(cycle) is type(full) is InvariantViolationError, (cycle, full)
    assert cycle.definition == full.definition


def test_corruption_outside_the_touched_region_waits_for_the_audit(small_slices, monkeypatch):
    """The contract: the local check vouches for the batch's neighbourhood
    only; the rest of the graph is the cursor's, one slice per check, so a
    corruption anywhere — here right behind the cursor, the worst place —
    is found within ``commits_per_full_audit`` + 1 commits."""
    graph, workload = prepared(3 + CHAOS_SEED)
    service = IndexService(graph, ServiceConfig(guard=GuardConfig(policy="raise")))
    index = service.guarded.index
    steps = workload.steps(1 << 20, validate=False)
    guard = service.guarded.invariants

    def commit():
        for _ in range(16):
            method, args = edge_call(next(steps))
            service.submit(Update(method, args))
        return service.flush()

    # a support counter between two inodes no IDREF batch ever reaches
    root_inode = index.inode_of(graph.root)
    child = next(iter(index.isucc(root_inode)))
    while guard.audit_cursor <= max(root_inode, child):
        commit()
    index._succ_support[root_inode][child] += 1
    index._pred_support[child][root_inode] += 1
    with monkeypatch.context() as patch:  # no batch's own check will see it
        without_audit(patch)
        assert verdict("minimal", graph, index, TouchedSet()) is None

    bound = service.health()["commits_per_full_audit"] + 1
    assert bound >= 5
    cursors = []
    sink = InMemorySink()
    with observed(sink), pytest.raises(
        InvariantViolationError, match="supports of inode"
    ) as caught:
        while True:
            cursors.append(guard.audit_cursor)
            commit()  # the rest of this cycle, then the slice that recounts it
            assert service.health()["last_audit_ok"] is True
    assert 1 < len(cursors) <= bound
    first, last = caught.value.audit_range
    assert first == cursors[-1] == guard.audit_cursor  # a failed slice is not done
    assert first <= child <= last
    (event,) = sink.events("resilience.rolled_back")
    assert tuple(event["attrs"]["audit_range"]) == (first, last)
    health = service.health()
    assert health["last_audit_ok"] is False
    assert health["checks_full"] == 0
    assert health["audit_cursor"] == first
    service.close()


#: one row of ``MATRIX`` per family for the constant that is served
SERVED_ROWS = [("one", repoint_dnode), ("ak", move_to_sibling_class)]


@pytest.mark.parametrize(
    "family,corrupt", SERVED_ROWS, ids=[f"{f}-{c.__name__}" for f, c in SERVED_ROWS]
)
def test_a_cycle_at_the_served_constant_states_and_finds_what_the_unscoped_check_does(
    family, corrupt, monkeypatch
):
    """The two properties above on XMark(1) at ``SERVED_SLICE`` (tier-1
    otherwise runs 900 to 1024 visits a slice): one cycle == the unscoped
    verdict on a row planted outside the touched region, and a served
    stream whose own checks never reach it finds it within
    ``commits_per_full_audit`` + 1 commits."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", SERVED_SLICE)
    graph, maintainer, touched = batched(family, config=XMarkConfig())
    structure = maintainer.structure
    service = IndexService(
        graph, ServiceConfig(guard=GuardConfig(policy="raise")), maintainer=maintainer
    )
    assert service.structure is structure
    quiet = min(w for w in touched.dnodes if graph.has_node(w))  # inside the batch's scope

    def commit():
        service.submit(Update.set_value(quiet, service.version))
        service.flush()

    clean, slices = cycle_verdict("minimal", graph, structure)
    bound = service.health()["commits_per_full_audit"] + 1
    assert clean is None and 4 <= slices < bound  # (a slice takes at least the constant)
    commit()  # the rows plant at low ids: behind the cursor from here on
    corrupt(graph, maintainer, outside(graph, maintainer, touched))
    with monkeypatch.context() as patch:
        without_audit(patch)
        assert verdict("minimal", graph, structure, touched) is None
    full = verdict("minimal", graph, structure)
    cycle, _ = cycle_verdict("minimal", graph, structure)
    assert type(cycle) is type(full) is InvariantViolationError, (cycle, full)
    assert cycle.definition == full.definition

    with pytest.raises(InvariantViolationError) as caught:
        while service.version <= bound:
            commit()
            assert service.health()["last_audit_ok"] is True
    assert caught.value.audit_range is not None
    assert caught.value.definition == full.definition
    health = service.health()
    assert health["last_audit_ok"] is False
    assert health["checks_local"] == health["version"] + 1  # the last one refused
    service.close()


# ----------------------------------------------------------------------
# Typed failures are counted; fall-backs take the full path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tracked", [True, False], ids=["scoped", "full"])
def test_a_corrupted_map_is_a_counted_check_failure(tracked):
    class Corrupting(SplitMergeMaintainer):
        def insert_edge(self, source, target, kind=EdgeKind.TREE):
            stats = super().insert_edge(source, target, kind)
            del self.index._inode_of[target]
            return stats

    graph, workload = prepared(5)
    guard = GuardedMaintainer(
        Corrupting(OneIndex.build(graph)), GuardConfig(policy="raise")
    )
    if tracked:
        guard.track_touched(TouchedSet())
    step = next(s for s in workload.steps(50) if s[0] == "insert")
    sink = InMemorySink()
    with observed(sink), pytest.raises(InvariantViolationError, match=str(step[2])):
        guard.apply_batch([edge_call(step)])
    assert guard.stats.check_failures == 1
    assert guard.invariants.checks_local == int(tracked)
    assert guard.stats.rollbacks == 1


def test_rolled_back_event_names_the_definition_and_the_pair():
    graph, workload = prepared(9 + CHAOS_SEED)
    guard = GuardedMaintainer(NoMerge(OneIndex.build(graph)), GuardConfig(policy="raise"))
    guard.track_touched(TouchedSet())
    sink = InMemorySink()
    with observed(sink), pytest.raises(InvariantViolationError) as caught:
        for step in workload.steps(60):
            guard.apply_batch([edge_call(step)])
    (event,) = sink.events("resilience.rolled_back")
    assert event["attrs"]["definition"] == caught.value.definition == 5
    assert tuple(event["attrs"]["pair"]) == caught.value.pair
    assert guard.invariants.checks_full == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_untracked_and_full_touched_sets_take_the_full_path(family, small_slices):
    graph, workload = prepared(11)
    guard = GuardedMaintainer(build(family, graph), GuardConfig(policy="degrade"))
    steps = workload.steps(20, validate=True)
    guard.apply_batch([edge_call(next(steps))])  # no touched set installed
    assert (guard.invariants.checks_full, guard.invariants.checks_local) == (1, 0)
    touched = TouchedSet()
    guard.track_touched(touched)
    guard.apply_batch([edge_call(next(steps))])
    assert (guard.invariants.checks_full, guard.invariants.checks_local) == (1, 1)
    assert guard.invariants.audit_cursor > 0 < guard.invariants.cycle_visited
    touched.clear()
    guard.fault_injector = FaultInjector(at_record=1)
    guard.apply_batch([edge_call(next(steps))])  # degrade: rebuild marks the set full
    assert touched.full and guard.stats.degradations == 1
    assert (guard.invariants.checks_full, guard.invariants.checks_local) == (2, 1)
    assert guard.invariants.audits == 0  # a fall-back is not an audit: it restarts one
    assert guard.invariants.audit_cursor == guard.invariants.cycle_visited == 0


def test_recovery_post_check_is_a_full_check(tmp_path, monkeypatch):
    graph, workload = prepared(13)
    service = IndexService(
        graph,
        ServiceConfig(),
        store_dir=str(tmp_path / "store"),
        store_config=StoreConfig(fsync="off"),
    )
    for step in workload.steps(8, validate=True):
        service.submit(Update(*edge_call(step)))
    service.flush()
    assert service.guarded.invariants.checks_local == 1
    service.close(checkpoint=False)

    guards = []
    real_check = InvariantGuard.check

    def spy(self, *args, **kwargs):
        guards.append(self)
        return real_check(self, *args, **kwargs)

    monkeypatch.setattr(InvariantGuard, "check", spy)
    recovered = IndexService.recover(str(tmp_path / "store"), check_level="minimal")
    assert len(guards) == 1  # replay is unchecked; one post-check covers it
    assert (guards[0].checks_full, guards[0].checks_local) == (1, 0)
    assert guards[0].last_audit_ok is True
    # ... and, as deep as the guard's, is the recovered service's first full check
    health = recovered.health()
    assert health["last_audit_version"] == recovered.version == 1
    assert health["last_audit_ok"] is True
    assert (health["checks_full"], health["checks_local"]) == (1, 0)
    assert health["audit_cursor"] == health["commits_since_audit"] == 0
    recovered.close(checkpoint=False)
    # a shallower one (the default ``valid``) or none is not: a cycle stamps
    for level in ("valid", ""):
        shallow = IndexService.recover(str(tmp_path / "store"), check_level=level)
        assert shallow.health()["last_audit_ok"] is None
        assert shallow.health()["last_audit_version"] is None
        assert shallow.health()["checks_full"] == 0
        shallow.close(checkpoint=False)


def test_a_recovered_service_vouches_for_no_more_than_recovery_checked(tmp_path):
    """A stored 1-index that is valid but not minimal recovers at the
    default ``valid`` depth; ``/health`` must not then claim the guard's
    ``minimal`` verdict — the first audit cycle finds the mergeable pair."""
    graph, workload = prepared(13)
    service = IndexService(
        graph,
        ServiceConfig(),
        store_dir=str(tmp_path / "store"),
        store_config=StoreConfig(fsync="off"),
    )
    index = service.structure
    inode = next(i for i in sorted(index.inodes()) if index.extent_size(i) > 1)
    index.move_dnode(min(index.extent(inode)), index.new_inode(index.label_of(inode)))
    assert verdict("valid", graph, index) is None  # it loads and passes recovery
    service.checkpoint()
    service.close(checkpoint=False)

    recovered = IndexService.recover(str(tmp_path / "store"))
    health = recovered.health()
    assert health["last_audit_ok"] is None and health["last_audit_version"] is None
    with pytest.raises(InvariantViolationError, match="no longer minimal"):
        recovered.check()
    assert recovered.health()["last_audit_ok"] is False
    recovered.close(checkpoint=False)


def test_recovery_refuses_an_invalid_family_at_its_default_level(tmp_path):
    """``valid`` means Definition 4 for a family too: a checkpoint whose
    family passes every structural check but holds a dnode among leaf
    classmates that sign differently does not come back as a service."""
    graph, workload = prepared(13)
    service = IndexService(
        graph,
        ServiceConfig(family="ak", k=AK_K),
        store_dir=str(tmp_path / "store"),
        store_config=StoreConfig(fsync="off"),
    )
    for step in workload.steps(8, validate=True):
        service.submit(Update(*edge_call(step)))
    service.flush()
    anywhere = TouchedSet()
    anywhere.tokens.update((AK_K, t) for t in service.structure.levels[AK_K].extents)
    move_to_sibling_class(graph, service.guarded.maintainer, anywhere)
    service.structure.check_invariants()  # structurally sound: it loads
    service.checkpoint()
    service.close(checkpoint=False)

    with pytest.raises(InvariantViolationError, match="mixes signatures") as caught:
        IndexService.recover(str(tmp_path / "store"))
    assert caught.value.definition == 4
    loaded = IndexService.recover(str(tmp_path / "store"), check_level="basic")
    loaded.close(checkpoint=False)


# ----------------------------------------------------------------------
# Health, audit cycles, O(touched + constant)
# ----------------------------------------------------------------------


class Commit(NamedTuple):
    """What the guard shows after one commit."""

    local: int  # visits of the local check
    cursor: int  # where the next audit slice starts
    audit: int  # visits of this commit's slice
    cycles: int  # audit cycles completed so far


def drive(service, workload, batches: int) -> list[Commit]:
    """Commit 16-op IDREF batches; the guard's state after each."""
    steps = workload.steps(1 << 20, validate=False)
    guard = service.guarded.invariants
    trail = []
    for _ in range(batches):
        for _ in range(16):
            service.submit(Update(*edge_call(next(steps))))
        service.flush()
        trail.append(
            Commit(guard.last_visited, guard.audit_cursor, guard.last_audit_visited, guard.audits)
        )
    return trail


def test_an_audit_completes_every_few_checks(small_slices):
    trails = []
    for _ in range(2):  # identically across two runs of one seed
        graph, workload = prepared(17 + CHAOS_SEED)
        with observed(InMemorySink()) as obs:
            service = IndexService(graph, ServiceConfig())
            trails.append(drive(service, workload, batches=20))
            counters = {
                name: obs.metrics.counter(f"resilience.{name}").value
                for name in ("checks", "audits", "check_visited", "audit_visited")
            }
            slices = obs.metrics.histogram("resilience.audit_slice_visits")
        trail = trails[-1]
        guard = service.guarded.invariants
        health = service.health()
        since = next(n for n in range(20) if trail[-1 - n].cursor == 0)  # commits since a wrap
        assert counters["checks"] == 20 == guard.checks_local
        assert counters["audits"] == guard.audits == trail[-1].cycles >= 3
        assert counters["check_visited"] == sum(commit.local for commit in trail)
        assert counters["audit_visited"] == sum(commit.audit for commit in trail)
        assert (slices.count, slices.total) == (20, counters["audit_visited"])
        assert health["checks_local"] == guard.checks_local
        assert health["checks_full"] == guard.checks_full == 0
        assert health["last_audit_ok"] is True
        assert health["commits_since_audit"] == since
        assert health["last_audit_version"] == service.version - since
        assert health["audit_cursor"] == trail[-1].cursor
        assert (health["audit_coverage"] == 0) == (since == 0)
        assert 0 <= health["audit_coverage"] < 1
        # a slice takes at least SLICE visits, so a cycle at most this many commits
        assert health["commits_per_full_audit"] == -(
            -(graph.num_nodes + 2 * graph.num_edges) // SLICE
        )
        wraps = [n for n, commit in enumerate(trail) if commit.cursor == 0]
        gaps = [b - a for a, b in zip([-1] + wraps, wraps)]
        assert all(4 <= gap <= health["commits_per_full_audit"] for gap in gaps), gaps
        service.check()  # the full check starts the next cycle over
        health = service.health()
        assert (health["checks_full"], health["commits_since_audit"]) == (1, 0)
        assert health["audit_cursor"] == health["audit_coverage"] == 0
        assert health["last_audit_version"] == service.version
        service.close()
    assert trails[0] == trails[1]
    cursors = [commit.cursor for commit in trails[0]]
    assert all(a < b or b == 0 for a, b in zip(cursors, cursors[1:]))  # forward, then round


@pytest.mark.parametrize("empties", [1, 2])
def test_only_a_commit_whose_check_ended_a_cycle_stamps_the_audit(empties, small_slices):
    """``last_audit_version`` names a commit whose own check completed a
    cycle — never one of the *empties* batches that coalesced to nothing
    right behind it — and ``commits_since_audit`` counts the commits
    published since, checked or not."""
    graph, workload = prepared(17 + CHAOS_SEED)
    service = IndexService(graph, ServiceConfig(guard=GuardConfig(policy="raise")))
    steps = workload.steps(1 << 20, validate=False)
    stats, guard = service.guarded.stats, service.guarded.invariants
    ended_a_cycle = {}
    stamps = set()
    empty = 0
    for _ in range(40):
        checks, audits = stats.checks, guard.audits
        if ended_a_cycle.get(service.version):
            source, target = workload.pool[-1]  # cancels itself: a version, no check
            for _ in range(empties):
                service.submit(Update("insert_edge", (source, target, EdgeKind.IDREF)))
                service.submit(Update("delete_edge", (source, target)))
                assert service.flush().applied == 0 and stats.checks == checks
                ended_a_cycle[service.version] = False
                empty += 1
        else:
            for _ in range(8):
                service.submit(Update(*edge_call(next(steps))))
            service.flush()
        ended_a_cycle[service.version] = guard.audits > audits
        assert stats.checks > checks or not ended_a_cycle[service.version]
        health = service.health()
        stamp = health["last_audit_version"]
        if stamp is None:
            assert health["commits_since_audit"] == service.version
        else:
            assert ended_a_cycle[stamp], f"v{stamp} ran no check that ended a cycle"
            assert health["commits_since_audit"] == service.version - stamp
            stamps.add(stamp)
    assert len(stamps) >= 3 and guard.audits == len(stamps)
    assert stats.checks == service.version - empty  # every other commit ran one
    service.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_every_non_empty_commit_is_checked_once(family):
    """At the default ``ServiceConfig`` a seeded mixed stream, with
    batches that coalesce to nothing among them, runs exactly one
    post-check — local or full — per commit that applied something."""
    graph, workload = prepared(23 + CHAOS_SEED)
    service = IndexService(graph, ServiceConfig(family=family, k=AK_K))
    steps = workload.steps(1 << 20, validate=False)
    source, target = workload.pool[-1]
    non_empty = 0
    for size in [3, 1, 0, 5, 4, 0, 2] * 6:
        for _ in range(size):
            service.submit(Update(*edge_call(next(steps))))
        if not size:  # an edge that comes and goes: the batch coalesces to nothing
            service.submit(Update("insert_edge", (source, target, EdgeKind.IDREF)))
            service.submit(Update("delete_edge", (source, target)))
        non_empty += service.flush().applied > 0
    guard = service.guarded.invariants
    assert 0 < non_empty < service.version
    assert service.guarded.stats.checks == guard.checks_local + guard.checks_full == non_empty
    assert service.guarded.stats.commits == non_empty
    health = service.health()
    assert health["checks_local"] + health["checks_full"] == non_empty
    service.close()


def visits_of(graph, dnodes) -> int:
    """The live *dnodes* and their adjacency entries, both mirrors."""
    return sum(1 + graph.in_degree(w) + graph.out_degree(w) for w in dnodes if graph.has_node(w))


def test_scoped_visits_do_not_grow_with_the_graph(monkeypatch):
    """Count-based O(touched + constant + largest extent): the same seeded
    16-op IDREF batches on XMark(1) and on XMark at 4x of every count, at
    the served slice size."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", SERVED_SLICE)
    base = XMarkConfig()
    visits = {}
    for scale in (1, 4):
        graph, workload = prepared(19, XMarkConfig(
            num_items=base.num_items * scale,
            num_persons=base.num_persons * scale,
            num_open_auctions=base.num_open_auctions * scale,
            num_closed_auctions=base.num_closed_auctions * scale,
            num_categories=base.num_categories * scale,
        ))
        service = IndexService(graph, ServiceConfig())
        index = service.structure
        guard = service.guarded.invariants
        trail = drive(service, workload, batches=12)
        assert guard.checks_full == 0
        # /health shows a cycle's largest slice once one has completed
        assert (service.health()["audit_slice_max_visited"] > 0) == (trail[-1].cycles > 0)
        while scale == 1 and not guard.audits:
            trail += drive(service, workload, batches=1)
        largest = max(visits_of(graph, index.extent(i)) for i in index.inodes())
        full = InvariantGuard(level="minimal")
        full.check(graph, service.structure)
        visits[scale] = (
            sum(commit.local for commit in trail[:12]),
            full.last_visited,
            max(commit.audit for commit in trail),
            largest,
            trail[11].cycles,
            service.health()["audit_slice_max_visited"],
        )
        service.close()
    (local_1, full_1, audit_1, largest_1, cycles_1, slice_max_1) = visits[1]
    (local_4, full_4, audit_4, largest_4, cycles_4, _) = visits[4]
    assert local_4 <= 1.5 * local_1, visits
    assert 3.5 * full_1 <= full_4 <= 4.5 * full_1, visits
    assert local_1 < 0.05 * full_1 * 12, visits
    # a slice ends with the inode that reaches the constant, at either scale
    assert SERVED_SLICE <= audit_1 <= SERVED_SLICE + largest_1, visits
    assert SERVED_SLICE <= audit_4 <= SERVED_SLICE + largest_4, visits
    assert SERVED_SLICE <= slice_max_1 <= audit_1, visits
    # ... so twelve commits are this many whole cycles of ⌈full ÷ constant⌉ commits
    assert cycles_1 == 12 // -(-full_1 // SERVED_SLICE), visits
    assert cycles_4 == 12 // -(-full_4 // SERVED_SLICE), visits
