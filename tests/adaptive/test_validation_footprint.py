"""The layered validator's dnode footprint against the result cache's contract.

A validated answer is cached with the dnodes its validation read — the
backward layers, closed at the automaton's loop states
(``repro.query.index_evaluator``).  The cache revalidates an entry across
a commit when neither its tokens nor those dnodes changed, so the
footprint is sound only if an answer *cannot* change otherwise.  Stated
here over every version of a seeded ``MixedUpdateWorkload`` stream
(``ADAPT_SEED`` moves it) on audited adaptive A(1) and A(2) services, for
two pools drawn from the same walks: child-only expressions longer than
k, and the descendant shapes ``//x``, ``/a//x`` and ``//a/b``:

* an answer that differs between two consecutive versions had its tokens
  or its dnode footprint hit by the commit between them;
* every footprint is the layers written out from their definition, loop
  layers included, inside the candidates' ancestor cone, and *equal* to
  it for ``//x`` and ``/a//x`` — the shapes the walks and the benchmark
  draw;
* the layers never drop an entry the cone would have kept, so
  ``adaptive.cache_revalidated_share`` is not lower than at the parent
  commit — by construction on any seed, and against the parent's measured
  figure on the seeds the CI matrix runs;
* a plain follower — ``IndexSnapshot.evaluate``, no cache — answers what
  the primary answers at equal LSN.
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive.result_cache import DEFAULT_CAPACITY
from repro.adaptive.router import SAFE
from repro.graph.datagraph import EdgeKind
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import evaluate_on_index
from repro.replication import FollowerIndexService, Primary, ReplicationLink
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.adaptive.conftest import ADAPT_SEED, ADAPTIVE_XMARK
from tests.query.test_cone_reference import ancestors_of
from tests.query.test_validation import expected_footprint, only_the_last_step_descends

COMMITS = 16
OPS_PER_COMMIT = 4

#: ``adaptive.cache_revalidated_share`` of this stream at the parent commit
#: of the child-only layers (the cone footprint), per (ADAPT_SEED, k):
#: revalidated / (revalidated + invalidated) over the whole run, measured
#: there for the seeds CI runs.  (The layers read 0.425 / 0.377, 0.414 /
#: 0.433 and 0.470 / 0.418.)
PARENT_SHARE = {
    (0, 1): 0.1648, (0, 2): 0.1294,
    (1, 1): 0.1482, (1, 2): 0.1399,
    (2, 1): 0.1825, (2, 2): 0.1288,
}

#: the same for the descendant pool, measured at the parent commit of the
#: descendant layers (every descendant footprint the cone).  (The layers
#: read 0.0419 / 0.0210, 0.0413 / 0.0413 and 0.0208 / 0.0208: only the
#: ``//a/b`` entries can gain.)
PARENT_DESCENDANT_SHARE = {
    (0, 1): 0.0373, (0, 2): 0.0187,
    (1, 1): 0.0366, (1, 2): 0.0366,
    (2, 1): 0.0182, (2, 2): 0.0182,
}


def start(k: int, store_dir=None):
    """An audited adaptive A(k) service, its update stream and its walks."""
    graph = generate_xmark(ADAPTIVE_XMARK).graph
    workload = MixedUpdateWorkload.prepare(graph, seed=31 + ADAPT_SEED)
    service = IndexService(
        graph,
        ServiceConfig(family="ak", k=k, batch_max_ops=OPS_PER_COMMIT),
        adaptive=AdaptiveConfig(levels=(), audit=True, retune_every=0),
        store_dir=store_dir,
    )
    walks = QueryWorkload.generate(
        graph, count=600, seed=5 + ADAPT_SEED, max_depth=6, descendant_fraction=0.0
    )
    stream = (
        Update.insert_edge(s, t, EdgeKind.IDREF) if op == "insert" else Update.delete_edge(s, t)
        for op, s, t in workload.steps(COMMITS * OPS_PER_COMMIT // 2)
    )
    return service, stream, walks.expressions


def child_pool(walks: list[str], k: int) -> list[str]:
    """Child-only and longer than k: the safe route, validated by layers."""
    return sorted({e for e in walks if e.count("/") > k})


def descendant_pool(walks: list[str]) -> list[str]:
    """``//x``, ``/a//x`` and ``//a/b`` of every walk ``/a/.../b/x``: the safe
    route, validated in layers closed at their loop states."""
    pool = set()
    for expression in walks:
        labels = expression.split("/")[1:]
        if len(labels) > 1:
            pool.update((
                f"//{labels[-1]}", f"/{labels[0]}//{labels[-1]}", f"//{labels[-2]}/{labels[-1]}",
            ))
    return sorted(pool)


def commit(service, stream) -> None:
    before = service.version
    for _ in range(OPS_PER_COMMIT):
        service.submit(next(stream))
    service.drain()
    assert service.version > before


def assert_footprints_hold(service, stream, pool) -> tuple[float, int]:
    """Run the stream under *pool*; returns the revalidated share and how
    many entries the layers kept where the cone would have dropped them."""
    assert 30 < len(pool) < DEFAULT_CAPACITY  # no LRU eviction: a drop is an invalidation
    staged = []
    stage = service.adaptive.stage

    def recording_stage(snapshot, touched):
        staged.append(stage(snapshot, touched))
        return staged[-1]

    service.adaptive.stage = recording_stage
    changed_answers = kept_by_layers_only = 0
    for _ in range(COMMITS):
        prev = service.snapshot
        entries = {}
        for expression in pool:  # audited: each is the graph's answer at prev
            served = service.query(expression)
            entry = service.cache.lookup(SAFE, expression, prev.version)
            assert entry is not None and entry.matches == served.matches
            assert entry.validated == bool(entry.dnodes)
            entries[expression] = entry
        commit(service, stream)
        changed, changed_dnodes = staged[-1]
        assert changed is not None  # no full capture in this stream
        for expression, entry in entries.items():
            hit = bool(entry.tokens & changed[SAFE] or entry.dnodes & changed_dnodes)
            truth = evaluate_on_graph(service.snapshot.graph, expression).matches
            if truth != entry.matches:
                changed_answers += 1
                assert hit, (service.version, expression)
            # what survives is what the cache kept, and it is still right
            kept = service.cache.lookup(SAFE, expression, service.version)
            assert (kept is None) == hit, (service.version, expression)
            # the footprint is the layers, loop layers included, inside the
            # parent's footprint, the candidates' whole ancestor cone
            candidates = evaluate_on_index(prev.index, expression).matches
            cone = ancestors_of(prev.graph, candidates) if candidates else set()
            if entry.validated:
                assert entry.dnodes == expected_footprint(prev.graph, expression, candidates)
            assert entry.dnodes <= cone
            if only_the_last_step_descends(expression):
                assert entry.dnodes == cone, (service.version, expression)
            cone_hit = bool(entry.tokens & changed[SAFE] or cone & changed_dnodes)
            assert cone_hit or not hit  # never dropped where the cone kept
            kept_by_layers_only += cone_hit and not hit
    stats = service.cache.stats
    assert changed_answers > 0 and stats.revalidated > 0 and stats.invalidated > 0
    service.check()
    return stats.revalidated / (stats.revalidated + stats.invalidated), kept_by_layers_only


@pytest.mark.parametrize("k", [1, 2])
def test_an_answer_changes_only_if_its_footprint_was_touched(k):
    service, stream, walks = start(k)
    try:
        share, kept_by_layers_only = assert_footprints_hold(service, stream, child_pool(walks, k))
    finally:
        service.close()
    assert kept_by_layers_only > 0
    assert share >= PARENT_SHARE.get((ADAPT_SEED, k), 0.0), share


@pytest.mark.parametrize("k", [1, 2])
def test_a_descendant_answer_changes_only_if_its_footprint_was_touched(k):
    service, stream, walks = start(k)
    pool = descendant_pool(walks)
    assert any(e.startswith("//") and e.count("/") == 2 for e in pool)  # //x
    assert any(not e.startswith("//") for e in pool)  # /a//x
    assert any(e.startswith("//") and e.count("/") == 3 for e in pool)  # //a/b
    try:
        share, _ = assert_footprints_hold(service, stream, pool)
    finally:
        service.close()
    assert share >= PARENT_DESCENDANT_SHARE.get((ADAPT_SEED, k), 0.0), share


@pytest.mark.parametrize("k", [1, 2])
def test_a_plain_follower_answers_what_the_primary_answers_at_equal_lsn(k, tmp_path):
    primary, stream, walks = start(k, store_dir=str(tmp_path / "store"))
    pool = child_pool(walks, k) + descendant_pool(walks)
    follower = FollowerIndexService.bootstrap(ReplicationLink(Primary(service=primary)))
    assert follower.adaptive is None
    try:
        for _ in range(COMMITS // 2):
            commit(primary, stream)
            follower.catch_up()
            assert follower.applied_lsn == primary.wal.last_lsn
            for expression in pool:
                theirs = follower.query(expression).report
                assert theirs.matches == primary.query(expression).matches, expression
                assert theirs.validated or not theirs.matches
    finally:
        follower.close()
        primary.close()
