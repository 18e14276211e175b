"""The layered validator's dnode footprint against the result cache's contract.

A validated child-only answer is cached with the dnodes its validation
read — the backward layers, no longer the candidates' ancestor cone
(``repro.query.index_evaluator``).  The cache revalidates an entry across
a commit when neither its tokens nor those dnodes changed, so the
footprint is sound only if an answer *cannot* change otherwise.  Stated
here over every version of a seeded ``MixedUpdateWorkload`` stream
(``ADAPT_SEED`` moves it) on audited adaptive A(1) and A(2) services:

* an answer that differs between two consecutive versions had its tokens
  or its dnode footprint hit by the commit between them;
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
from repro.query.evaluator import ancestors_of, evaluate_on_graph
from repro.query.index_evaluator import evaluate_on_index
from repro.replication import FollowerIndexService, Primary, ReplicationLink
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.adaptive.conftest import ADAPT_SEED, ADAPTIVE_XMARK

COMMITS = 16
OPS_PER_COMMIT = 4

#: ``adaptive.cache_revalidated_share`` of this stream at the parent commit
#: (the cone footprint), per (ADAPT_SEED, k): revalidated / (revalidated +
#: invalidated) over the whole run, measured there for the seeds CI runs.
#: (The layers read 0.425 / 0.377, 0.414 / 0.433 and 0.470 / 0.418.)
PARENT_SHARE = {
    (0, 1): 0.1648, (0, 2): 0.1294,
    (1, 1): 0.1482, (1, 2): 0.1399,
    (2, 1): 0.1825, (2, 2): 0.1288,
}


def start(k: int, store_dir=None):
    """An audited adaptive A(k) service, its update stream and its query pool."""
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
    # child-only and longer than k: the safe route, validated by layers
    pool = sorted({e for e in walks.expressions if e.count("/") > k})
    assert 30 < len(pool) < DEFAULT_CAPACITY  # no LRU eviction: a drop is an invalidation
    stream = (
        Update.insert_edge(s, t, EdgeKind.IDREF) if op == "insert" else Update.delete_edge(s, t)
        for op, s, t in workload.steps(COMMITS * OPS_PER_COMMIT // 2)
    )
    return service, stream, pool


def commit(service, stream) -> None:
    before = service.version
    for _ in range(OPS_PER_COMMIT):
        service.submit(next(stream))
    service.drain()
    assert service.version > before


@pytest.mark.parametrize("k", [1, 2])
def test_an_answer_changes_only_if_its_footprint_was_touched(k):
    service, stream, pool = start(k)
    staged = []
    stage = service.adaptive.stage

    def recording_stage(snapshot, touched):
        staged.append(stage(snapshot, touched))
        return staged[-1]

    service.adaptive.stage = recording_stage
    changed_answers = kept_by_layers_only = 0
    try:
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
                # the parent's footprint: the candidates' whole ancestor cone
                candidates = evaluate_on_index(prev.index, expression).matches
                cone = ancestors_of(prev.graph, set(candidates)) if candidates else set()
                assert entry.dnodes <= cone
                cone_hit = bool(entry.tokens & changed[SAFE] or cone & changed_dnodes)
                assert cone_hit or not hit  # never dropped where the cone kept
                kept_by_layers_only += cone_hit and not hit
        stats = service.cache.stats
        share = stats.revalidated / (stats.revalidated + stats.invalidated)
        assert changed_answers > 0 and stats.revalidated > 0 and stats.invalidated > 0
        assert kept_by_layers_only > 0
        assert share >= PARENT_SHARE.get((ADAPT_SEED, k), 0.0), share
        service.check()
    finally:
        service.close()


@pytest.mark.parametrize("k", [1, 2])
def test_a_plain_follower_answers_what_the_primary_answers_at_equal_lsn(k, tmp_path):
    primary, stream, pool = start(k, store_dir=str(tmp_path / "store"))
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
