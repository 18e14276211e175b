"""The whole serving stack, composed: durable + adaptive + replicated.

Run with::

    python examples/serving_stack.py

One document corpus served through every part an ``IndexService`` can
hold at once: a store (WAL + checkpoints) and the adaptive plane on the
primary, an adaptive follower fed by WAL shipping, reads spread by a
``ReplicaRouter``.  Documents churn with the live telemetry plane
attached (``/health`` judged by the stock SLO rules), the primary
crashes, the store is recovered, and finally the follower is promoted
over the same log — with snapshot fingerprints compared at every
hand-over.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import urllib.request

from repro.adaptive import AdaptiveConfig
from repro.corpus import CorpusService
from repro.corpus.churn import mutate_document
from repro.obs import default_service_rules, observed
from repro.replication import (
    FollowerIndexService,
    Primary,
    ReplicaRouter,
    ReplicationLink,
    promote,
)
from repro.service import IndexService, ServiceConfig
from repro.store import StoreConfig
from repro.workload.documents import split_into_documents
from repro.workload.xmark import XMarkConfig, generate_xmark

QUERIES = ["//item/name", "/site/people/person", "//open_auction//seller"]
ADAPTIVE = AdaptiveConfig(audit=True)  # every served answer re-derived from its version
STORE = StoreConfig(fsync="always", checkpoint_every_records=0)


def main(workdir: str) -> None:
    store_dir = f"{workdir}/store"
    xmark = generate_xmark(XMarkConfig(num_items=12, num_persons=16, num_open_auctions=10))
    documents = dict(split_into_documents(xmark.graph, 6))

    # 1. One constructor call composes the primary: durable *and* adaptive.
    corpus = CorpusService.bulk_load(
        documents.items(),
        config=ServiceConfig(family="ak", k=2),
        store_dir=store_dir,
        store_config=STORE,
        adaptive=ADAPTIVE,
    )
    primary = corpus.service
    print(f"primary: {primary!r}, parts: store={primary.store_dir!r} cache={primary.cache!r}")

    # 2. An adaptive follower bootstraps off checkpoint 0 and tails the WAL.
    follower = FollowerIndexService.bootstrap(
        ReplicationLink(Primary(service=primary)), adaptive=ADAPTIVE
    )
    router = ReplicaRouter([follower], primary, max_lag_lsns=0)

    # 3. Document churn on the primary; reads go through the router.  The
    #    live plane serves /metrics and /health on an ephemeral port meanwhile.
    rng = random.Random(7)
    with observed():
        telemetry = primary.start_telemetry(rules=default_service_rules())
        for round_number, doc_id in enumerate(sorted(documents)):
            if round_number % 3 == 2:
                corpus.remove_document(doc_id)
            else:
                corpus.replace_document(doc_id, mutate_document(documents[doc_id], rng))
            corpus.await_quiescent()
            follower.catch_up()
            assert follower.snapshot.fingerprint() == primary.snapshot.fingerprint()
            for expression in QUERIES:
                assert router.query(expression).matches == primary.query(expression).matches
        with urllib.request.urlopen(f"{telemetry.url}/health") as reply:
            health = json.load(reply)
        assert reply.status == 200 and health["status"] == "ok", health
        assert health["service"]["version"] == primary.version
        print(f"live plane: {telemetry.url}/health is {health['status']} under the stock SLO rules")
        primary.stop_telemetry()
    assert router.fallbacks == 0 and follower.cache.stats.hits > 0
    acknowledged = (primary.version, primary.snapshot.fingerprint())
    print(f"churned to v{primary.version}; follower applied {follower.records_applied} records")

    # 4. Crash: no closing checkpoint.  Recovery replays the log into a
    #    service with the same parts, at the last acknowledged version.
    primary.close(checkpoint=False)
    recovered = IndexService.recover(store_dir, store_config=STORE, adaptive=ADAPTIVE)
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    print(f"recovered v{recovered.version} by replaying {recovered.recovery.replayed_records}")
    recovered.wal.close()  # ...and the recovered primary dies too

    # 5. Failover: the follower takes over the log, adaptive plane included.
    promoted = promote(store_dir, [follower], old_primary=recovered, store_config=STORE).promoted
    assert (promoted.version, promoted.snapshot.fingerprint()) == acknowledged
    assert promoted.adaptive is not None and promoted.store_dir == store_dir
    survivor = CorpusService(promoted, corpus.catalog)
    returning = next(d for d in sorted(documents) if not survivor.has_document(d))
    survivor.add_document(returning, documents[returning])
    survivor.await_quiescent()
    assert promoted.wal.last_lsn == promoted.version == acknowledged[0] + 1
    assert promoted.query(QUERIES[0]).version == promoted.version
    survivor.check()
    print(f"promoted: {promoted!r} keeps committing over {promoted.store_dir!r}")
    survivor.close()


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as scratch:
            main(scratch)
