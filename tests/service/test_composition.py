"""The composition matrix, the stage order under faults, and the structure.

Durability, the adaptive plane and replication are parts one
:class:`IndexService` holds, so every combination must serve the same
answers as every other.  Three layers of evidence:

* **the matrix** — {volatile, durable} x {plain, adaptive} primaries and
  {plain, adaptive} followers, both families, driven by one mixed
  update/query stream and checked against ground truth at every version;
  a fresh, a recovered, a bootstrapped and a promoted service each state
  one ``kind`` / ``k`` — the maintained structure's — in every place
  that states it;
* **the stage order** — what a fault between two stages of
  ``IndexService._commit`` leaves behind (nothing half-visible);
* **the structure** — read off ``src/`` with :mod:`ast`: one commit
  path, no subclass overriding it.

``SOAK_SEED`` shifts the stream like in the rest of the serving suite.
"""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

import repro
from repro.adaptive import AdaptiveConfig
from repro.exceptions import InjectedFaultError, ReproError, ServiceError, StoreError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.oneindex import OneIndex
from repro.index.stability import is_minimum_1index
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.query.evaluator import evaluate_on_graph
from repro.replication import FollowerIndexService, Primary, ReplicationLink, promote
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.service.snapshot import IndexSnapshot
from repro.store import StoreConfig, latest_checkpoint, list_segments
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.service.conftest import SERVICE_XMARK, SOAK_SEED

ROUNDS = 24
DURABLE = StoreConfig(fsync="always", checkpoint_every_records=0)
FAMILIES = ["one", "ak"]
PLANES = ["plain", "adaptive"]


def adaptive_config(plane: str):
    """Audited, so the plane re-derives every answer it serves itself."""
    return AdaptiveConfig(audit=True) if plane == "adaptive" else None


def service_config(family: str, **overrides) -> ServiceConfig:
    return ServiceConfig(family=family, k=2, batch_max_ops=8, **overrides)


def misnamed(family: str) -> ServiceConfig:
    """A caller's config that names the *other* family than the store's."""
    return service_config("ak" if family == "one" else "one")


def bootstrap(primary: IndexService, plane: str, config=None) -> FollowerIndexService:
    link = ReplicationLink(Primary(service=primary), sleep=lambda _s: None)
    return FollowerIndexService.bootstrap(link, config, adaptive=adaptive_config(plane))


def check_kind(service: IndexService, family: str, store_dir=None) -> None:
    """``kind`` / ``k`` are the structure's wherever they are stated."""
    stated = (family, 2 if family == "ak" else 0)
    health = service.health()
    assert (service.structure.kind, service.structure.k) == stated
    assert (service.snapshot.kind, service.snapshot.k) == stated
    assert (health["family"], health["k"]) == stated
    if store_dir is not None:
        checkpoint = latest_checkpoint(store_dir)
        assert (checkpoint.kind, checkpoint.k) == stated
    if service.adaptive is not None:
        assert service.router.k == stated[1]


def check_version(service: IndexService, pool) -> None:
    """Ground truth and publication identity at the served version."""
    snapshot = service.snapshot
    fresh = IndexSnapshot.capture(snapshot.version, service.graph, service.structure)
    assert snapshot.fingerprint() == fresh.fingerprint()
    for expression in pool:
        served = service.query(expression)
        assert served.version == snapshot.version
        truth = evaluate_on_graph(snapshot.graph, expression).matches
        assert served.matches == truth, f"v{snapshot.version} {expression!r}"


class Stream:
    """One seeded mixed update/query stream over the serving XMark."""

    def __init__(self) -> None:
        self.graph = generate_xmark(SERVICE_XMARK).graph
        updates = MixedUpdateWorkload.prepare(self.graph, seed=31 + SOAK_SEED)
        self._ops = updates.steps(ROUNDS * 8, validate=False)
        self.pool = list(
            QueryWorkload.generate(
                self.graph, count=6, seed=37 + SOAK_SEED, max_depth=4,
                descendant_fraction=0.4,
            )
        )
        self._anchor = min(self.graph.nodes())

    def round(self, round_number: int) -> list[Update]:
        """One round's updates: edge churn, a node, a value."""
        updates = []
        for _ in range(1 + round_number % 5):
            op, source, target = next(self._ops)
            if op == "insert":
                updates.append(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                updates.append(Update.delete_edge(source, target))
        if round_number % 3 == 0:
            updates.append(Update.insert_node(self._anchor, "note", round_number))
        if round_number % 4 == 0:
            updates.append(Update.set_value(self._anchor, round_number))
        return updates

    def commit(self, primary: IndexService, round_number: int, resubmit: bool = False):
        """Submit one round and flush it; with *resubmit*, a batch that
        rolled back on an injected fault is submitted once more."""
        updates = self.round(round_number)
        published = primary.stats.versions_published
        for update in updates:
            primary.submit(update)
        try:
            result = primary.flush()
        except InjectedFaultError:
            if not resubmit:
                raise
            for update in updates:
                primary.submit(update)
            result = primary.flush()
        assert result.version == primary.version
        assert primary.stats.versions_published == published + 1
        return result

    def drive(
        self, primary: IndexService, followers=(), rounds=range(ROUNDS), resubmit=False
    ) -> None:
        for round_number in rounds:
            self.commit(primary, round_number, resubmit)
            check_version(primary, self.pool)
            for follower in followers:
                follower.catch_up()
                assert follower.applied_lsn == primary.wal.last_lsn
                assert follower.version == primary.version
                assert follower.snapshot.fingerprint() == primary.snapshot.fingerprint()
                check_version(follower, self.pool)


# ----------------------------------------------------------------------
# (a) the matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plane", PLANES)
def test_volatile_primary(family, plane):
    stream = Stream()
    service = IndexService(
        stream.graph, service_config(family), adaptive=adaptive_config(plane)
    )
    assert not hasattr(service, "wal")
    assert hasattr(service, "cache") == (plane == "adaptive")
    check_kind(service, family)
    stream.drive(service)
    check_kind(service, family)
    service.check()
    service.close()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plane", PLANES)
def test_durable_primary_survives_a_crash(tmp_path, family, plane):
    stream = Stream()
    store_dir = str(tmp_path / "store")
    service = IndexService(
        stream.graph,
        service_config(family),
        store_dir=store_dir,
        store_config=DURABLE,
        adaptive=adaptive_config(plane),
    )
    assert hasattr(service, "wal") and service.store_dir == store_dir
    assert hasattr(service, "cache") == (plane == "adaptive")
    check_kind(service, family, store_dir)
    stream.drive(service, rounds=range(ROUNDS // 2))
    acknowledged = (service.version, service.snapshot.fingerprint())
    service.close(checkpoint=False)  # the crash: recovery must replay the log

    # the store's structure wins over the family the caller's config
    # names, and the caller's object is handed through, not rewritten
    requested = misnamed(family)
    recovered = IndexService.recover(
        store_dir, requested, store_config=DURABLE, adaptive=adaptive_config(plane)
    )
    assert recovered.recovery.replayed_records == ROUNDS // 2
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    assert recovered.config is requested and requested.family != family
    check_kind(recovered, family, store_dir)
    assert hasattr(recovered, "cache") == (plane == "adaptive")
    stream.drive(recovered, rounds=range(ROUNDS // 2, ROUNDS))
    assert recovered.wal.last_lsn == recovered.version == ROUNDS
    recovered.check()
    recovered.close()
    check_kind(recovered, family, store_dir)  # ... and the closing checkpoint's


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plane", PLANES)
def test_follower_tracks_its_primary_and_takes_over(tmp_path, family, plane):
    stream = Stream()
    store_dir = str(tmp_path / "store")
    # the primary runs the other plane: a record replays identically
    # whether or not either side routes and caches
    primary = IndexService(
        stream.graph,
        service_config(family),
        store_dir=store_dir,
        store_config=DURABLE,
        adaptive=adaptive_config("plain" if plane == "adaptive" else "adaptive"),
    )
    requested = misnamed(family)
    follower = bootstrap(primary, plane, requested)
    assert follower.config is requested and requested.family != family
    check_kind(follower, family)
    assert hasattr(follower, "cache") == (plane == "adaptive")
    assert not hasattr(follower, "wal")
    stream.drive(primary, [follower], rounds=range(ROUNDS // 2))
    assert follower.stats.batches == follower.records_applied == ROUNDS // 2
    acknowledged = (primary.version, primary.snapshot.fingerprint())
    primary.wal.close()  # the primary dies

    outcome = promote(store_dir, [follower], old_primary=primary, store_config=DURABLE)
    promoted = outcome.promoted
    assert (promoted.version, promoted.snapshot.fingerprint()) == acknowledged
    # the winner's plane carries across, over the primary's own log
    assert hasattr(promoted, "cache") == (plane == "adaptive")
    assert promoted.store_dir == store_dir
    check_kind(promoted, family, store_dir)
    stream.drive(promoted, rounds=range(ROUNDS // 2, ROUNDS))
    assert promoted.wal.last_lsn == promoted.version == ROUNDS
    promoted.check()
    promoted.close()


def test_a_follower_takes_no_store(tmp_path):
    primary = IndexService(
        generate_xmark(SERVICE_XMARK).graph,
        service_config("one"),
        store_dir=str(tmp_path / "store"),
        store_config=DURABLE,
    )
    link = ReplicationLink(Primary(service=primary))
    with pytest.raises(ServiceError, match="takes no store"):
        FollowerIndexService.bootstrap(link, store_dir=str(tmp_path / "second"))
    primary.close()


# ----------------------------------------------------------------------
# reconstruction is an ordinary operation of a commit
# ----------------------------------------------------------------------


def bloated_index(depth: int = 6):
    """A valid 1-index with mergeable twins two levels below the root.

    The recipe of ``tests/maintenance/test_reconstruction.degraded_index``
    — propagate an edge in and out of one of two bisimilar (cyclic)
    chains; propagate splits every chain position and cannot merge them
    back — under a ``top/hub`` spine and beside a ``side/leaf`` branch,
    so the merges leave the root's and the branch's entries alone.
    """
    graph = DataGraph()
    root = graph.add_root()
    side, leaf, top, hub, marker = (
        graph.add_node(label) for label in ("side", "leaf", "top", "hub", "M")
    )
    for source, target in ((root, side), (side, leaf), (root, top), (top, hub), (root, marker)):
        graph.add_edge(source, target)
    heads = []
    for _ in range(2):
        head = previous = graph.add_node("A")
        graph.add_edge(hub, head)
        for position in range(depth):
            node = graph.add_node(f"L{position % 3}")
            graph.add_edge(previous, node)
            previous = node
        graph.add_edge(previous, head)
        heads.append(head)
    index = OneIndex.build(graph)
    propagate = PropagateMaintainer(index)
    propagate.insert_edge(marker, heads[0])
    propagate.delete_edge(marker, heads[0])
    assert not is_minimum_1index(index)
    return graph, index


def bloated_primary(store_dir: str, plane: str, **config) -> IndexService:
    """A durable 1-index service whose index is valid but not minimal."""
    graph, index = bloated_index()
    return IndexService(
        graph,
        service_config("one", **config),
        maintainer=SplitMergeMaintainer(index),
        store_dir=store_dir,
        store_config=DURABLE,
        adaptive=adaptive_config(plane),
    )


#: the first misses every merged inode; the rest read them
GADGET_POOL = ["/side/leaf", "//A", "//L1", "/top/hub/A/L0"]


@pytest.mark.parametrize("plane", PLANES)
def test_a_merging_reconstruct_record_replays_byte_identically(tmp_path, plane):
    store_dir = str(tmp_path / "store")
    primary = bloated_primary(store_dir, plane)
    follower = bootstrap(primary, plane)
    before = primary.snapshot.num_inodes
    for service in (primary, follower):
        for expression in GADGET_POOL:
            service.query(expression)

    primary.submit(Update.reconstruct())
    result = primary.flush()
    assert result.reconstructed and result.version == primary.version == 1
    assert primary.snapshot.num_inodes < before  # it really merged
    assert is_minimum_1index(primary.guarded.index)
    check_version(primary, GADGET_POOL)
    follower.catch_up()
    assert follower.version == primary.wal.last_lsn == 1
    assert follower.snapshot.fingerprint() == primary.snapshot.fingerprint()
    check_version(follower, GADGET_POOL)
    if plane == "adaptive":
        for service in (primary, follower):
            # published from the journaled merges, not a full capture:
            # entries whose footprint misses the merged inodes survive
            assert service.cache.stats.flushes == 0
            assert service.cache.stats.revalidated > 0
            assert service.cache.stats.invalidated > 0
            assert service.controller.policy.reconstructions == 1
    acknowledged = primary.snapshot.fingerprint()
    primary.close(checkpoint=False)
    follower.close()

    recovered = IndexService.recover(
        store_dir, store_config=DURABLE, adaptive=adaptive_config(plane)
    )
    assert recovered.recovery.replayed_records == 1
    assert recovered.version == 1
    assert recovered.snapshot.fingerprint() == acknowledged
    recovered.close()


def test_a_faulted_reconstruct_rolls_back_cleanly(tmp_path):
    store_dir = str(tmp_path / "store")
    primary = bloated_primary(store_dir, "adaptive", guard=GuardConfig(policy="raise"))
    follower = bootstrap(primary, "plain")
    before = primary.snapshot.fingerprint()
    primary.guarded.fault_injector = FaultInjector(at_record=5)  # a few merges in
    primary.submit(Update.reconstruct())
    with pytest.raises(InjectedFaultError):
        primary.flush()
    assert primary.guarded.stats.rollbacks == 1
    assert primary.version == 0 and primary.wal.last_lsn == 0
    assert not is_minimum_1index(primary.guarded.index)
    primary.check()
    # the fault was one-shot: the next attempt merges and publishes
    primary.reconstruct_now(reason="retry")
    assert primary.version == primary.wal.last_lsn == 1
    assert is_minimum_1index(primary.guarded.index)
    assert primary.snapshot.fingerprint() != before
    check_version(primary, GADGET_POOL)
    # the rollback reordered the live index's tables; which inode
    # survives each merge must not depend on that order
    follower.catch_up()
    assert follower.snapshot.fingerprint() == primary.snapshot.fingerprint()
    primary.close(checkpoint=False)
    recovered = IndexService.recover(store_dir, store_config=DURABLE)
    assert recovered.snapshot.fingerprint() == follower.snapshot.fingerprint()
    recovered.close()
    follower.close()


def test_at_most_one_reconstruct_is_outstanding():
    graph, index = bloated_index()
    service = IndexService(
        graph,
        service_config("one"),
        maintainer=SplitMergeMaintainer(index),
        adaptive=AdaptiveConfig(),
    )
    controller = service.controller
    controller.policy.start(1)  # any size now reads as bloat past the hard cap
    service.submit(Update.set_value(min(graph.nodes()), "x"))
    result = service.flush()
    assert not result.reconstructed and service.queue.holds("reconstruct")
    controller.on_commit(result)  # a second tick while the first waits
    assert service.queue_depth() == 1
    result = service.flush()
    assert result.reconstructed and controller.policy.reconstructions == 1
    assert service.queue_depth() == 0
    service.close()


# ----------------------------------------------------------------------
# (b) the stage order under faults
# ----------------------------------------------------------------------


def durable_adaptive(tmp_path, family: str):
    """A durable adaptive service (guard policy ``raise``), cache warmed."""
    stream = Stream()
    store_dir = str(tmp_path / "store")
    service = IndexService(
        stream.graph,
        service_config(family, guard=GuardConfig(policy="raise")),
        store_dir=store_dir,
        store_config=DURABLE,
        adaptive=AdaptiveConfig(audit=True),
    )
    stream.drive(service, rounds=range(3))
    return stream, store_dir, service


def visible_state(service: IndexService):
    """Everything a commit may only change at or after its publish."""
    return (
        service.version,
        service.snapshot,
        service.snapshot.ladder,
        service.stats.versions_published,
        service.wal.last_lsn,
        len(service.cache),
        service.cache.stats.as_dict(),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_a_fault_in_apply_logs_and_publishes_nothing(tmp_path, family):
    stream, store_dir, service = durable_adaptive(tmp_path, family)
    before = visible_state(service)
    service.guarded.fault_injector = FaultInjector(at_record=2)
    with pytest.raises(InjectedFaultError):
        stream.commit(service, 3)
    assert visible_state(service) == before
    assert service.stats.batch_failures == 1
    # the rolled-back touches stay, so the next publish re-captures them
    assert service._touched.dnodes
    stream.drive(service, rounds=range(4, 8))
    assert not service._touched.dnodes
    service.check()
    service.close()


class AfterATokenIssue:
    """An ``on_record`` hook: fault once, on the first family record that
    follows a class opening in the same transaction — mid level refresh,
    with a fresh token already handed out."""

    def __init__(self) -> None:
        self.opened = False
        self.fired = 0

    def __call__(self, op: str, count: int) -> None:
        if count == 1:
            self.opened = False
        if op == "class_opened":
            self.opened = True
        elif self.opened and not self.fired and op in ("member_moved", "class_closed"):
            self.fired += 1
            raise InjectedFaultError(f"after a token issue ({op})", count)


def test_a_retried_ak_batch_issues_the_tokens_of_a_run_that_never_failed(tmp_path):
    stream = Stream()
    store_dir = str(tmp_path / "store")
    primary = IndexService(
        stream.graph,
        service_config("ak", guard=GuardConfig(policy="raise")),
        store_dir=store_dir,
        store_config=DURABLE,
    )
    follower = bootstrap(primary, "plain")  # replays every record fault-free
    primary.guarded.fault_injector = injector = AfterATokenIssue()
    # rolled back under ``raise``, the batch is resubmitted; leaf tokens key
    # the published entries: equal fingerprints at every version (``drive``)
    # mean the resubmission re-issued what the rollback took back
    stream.drive(primary, [follower], rounds=range(ROUNDS // 2), resubmit=True)
    assert injector.fired == 1
    assert primary.guarded.stats.rollbacks == primary.stats.batch_failures == 1
    acknowledged = (primary.version, primary.snapshot.fingerprint())
    primary.close(checkpoint=False)
    follower.close()
    recovered = IndexService.recover(store_dir, store_config=DURABLE)
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    recovered.check()
    recovered.close()


def whole_state(service: IndexService):
    """The visible state plus the live pair, the touched set and the log's bytes."""
    live = IndexSnapshot.capture(0, service.graph, service.structure)
    touched = service._touched
    log = [
        pathlib.Path(service.store_dir, name).read_bytes()
        for name in list_segments(service.store_dir)
    ]
    return (
        visible_state(service),
        live.fingerprint(),
        [service.graph.value(oid) for oid in sorted(service.graph.nodes())],
        {name: repr(getattr(touched, name)) for name in touched.__slots__},
        log,
    )


def unencodable_value(service: IndexService) -> list[Update]:
    anchor = min(service.graph.nodes())
    return [
        Update.insert_node(anchor, "extra", "legit"),
        Update.set_value(anchor, {1, 2, 3}),
    ]


def unencodable_subgraph(service: IndexService) -> list[Update]:
    anchor = min(service.graph.nodes())
    subgraph = DataGraph()
    top = subgraph.add_node("extra", {1, 2, 3}, oid=max(service.graph.nodes()) + 10)
    return [
        Update.set_value(anchor, "legit"),
        Update.add_subgraph(subgraph, top, ((anchor, top),)),
    ]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("batch_of", [unencodable_value, unencodable_subgraph])
def test_a_batch_the_log_cannot_carry_fails_before_it_is_applied(
    tmp_path, family, batch_of, monkeypatch
):
    stream, store_dir, service = durable_adaptive(tmp_path, family)
    follower = bootstrap(service, "plain")
    before = whole_state(service)
    failures = service.stats.batch_failures
    for update in batch_of(service):
        service.submit(update)
    with pytest.raises(ReproError):  # typed: not json's bare TypeError
        service.flush()
    assert service.stats.batch_failures == failures + 1
    assert whole_state(service) == before
    assert service.health()["diverged"] is None

    # the next commit is unaffected, and serialises its record exactly once
    dumps = []
    real_dumps = json.dumps
    monkeypatch.setattr(
        json, "dumps", lambda *args, **kwargs: dumps.append(1) or real_dumps(*args, **kwargs)
    )
    stream.commit(service, 4)
    monkeypatch.undo()
    assert len(dumps) == 1
    stream.drive(service, [follower], rounds=range(5, 8))
    service.check()
    acknowledged = (service.version, service.snapshot.fingerprint())
    follower.close()
    service.close(checkpoint=False)
    recovered = IndexService.recover(store_dir, store_config=DURABLE)
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    recovered.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_a_volatile_service_carries_any_python_value(family):
    stream = Stream()
    service = IndexService(stream.graph, service_config(family))
    for update in unencodable_value(service):
        service.submit(update)
    assert service.flush().applied == 2
    assert service.graph.value(min(service.graph.nodes())) == {1, 2, 3}
    service.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_a_malformed_update_is_refused_before_it_is_queued(tmp_path, family):
    stream, store_dir, service = durable_adaptive(tmp_path, family)
    follower = bootstrap(service, "plain")
    anchor = min(service.graph.nodes())
    service.submit(Update.set_value(anchor, "well-formed"))
    with pytest.raises(ServiceError):
        service.submit(Update("delete_edge", (anchor,)))
    assert service.queue_depth() == 1
    # the well-formed update drained beside it is committed, not lost
    assert service.flush().applied == 1
    assert service.stats.batch_failures == 0
    assert service.graph.value(anchor) == "well-formed"
    stream.drive(service, [follower], rounds=range(4, 6))
    acknowledged = (service.version, service.snapshot.fingerprint())
    follower.close()
    service.close(checkpoint=False)
    recovered = IndexService.recover(store_dir, store_config=DURABLE)
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    recovered.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_a_fault_in_the_log_leaves_the_batch_invisible(tmp_path, family):
    stream, store_dir, service = durable_adaptive(tmp_path, family)
    before = visible_state(service)
    acknowledged = (service.version, service.snapshot.fingerprint())
    service.wal.fault_injector = FaultInjector(at_io=1)
    with pytest.raises(InjectedFaultError):
        stream.commit(service, 3)
    # applied to the live pair, but neither published nor carried into the cache
    live = IndexSnapshot.capture(0, service.graph, service.structure)
    assert live.fingerprint() != service.snapshot.fingerprint()
    assert visible_state(service) == before
    # ahead of its log for good: it refuses every write and says why ...
    anchor = min(service.graph.nodes())
    for write in (
        lambda: service.submit(Update.set_value(anchor, "late")),
        lambda: service.submit_nowait(Update.set_value(anchor, "late")),
        service.flush,
        service.checkpoint,
    ):
        with pytest.raises(StoreError, match="InjectedFaultError.*recover from the store"):
            write()
    assert "InjectedFaultError" in service.health()["diverged"]
    # ... while readers keep the last published version
    assert visible_state(service) == before
    for expression in stream.pool:
        served = service.query(expression)
        truth = evaluate_on_graph(service.snapshot.graph, expression).matches
        assert (served.version, served.matches) == (acknowledged[0], truth)
    service.close()  # closes the WAL; no checkpoint of the unlogged state
    assert service.wal._fp is None
    assert service.checkpointer.checkpoints_written == 1

    recovered = IndexService.recover(
        store_dir, store_config=DURABLE, adaptive=AdaptiveConfig(audit=True)
    )
    assert (recovered.version, recovered.snapshot.fingerprint()) == acknowledged
    check_version(recovered, stream.pool)
    recovered.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_an_empty_commit_keeps_versions_and_lsns_in_lockstep(tmp_path, family):
    stream, store_dir, service = durable_adaptive(tmp_path, family)
    follower = bootstrap(service, "adaptive")
    follower.catch_up()
    nodes = sorted(service.graph.nodes())
    source, target = nodes[1], nodes[-1]
    assert not service.graph.has_edge(source, target)
    service.submit(Update.insert_edge(source, target, EdgeKind.IDREF))
    service.submit(Update.delete_edge(source, target))
    version, lsn = service.version, service.wal.last_lsn
    result = service.flush()
    assert (result.drained, result.applied) == (2, 0)
    assert (service.version, service.wal.last_lsn) == (version + 1, lsn + 1)
    assert follower.catch_up() == 1
    assert (follower.version, follower.applied_lsn) == (version + 1, lsn + 1)
    assert follower.snapshot.fingerprint() == service.snapshot.fingerprint()
    follower.close()
    service.close()


# ----------------------------------------------------------------------
# (c) the structure
# ----------------------------------------------------------------------

SRC = pathlib.Path(repro.__file__).parent
COMMIT_PATH = {
    "_commit", "_publish", "_publish_next", "_next_snapshot", "flush", "query",
    "_on_batch_applied",
}


def parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def call_sites(name: str) -> list[tuple[str, str]]:
    """(module, enclosing function) of every ``<something>.name(...)`` call."""
    sites = []
    for module, tree in parsed_sources():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name
                ):
                    sites.append((module, function.name))
    return sites


def test_no_subclass_overrides_the_commit_or_read_path():
    services = {"IndexService"}
    classes = [
        node
        for _, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    grew = True
    while grew:  # transitive subclasses, whatever order the files come in
        grew = False
        for node in classes:
            bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
            if node.name not in services and bases & services:
                services.add(node.name)
                grew = True
    assert {"AdaptiveIndexService", "FollowerIndexService"} < services
    for node in classes:
        if node.name in services and node.name != "IndexService":
            defined = {
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            }
            assert not defined & COMMIT_PATH, (node.name, defined & COMMIT_PATH)


def test_one_commit_path():
    assert call_sites("_publish_next") == [("service/service.py", "_commit")]
    assert sorted(call_sites("apply_batch")) == [
        ("service/service.py", "_commit"),
        ("store/recovery.py", "recover"),
    ]
    for path in sorted(SRC.rglob("*.py")):
        assert "_recovered" not in path.read_text(), path
