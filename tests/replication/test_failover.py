"""Failover: kill the primary, promote the most-caught-up follower.

The torture case is the PR's acceptance bar: a closed loop of commits
with followers syncing through fault-ridden links, the primary killed
at a random commit (``REPL_SEED`` moves it), promotion electing the
highest applied LSN — and **zero acknowledged-commit loss**: the
promoted service's snapshot fingerprint is byte-identical to the dead
primary's last acknowledged state, for both index families.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import ReplicationError, StalePrimaryError
from repro.graph.datagraph import EdgeKind
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.replication import (
    FollowerIndexService,
    Primary,
    ReplicationLink,
    promote,
)
from repro.resilience.faults import REPLICATION_FAULTS, FaultInjector
from repro.service import IndexService, Update
from repro.service.snapshot import IndexSnapshot
from repro.store import read_epoch
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.replication.conftest import (
    DURABLE,
    REPL_SEED,
    commit_inserts,
    make_primary,
    service_config,
)
from tests.store.conftest import STORE_XMARK


def bootstrap_pair(service, seed: int = 0, injector_for=None):
    """Two followers over *service*, bootstrapped from its checkpoint."""
    followers = []
    for position in range(2):
        injector = injector_for(position) if injector_for is not None else None
        link = ReplicationLink(
            Primary(service=service),
            fault_injector=injector,
            seed=seed + position,
            sleep=lambda _s: None,
        )
        followers.append(FollowerIndexService.bootstrap(link))
    return followers


class TestPromotion:
    def test_no_followers_raises(self, store_dir):
        with pytest.raises(ReplicationError):
            promote(store_dir, [])

    def test_drain_then_elect_then_fence(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        commit_inserts(service, 4, tag="tail")
        followers = bootstrap_pair(service)
        followers[0].catch_up()  # one ahead...
        followers[1].sync(max_records=1)  # ...one behind
        acknowledged = service.snapshot.fingerprint()
        last_lsn = service.wal.last_lsn
        service.wal.close()  # the primary dies

        result = promote(store_dir, followers, old_primary=service, store_config=DURABLE)
        # the drain shipped the dead log's remainder to everyone
        assert result.applied_lsn == last_lsn
        assert all(f.applied_lsn == last_lsn for f in followers)
        assert result.drained == [0, 3]
        # zero acknowledged-commit loss, byte for byte
        assert result.promoted.snapshot.fingerprint() == acknowledged
        assert result.promoted.version == service.version
        # the fence is durable and the in-memory courtesy fence holds
        assert read_epoch(store_dir) == result.epoch == 1
        assert service.fenced
        with pytest.raises(StalePrimaryError):
            service.submit_nowait(
                Update.insert_node(min(service.graph.nodes()), "z", 999)
            )
        result.promoted.close()
        for follower in followers:
            follower.close()
        service.close(checkpoint=False)

    def test_promoted_service_resumes_the_log(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 3)
        service.checkpoint()
        followers = bootstrap_pair(service)
        service.wal.close()
        result = promote(store_dir, followers, store_config=DURABLE)
        promoted = result.promoted
        winner = followers[result.winner]
        commit_inserts(promoted, 2, tag="after")
        assert promoted.wal.last_lsn == 5
        assert promoted.version == 5
        # the winner's structures were adopted, not copied
        assert promoted.graph is winner.graph
        # the losers re-point their links at the new primary and tail on
        loser = followers[1 - result.winner]
        loser.link = ReplicationLink(Primary(service=promoted), sleep=lambda _s: None)
        loser.catch_up()
        assert loser.snapshot.fingerprint() == promoted.snapshot.fingerprint()
        assert loser.link.highest_epoch == result.epoch
        promoted.close()
        loser.close()
        service.close(checkpoint=False)

    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_the_winner_is_retired_before_its_structures_change_hands(
        self, store_dir, family
    ):
        """A winner left tailing the directory would fetch the promoted
        primary's own records and apply them a second time over the
        graph and maintainer that just produced them."""
        service = make_primary(store_dir, family=family)
        commit_inserts(service, 2)
        followers = bootstrap_pair(service)
        for follower in followers:
            follower.start_tailing(poll_interval=0.001)
        commit_inserts(service, 2, tag="tail")
        deadline = time.monotonic() + 10.0
        while any(f.applied_lsn < service.wal.last_lsn for f in followers):
            assert time.monotonic() < deadline, "the tails never caught up"
            time.sleep(0.005)
        service.wal.close()  # the primary dies

        result = promote(store_dir, followers, store_config=DURABLE)
        promoted, winner = result.promoted, followers[result.winner]
        assert winner.health()["replication"]["tailing"] is False
        commit_inserts(promoted, 3, tag="after")
        for refused in (winner.sync, winner.catch_up, winner.start_tailing):
            with pytest.raises(ReplicationError, match=f"promoted at epoch {result.epoch}"):
                refused()
        # reads keep working, at the last version the winner itself published
        assert (winner.version, winner.query("//tail").version) == (4, 4)
        assert winner.records_applied == 4

        # live pair == published version == what the log replays to
        assert promoted.version == promoted.wal.last_lsn == 7
        live = IndexSnapshot.capture(promoted.version, promoted.graph, promoted.structure)
        assert live.fingerprint() == promoted.snapshot.fingerprint()
        promoted.check()
        # the loser, still tailing the directory, follows the new primary
        loser = followers[1 - result.winner]
        deadline = time.monotonic() + 10.0
        while loser.applied_lsn < 7:
            assert time.monotonic() < deadline, "the loser's tail stalled"
            time.sleep(0.005)
        assert loser.snapshot.fingerprint() == promoted.snapshot.fingerprint()
        published = (promoted.version, promoted.snapshot.fingerprint())
        promoted.close(checkpoint=False)
        recovered = IndexService.recover(store_dir, store_config=DURABLE)
        assert (recovered.version, recovered.snapshot.fingerprint()) == published
        recovered.close(checkpoint=False)
        for follower in followers:
            follower.close()
        service.close(checkpoint=False)

    def test_zombie_primary_is_fenced_durably(self, store_dir):
        """Even a primary that never heard about the failover (no
        in-memory fence) is stopped by the epoch file at its next commit."""
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        followers = bootstrap_pair(service)
        # the coordinator believes the primary is dead; it is merely
        # partitioned, and keeps its WAL open
        result = promote(store_dir, followers, store_config=DURABLE)
        service.submit_nowait(Update.insert_node(min(service.graph.nodes()), "z", 999))
        with pytest.raises(StalePrimaryError):
            service.flush()
        assert service.fenced  # and every later submit refuses immediately
        with pytest.raises(StalePrimaryError):
            service.submit_nowait(
                Update.insert_node(min(service.graph.nodes()), "z", 1000)
            )
        result.promoted.close()
        for follower in followers:
            follower.close()
        service.close(checkpoint=False)


class TestKillThePrimaryTorture:
    """The closed-loop crash matrix (REPL_SEED moves every random draw)."""

    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_zero_acknowledged_loss(self, tmp_path, family):
        rng = random.Random(REPL_SEED * 7919 + ("one", "ak").index(family))
        store_dir = tmp_path / family
        store_dir.mkdir()
        graph = graph_from_dict(graph_to_dict(generate_xmark(STORE_XMARK).graph))
        updates = MixedUpdateWorkload.prepare(graph, seed=REPL_SEED)
        service = make_primary(
            str(store_dir), family=family, graph=graph, batch_max_ops=1
        )
        operations = list(updates.steps(24))
        checkpoint_at = len(operations) // 4
        kill_at = rng.randrange(checkpoint_at + 2, len(operations))
        followers = []
        for step, (op, source, target) in enumerate(operations):
            if op == "insert":
                service.submit_nowait(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                service.submit_nowait(Update.delete_edge(source, target))
            service.flush()  # acknowledged: fsync="always" put it on disk
            if step == checkpoint_at:
                service.checkpoint()
                followers = bootstrap_pair(
                    service,
                    seed=REPL_SEED,
                    injector_for=lambda _position: FaultInjector(
                        at_replication=2,
                        replication_fault=REPLICATION_FAULTS,
                        rearm=True,
                    ),
                )
            # followers tail sporadically through their hostile links,
            # so they sit at random positions behind when the axe falls
            if followers and rng.random() < 0.5:
                rng.choice(followers).sync(max_records=rng.randint(1, 3))
            if step == kill_at:
                break
        acknowledged = service.snapshot.fingerprint()
        acknowledged_version = service.version
        acknowledged_lsn = service.wal.last_lsn
        service.wal.close()  # kill -9, mid-run

        result = promote(
            str(store_dir), followers, old_primary=service, store_config=DURABLE
        )
        promoted = result.promoted
        # the winner is the most-caught-up follower, and after the drain
        # that means the dead log's very end: nothing acknowledged is lost
        assert result.applied_lsn == acknowledged_lsn
        assert promoted.version == acknowledged_version
        assert promoted.snapshot.fingerprint() == acknowledged
        # the zombie cannot fork history
        with pytest.raises(StalePrimaryError):
            service.submit_nowait(
                Update.insert_node(min(service.graph.nodes()), "z", 10**6)
            )
        # the loser re-points and converges on the new primary, faults and all
        loser = followers[1 - result.winner]
        loser.link = ReplicationLink(
            Primary(service=promoted),
            fault_injector=FaultInjector(
                at_replication=2, replication_fault=REPLICATION_FAULTS, rearm=True
            ),
            seed=REPL_SEED + 17,
            sleep=lambda _s: None,
        )
        commit_inserts(promoted, 3, tag="after")
        loser.catch_up(max_records=2, deadline_seconds=30.0)
        assert loser.snapshot.fingerprint() == promoted.snapshot.fingerprint()
        promoted.close()
        loser.close()
        service.close(checkpoint=False)
