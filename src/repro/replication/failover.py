"""Failover: promote the most-caught-up follower, fence the old primary.

The promotion protocol, in order:

1. **Fence** the old primary in memory if its object is still reachable
   (:meth:`IndexService.fence`) — a courtesy fast-path; the durable
   fence below is what actually holds.
2. **Drain** the dead primary's log: every surviving follower runs a
   final catch-up against a feed over the bare store directory (the
   primary process being gone is irrelevant — the feed is a pure
   function of the directory).  This is what turns "highest applied LSN
   wins" into "zero acknowledged-commit loss": anything the primary
   acknowledged under ``fsync="always"`` is in the directory, and the
   drain ships it to whoever will win.
3. **Elect** the follower with the highest applied LSN (ties break by
   list order).
4. **Bump the durable epoch** (:func:`repro.store.epoch.write_epoch`)
   *before* the winner opens the WAL for writing.  From this moment a
   zombie primary's next commit re-reads the epoch file, finds itself
   superseded, and raises
   :class:`~repro.exceptions.StalePrimaryError` instead of forking the
   log's history.
5. **Promote**: the winner is **retired** — its tail stopped, every
   later ``sync`` / ``catch_up`` / ``start_tailing`` a
   :class:`~repro.exceptions.ReplicationError`, its reads still served —
   and its graph + maintainer are adopted into a new
   :class:`~repro.service.IndexService` whose store *reopens* the same
   directory (the recovery adoption path — no rebuild, no checkpoint),
   which resumes the LSN sequence after the last drained record.  An
   adaptive winner's configuration carries across; its cache does not.

The surviving followers keep their link objects; re-point them at a
feed over the promoted primary and they tail on, their epoch check
accepting the bumped epoch (it only rejects *decreases*).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import ReplicationError
from repro.obs import current as current_obs
from repro.replication.follower import FollowerIndexService
from repro.service.service import IndexService
from repro.store.epoch import read_epoch, write_epoch
from repro.store.service import ServiceStore, StoreConfig


@dataclass
class FailoverResult:
    """What one promotion did."""

    promoted: IndexService
    #: position of the winner within the followers sequence
    winner: int
    epoch: int
    #: the log position everyone converged to before the election
    applied_lsn: int
    #: records drained from the dead primary's log, per follower
    drained: list[int]
    seconds: float


def promote(
    store_dir: str,
    followers: Sequence[FollowerIndexService],
    old_primary: Optional[IndexService] = None,
    store_config: Optional[StoreConfig] = None,
    catch_up_deadline: Optional[float] = 30.0,
) -> FailoverResult:
    """Run the full failover protocol over *store_dir*; returns the winner.

    *followers* must all replicate the store at *store_dir*.  The final
    drain runs over a clean directory feed (no fault injector): the
    network that killed the primary is assumed partitioned away from
    the failover coordinator, which is reading the log directly.

    The winner's graph and maintainer are **adopted** by the promoted
    service, so the winner is retired first
    (:meth:`FollowerIndexService.retire`): left tailing the directory it
    would fetch the new primary's own records and apply them a second
    time over the structures that just produced them.  The losers
    re-point their links at the promoted primary and tail on.
    """
    from repro.replication.feed import Primary
    from repro.replication.link import ReplicationLink

    if not followers:
        raise ReplicationError("cannot promote: no followers survive")
    started = time.perf_counter()
    obs = current_obs()
    new_epoch = read_epoch(store_dir) + 1
    if old_primary is not None:
        old_primary.fence(new_epoch)

    # final drain: ship whatever the dead primary's directory still holds
    clean_feed = Primary(store_dir=store_dir)
    drained = []
    for follower in followers:
        link = ReplicationLink(clean_feed)
        previous_link = follower.link
        follower.link = link
        try:
            drained.append(
                follower.catch_up(deadline_seconds=catch_up_deadline)
            )
        except ReplicationError:
            # this follower cannot reach the log's end (truncated past,
            # or deadline); it simply loses the election below
            obs.add("replication.drain_failures")
            drained.append(0)
        finally:
            follower.link = previous_link

    # election: highest applied LSN wins (after a full drain they tie,
    # but a follower whose drain failed mid-way stays behind and loses)
    winner_position = max(
        range(len(followers)), key=lambda position: followers[position].applied_lsn
    )
    winner = followers[winner_position]
    winner.retire(new_epoch)

    # durable fence before the winner takes the pen
    write_epoch(store_dir, new_epoch)

    promoted = IndexService(
        winner.graph,
        winner.config,
        maintainer=winner.guarded.maintainer,
        initial_version=winner.version,
        adaptive=winner.adaptive.config if winner.adaptive is not None else None,
    )
    promoted.store = ServiceStore.reopen(store_dir, store_config)
    elapsed = time.perf_counter() - started
    obs.add("replication.promotions")
    obs.observe("replication.failover_seconds", elapsed)
    obs.event(
        "failover.promoted",
        store=store_dir,
        winner=winner_position,
        epoch=new_epoch,
        applied_lsn=winner.applied_lsn,
        version=winner.version,
        drained=drained,
        seconds=elapsed,
    )
    return FailoverResult(
        promoted=promoted,
        winner=winner_position,
        epoch=new_epoch,
        applied_lsn=winner.applied_lsn,
        drained=drained,
        seconds=elapsed,
    )
