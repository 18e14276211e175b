"""``repro.replication`` — WAL-shipping read replicas and failover.

The durable spine of :mod:`repro.store` composed into a primary/follower
topology: one writing primary, N read-only replicas, each a
deterministic clone maintained by the same incremental machinery the
paper describes — replication is recovery running continuously.

* :class:`Primary` (:mod:`~repro.replication.feed`) — the WAL exposed
  as a feed: ``fetch(since_lsn, max_records)`` frames plus
  newest-checkpoint shipping for bootstrap.  Works over a live
  service with a store or a bare store directory.
* :class:`ReplicationLink` (:mod:`~repro.replication.link`) — the
  hostile-network wrapper: deadline/timeout, capped exponential backoff
  with jitter, resumable re-fetch after torn or corrupt frames, epoch
  monotonicity, and the injection surface for the five
  :data:`~repro.resilience.faults.REPLICATION_FAULTS`.
* :class:`FollowerIndexService` (:mod:`~repro.replication.follower`) —
  bootstrap from the newest valid checkpoint, tail the WAL from its
  LSN and hand each record to the service's own ``_commit``; duplicate
  deliveries are logged no-ops.
* :class:`ReplicaRouter` (:mod:`~repro.replication.router`) —
  staleness-bounded round-robin query spreading with primary fallback.
* :func:`promote` (:mod:`~repro.replication.failover`) — drain the dead
  primary's log, elect the highest applied LSN, bump the durable
  fencing epoch, adopt the winner into a new writing service; a zombie
  primary's next commit raises
  :class:`~repro.exceptions.StalePrimaryError`.
"""

from repro.replication.failover import FailoverResult, promote
from repro.replication.feed import FeedFrame, Primary, decode_feed_frame, encode_feed_frame
from repro.replication.follower import STALL_SYNCS, FollowerIndexService
from repro.replication.link import ReplicationLink
from repro.replication.router import ReplicaRouter

__all__ = [
    "Primary",
    "FeedFrame",
    "encode_feed_frame",
    "decode_feed_frame",
    "ReplicationLink",
    "FollowerIndexService",
    "STALL_SYNCS",
    "ReplicaRouter",
    "promote",
    "FailoverResult",
]
