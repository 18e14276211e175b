"""`FollowerIndexService` — a read replica fed by WAL shipping.

A follower is recovery running continuously: it **bootstraps** exactly
like :func:`repro.store.recovery.recover` (newest valid checkpoint →
materialise → adopt the maintainer), except the checkpoint bytes arrive
through the :class:`~repro.replication.link.ReplicationLink` instead of
the local filesystem; it then **tails** the primary's WAL from its
checkpoint LSN, handing each shipped record to the inherited
:meth:`IndexService._commit` — the code path that applied the batch on
the primary, minus coalescing (the record *is* the coalesced batch) —
so replicas are deterministic clones: identical oids, identical inode
ids, identical split/merge order, byte-identical snapshot fingerprints,
and their commits show up in their own latency series, spans and
failure counts like a primary's.

This class is the replica part of a service: it adds the tail (link,
LSN / duplicate / gap bookkeeping) and overrides nothing on the commit
or read path.  The adaptive part composes with it
(``bootstrap(link, adaptive=AdaptiveConfig())``); a store does not — a
follower's durability is its primary's log.

The LSN↔version lockstep a store maintains carries over: every shipped
record (an empty one, or one carrying only a ``reconstruct``, included)
bumps the local version by one, so ``version = checkpoint.version +
records applied`` matches the primary's numbering record for record.

**Idempotence**: a record whose LSN is ``<= applied_lsn`` is a
duplicate delivery (a retransmit, or the duplicate fault) — it is
counted, logged and skipped, never re-applied.  A record that skips
ahead (``lsn > applied_lsn + 1``) means the primary checkpoint-truncated
the records this follower still needed; the follower raises and must
re-bootstrap from a fresh checkpoint.  When the truncation swallowed the
whole tail the feed itself raises the same error
(:meth:`~repro.replication.feed.Primary.fetch`), so :meth:`catch_up`
terminates instead of polling an end that will never ship.

Followers are **read-only**: :meth:`submit` raises.  The only writer of
a follower's structures is its own apply loop.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.exceptions import ReplicationError, ServiceError
from repro.obs import current as current_obs
from repro.replication.link import ReplicationLink
from repro.resilience.wire import batch_from_wire
from repro.service.queue import Update
from repro.service.service import IndexService, ServiceConfig
from repro.store.checkpoint import checkpoint_from_bytes

#: consecutive empty-but-lagging syncs before one ``replication.stall``
#: event fires (reset by any delivered record)
STALL_SYNCS = 3


class FollowerIndexService(IndexService):
    """An :class:`IndexService` that replays a primary instead of a queue.

    Build one with :meth:`bootstrap`; the constructor only wires an
    already-materialised checkpoint state to its link.
    """

    def __init__(
        self,
        graph,
        link: ReplicationLink,
        config: Optional[ServiceConfig],
        maintainer: object,
        applied_lsn: int,
        initial_version: int,
        adaptive: Optional[object] = None,
    ):
        super().__init__(
            graph,
            config,
            maintainer=maintainer,
            initial_version=initial_version,
            adaptive=adaptive,
        )
        if self.adaptive is not None:
            # a replica replays its primary's reconstructions
            self.adaptive.controller.reconstructs = False
        self.link = link
        #: LSN of the last record applied locally
        self.applied_lsn = applied_lsn
        #: the primary's log end as of the last frame (lag denominator)
        self.primary_last_lsn = applied_lsn
        #: lifetime tallies
        self.records_applied = 0
        self.duplicates_skipped = 0
        self.stalls_detected = 0
        self._empty_lagging_syncs = 0
        self._stall_reported = False
        self._tail_thread: Optional[threading.Thread] = None
        self._tail_stop = threading.Event()
        #: the epoch whose promotion handed our structures to a primary
        self._retired_epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        link: ReplicationLink,
        config: Optional[ServiceConfig] = None,
        adaptive: Optional[object] = None,
        store_dir: Optional[str] = None,
    ) -> "FollowerIndexService":
        """Checkpoint-load over the wire, then stand ready to tail.

        The structure served is the checkpoint's — a replica of an A(2)
        primary *is* an A(2) index, whatever family *config* names;
        *config* tunes the rest (the guard policy) and *adaptive*
        attaches the adaptive plane.  *store_dir* is refused: a second
        WAL with its own LSN origin could not be told apart from the
        primary's log after a promotion.
        """
        if store_dir is not None:
            raise ServiceError(
                "a follower takes no store: its durability is its primary's log"
            )
        started = time.perf_counter()
        raw = link.fetch_checkpoint()
        ckpt = checkpoint_from_bytes(raw, origin=f"feed:{link.feed.store_dir}")
        graph, maintainer = ckpt.adopt()
        follower = cls(
            graph,
            link,
            config,
            maintainer=maintainer,
            applied_lsn=ckpt.wal_lsn,
            initial_version=ckpt.version,
            adaptive=adaptive,
        )
        elapsed = time.perf_counter() - started
        obs = current_obs()
        obs.add("replication.bootstraps")
        obs.observe("replication.bootstrap_seconds", elapsed)
        obs.event(
            "replication.bootstrap",
            store=link.feed.store_dir,
            checkpoint_lsn=ckpt.wal_lsn,
            version=ckpt.version,
            kind=ckpt.kind,
            bytes=len(raw),
            seconds=elapsed,
        )
        return follower

    # ------------------------------------------------------------------
    # Catch-up / tailing
    # ------------------------------------------------------------------

    @property
    def lag_lsns(self) -> int:
        """LSNs between the primary's last-advertised log end and us."""
        return max(0, self.primary_last_lsn - self.applied_lsn)

    def retire(self, epoch: int) -> None:
        """Stop applying for good: the promotion at *epoch* made this
        replica's graph and maintainer the new primary's.

        The tail is stopped first (its last sync completes); from then on
        :meth:`sync`, :meth:`catch_up` and :meth:`start_tailing` raise.
        Reads keep answering the last version this replica published.
        """
        self.stop_tailing()
        self._retired_epoch = epoch

    def _check_retired(self) -> None:
        if self._retired_epoch is not None:
            raise ReplicationError(
                f"this follower was promoted at epoch {self._retired_epoch}: its "
                "structures are the new primary's and it applies no more records"
            )

    def sync(self, max_records: int = 64) -> int:
        """One fetch + apply round; returns how many records were applied."""
        self._check_retired()
        started = time.perf_counter()
        frame = self.link.fetch(self.applied_lsn, max_records)
        obs = current_obs()
        obs.observe("replication.fetch_seconds", time.perf_counter() - started)
        self.primary_last_lsn = max(self.primary_last_lsn, frame.last_lsn)
        applied = 0
        first_lsn = None
        for lsn, wire_ops in frame.records:
            if self._apply_record(lsn, wire_ops):
                applied += 1
                if first_lsn is None:
                    first_lsn = lsn
        if applied:
            obs.event(
                "replication.batch_applied",
                first_lsn=first_lsn,
                last_lsn=self.applied_lsn,
                records=applied,
                version=self.version,
            )
            self._empty_lagging_syncs = 0
            self._stall_reported = False
        elif self.lag_lsns > 0:
            # the feed advertises records it is not shipping: a stalled
            # feed, the network fault lag alerts exist for
            self._empty_lagging_syncs += 1
            if self._empty_lagging_syncs >= STALL_SYNCS and not self._stall_reported:
                self._stall_reported = True
                self.stalls_detected += 1
                obs.add("replication.stalls")
                obs.event(
                    "replication.stall",
                    applied_lsn=self.applied_lsn,
                    primary_last_lsn=self.primary_last_lsn,
                    lag_lsns=self.lag_lsns,
                    empty_syncs=self._empty_lagging_syncs,
                )
        obs.set("replication.lag_lsns", self.lag_lsns)
        return applied

    def catch_up(
        self,
        max_records: int = 64,
        deadline_seconds: Optional[float] = None,
    ) -> int:
        """Sync until the local state reaches the primary's advertised end.

        Returns the total records applied.  Raises
        :class:`ReplicationError` when the deadline passes first (a
        stalled feed can advertise an end it never ships).
        """
        started = time.monotonic()
        total = 0
        while True:
            total += self.sync(max_records)
            if self.lag_lsns == 0:
                break
            if (
                deadline_seconds is not None
                and time.monotonic() - started > deadline_seconds
            ):
                raise ReplicationError(
                    f"catch-up missed its {deadline_seconds}s deadline at "
                    f"lag {self.lag_lsns} (applied {self.applied_lsn} of "
                    f"{self.primary_last_lsn})"
                )
        elapsed = time.monotonic() - started
        obs = current_obs()
        obs.observe("replication.catchup_seconds", elapsed)
        obs.observe("replication.catchup_records", total)
        return total

    def _apply_record(self, lsn: int, wire_ops: list) -> bool:
        """Apply one shipped record; returns whether it advanced state."""
        obs = current_obs()
        # the LSN test and the apply are one step: two syncs may race (a
        # tail thread and a failover's final drain fetch the same record)
        with self._writer_lock:
            if lsn <= self.applied_lsn:
                # duplicate delivery: a retransmit (or the duplicate fault)
                # re-shipped something already applied — a logged no-op
                self.duplicates_skipped += 1
                obs.add("replication.duplicates_skipped")
                obs.event(
                    "replication.duplicate_skipped", lsn=lsn, applied_lsn=self.applied_lsn
                )
                return False
            if lsn != self.applied_lsn + 1:
                raise ReplicationError(
                    f"replication gap: next record is lsn {lsn} but only "
                    f"{self.applied_lsn} is applied — the primary truncated past "
                    "this follower; re-bootstrap from a fresh checkpoint"
                )
            started = time.perf_counter()
            batch = [Update(op, args) for op, args in batch_from_wire(wire_ops)]
            result = self._commit(batch, replayed=True)
            self.applied_lsn = lsn
        self._after_commit(result)
        self.records_applied += 1
        obs.add("replication.records_applied")
        obs.observe("replication.apply_seconds", time.perf_counter() - started)
        return True

    # ------------------------------------------------------------------
    # Background tailing
    # ------------------------------------------------------------------

    def start_tailing(self, poll_interval: float = 0.02, max_records: int = 64) -> None:
        """Tail the feed from a background thread (idempotent)."""
        self._check_retired()
        if self._tail_thread is not None:
            return
        self._tail_stop.clear()

        def loop() -> None:
            while not self._tail_stop.is_set():
                try:
                    applied = self.sync(max_records)
                except ReplicationError:
                    # the feed went away (primary died) or truncated past
                    # us; failover re-points or re-bootstraps this replica
                    current_obs().add("replication.tail_errors")
                    applied = 0
                if not applied:
                    self._tail_stop.wait(poll_interval)

        self._tail_thread = threading.Thread(
            target=loop, name="repro-replica-tail", daemon=True
        )
        self._tail_thread.start()

    def stop_tailing(self) -> None:
        """Stop the background tail loop (the last sync completes)."""
        thread = self._tail_thread
        if thread is None:
            return
        self._tail_stop.set()
        thread.join()
        self._tail_thread = None

    def close(self) -> None:
        self.stop_tailing()
        super().close()

    # ------------------------------------------------------------------
    # Read-only surface
    # ------------------------------------------------------------------

    def _check_admissible(self, update: Update) -> None:
        raise ReplicationError("followers are read-only; submit updates to the primary")

    def health(self) -> dict:
        """Service health plus this replica's replication position."""
        doc = super().health()
        doc["replication"] = {
            "role": "follower",
            "applied_lsn": self.applied_lsn,
            "primary_last_lsn": self.primary_last_lsn,
            "lag_lsns": self.lag_lsns,
            "epoch": self.link.highest_epoch,
            "records_applied": self.records_applied,
            "duplicates_skipped": self.duplicates_skipped,
            "stalls_detected": self.stalls_detected,
            "tailing": self._tail_thread is not None,
        }
        return doc
