"""`FollowerIndexService` — a read replica fed by WAL shipping.

A follower is recovery running continuously: it **bootstraps** exactly
like :func:`repro.store.recovery.recover` (newest valid checkpoint →
materialise → adopt the maintainer), except the checkpoint bytes arrive
through the :class:`~repro.replication.link.ReplicationLink` instead of
the local filesystem; it then **tails** the primary's WAL from its
checkpoint LSN, applying each shipped record through
``GuardedMaintainer.apply_batch`` — the same code path that applied the
batch on the primary, so replicas are deterministic clones: identical
oids, identical inode ids, identical split/merge order, byte-identical
snapshot fingerprints.

The LSN↔version lockstep the durable service maintains carries over:
every shipped record (including an empty one — a batch fully coalesced
away) bumps the local version by one and publishes through ``evolve()``,
so ``version = checkpoint.version + records applied`` matches the
primary's numbering record for record.

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
from dataclasses import replace
from typing import Optional

from repro.exceptions import ReplicationError
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
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
        config: ServiceConfig,
        maintainer: object,
        applied_lsn: int,
        initial_version: int,
    ):
        super().__init__(
            graph, config, maintainer=maintainer, initial_version=initial_version
        )
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

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        link: ReplicationLink,
        config: Optional[ServiceConfig] = None,
    ) -> "FollowerIndexService":
        """Checkpoint-load over the wire, then stand ready to tail.

        The index family and ``k`` always come from the checkpoint — a
        replica of an A(2) primary *is* an A(2) index; *config* may tune
        everything else (the guard policy).
        """
        started = time.perf_counter()
        raw = link.fetch_checkpoint()
        ckpt = checkpoint_from_bytes(raw, origin=f"feed:{link.feed.store_dir}")
        graph, index, family = ckpt.materialize()
        if index is not None:
            maintainer = SplitMergeMaintainer(index)
        else:
            maintainer = AkSplitMergeMaintainer(family)
        base = config if config is not None else ServiceConfig()
        base = replace(base, family=ckpt.kind, k=ckpt.k if ckpt.kind == "ak" else base.k)
        follower = cls(
            graph,
            link,
            base,
            maintainer=maintainer,
            applied_lsn=ckpt.wal_lsn,
            initial_version=ckpt.version,
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

    def sync(self, max_records: int = 64) -> int:
        """One fetch + apply round; returns how many records were applied."""
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
        with self._writer_lock:
            ops = batch_from_wire(wire_ops)
            if ops:
                self.guarded.apply_batch(ops)
            # empty records bump the version too: the primary logged the
            # fully-coalesced batch to keep LSNs and versions in lockstep
            self._publish_next()
            self.applied_lsn = lsn
        self.records_applied += 1
        self.stats.batches += 1
        self.stats.applied_ops += len(ops)
        obs.add("replication.records_applied")
        obs.observe("replication.apply_seconds", time.perf_counter() - started)
        return True

    # ------------------------------------------------------------------
    # Background tailing
    # ------------------------------------------------------------------

    def start_tailing(self, poll_interval: float = 0.02, max_records: int = 64) -> None:
        """Tail the feed from a background thread (idempotent)."""
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

    def submit(self, update: Update) -> bool:
        raise ReplicationError(
            "followers are read-only; submit updates to the primary"
        )

    def submit_nowait(self, update: Update) -> None:
        raise ReplicationError(
            "followers are read-only; submit updates to the primary"
        )

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FollowerIndexService family={self.config.family!r} "
            f"v{self.version} applied_lsn={self.applied_lsn} lag={self.lag_lsns}>"
        )
