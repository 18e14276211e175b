"""`ServiceStore` — the durability part of an :class:`IndexService`.

A service built with ``store_dir=`` keeps the serving discipline it has
without one (single writer, snapshot-isolated readers, batched guarded
commits) and gains a persistent spine:

* **every commit is logged before it is published**: the writer lowers
  the coalesced batch to its log record (the stable
  :mod:`repro.resilience.wire` encoding), applies it transactionally,
  appends the record to the write-ahead log, and only then swaps the new
  snapshot in.  What a crash can lose is
  bounded by the fsync policy: under ``always``, nothing a reader ever
  saw; under the default ``batch``, a power cut may drop up to
  ``sync_every`` published versions (a plain process crash drops
  nothing — the bytes are in the page cache); under ``off``, whatever
  the OS had not written back.  Everything the log retains is
  reconstructible from checkpoint + log.
* **cadenced checkpoints**: every ``checkpoint_every_records`` commits
  (and on a clean ``close()``), the live graph + index pair is written
  atomically and the WAL truncated behind it, bounding replay time.
* **recovery** (:meth:`IndexService.recover`): newest valid checkpoint +
  surviving WAL tail → a fresh service at the exact version the crashed
  process last published.

Empty batches (everything coalesced away) are logged too: versions and
LSNs stay in lockstep — ``version = checkpoint.version + records after
checkpoint`` — which is what lets recovery name the version it restored.

A failure *inside* :meth:`ServiceStore.log` (an injected io fault, a
full disk) aborts the commit after the in-memory apply but before
publish.  The instance is then ahead of its log: it refuses every
further write and keeps answering the last published version, and
``recover`` on the same directory reconstructs that state.  That is the
crash model the torture tests drive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SerializationError, StalePrimaryError, StoreError
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.resilience.wire import batch_to_wire
from repro.service.service import IndexService
from repro.store.checkpoint import Checkpointer, latest_checkpoint
from repro.store.epoch import read_epoch
from repro.store.recovery import RecoveryResult, recover
from repro.store.wal import FSYNC_POLICIES, WriteAheadLog, encode_record

__all__ = ["ServiceStore", "StoreConfig", "recover"]


@dataclass(frozen=True)
class StoreConfig:
    """How a :class:`ServiceStore` logs, syncs and checkpoints."""

    #: WAL durability policy: ``always`` / ``batch`` / ``off``
    fsync: str = "batch"
    #: under ``batch``, fsync every N-th appended record
    sync_every: int = 8
    #: rotate WAL segments at this size (whole-file truncation unit)
    segment_max_bytes: int = 1 << 20
    #: checkpoint every N committed batches (0 = only explicit/close)
    checkpoint_every_records: int = 512
    #: checkpoints retained after pruning (newest first)
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {self.fsync!r}; choose from {FSYNC_POLICIES}"
            )
        if self.checkpoint_every_records < 0:
            raise StoreError("checkpoint_every_records must be >= 0")
        if self.keep_checkpoints < 1:
            raise StoreError("keep_checkpoints must be >= 1")


class ServiceStore:
    """WAL, checkpointer and fencing epoch over one store directory.

    Get one through :meth:`create` (a fresh directory) or :meth:`reopen`
    (an initialised one, after recovery or promotion); the service
    calls :meth:`log` between apply and publish of every commit.
    """

    def __init__(
        self,
        store_dir: str,
        config: Optional[StoreConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.store_dir = store_dir
        self.store_config = config if config is not None else StoreConfig()
        self.wal = WriteAheadLog(
            store_dir,
            fsync=self.store_config.fsync,
            sync_every=self.store_config.sync_every,
            segment_max_bytes=self.store_config.segment_max_bytes,
            fault_injector=fault_injector,
        )
        self.checkpointer = Checkpointer(
            store_dir,
            self.wal,
            every_records=self.store_config.checkpoint_every_records,
            keep=self.store_config.keep_checkpoints,
            fault_injector=fault_injector,
        )
        #: the fencing epoch this writer was opened under; a promotion
        #: bumps the durable epoch file past this and fences us off
        self.epoch = read_epoch(store_dir)
        #: how this store came back, when :meth:`reopen` followed a recovery
        self.recovery: Optional[RecoveryResult] = None

    @classmethod
    def create(
        cls,
        service: IndexService,
        store_dir: str,
        config: Optional[StoreConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> "ServiceStore":
        """A store over a fresh directory, holding *service* as checkpoint 0.

        A directory that already has a checkpoint is refused before the
        WAL is opened (opening repairs a torn tail; a refusal must not
        change the store it refuses) — :meth:`IndexService.recover`
        replays such a log instead of silently rebuilding over it.
        """
        if os.path.isdir(store_dir) and latest_checkpoint(store_dir) is not None:
            raise StoreError(
                f"store {store_dir!r} already holds a checkpoint; use "
                "IndexService.recover() to reopen it"
            )
        store = cls(store_dir, config, fault_injector)
        store.checkpoint(service, service.version)
        return store

    @classmethod
    def reopen(
        cls,
        store_dir: str,
        config: Optional[StoreConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        recovery: Optional[RecoveryResult] = None,
    ) -> "ServiceStore":
        """A store over an initialised directory; nothing is written.

        For a service whose state already matches the log's end: one
        :func:`recover` just rebuilt (pass its *recovery*, so the cadence
        counts the replayed records) or a promoted follower.
        """
        store = cls(store_dir, config, fault_injector)
        if recovery is not None:
            store.checkpointer.records_since_checkpoint = recovery.replayed_records
            store.recovery = recovery
        return store

    def encode(self, calls: list[tuple[str, tuple]]) -> tuple[list, bytes]:
        """The record the next :meth:`log` will append, serialised now.

        Called before the batch is applied, while failing is free: a
        batch the log cannot carry — a value that is not JSON — raises
        :class:`SerializationError` here and nothing has changed.
        Returns the wire-encoded ops and the record line.  The
        checkpointer's pages outlive this commit only if nothing changed
        the live pair since the last one (its ``expect``).
        """
        ops = batch_to_wire(calls)
        try:
            record = ops, encode_record(self.wal.next_lsn, ops)
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"the log cannot carry this batch: {exc}") from exc
        self.checkpointer.text.expect()
        return record

    def log(self, service: IndexService, ops: list, line: bytes) -> None:
        """Log one applied batch, as :meth:`encode` lowered it; checkpoint
        when the cadence fires.

        Called between the in-memory apply and the snapshot publish: the
        live structures hold the batch but ``service.version`` does not
        yet name it, so a cadence checkpoint here carries the version
        the batch is about to become.  The epoch check runs **before**
        the append: a zombie primary — demoted by a failover it never
        heard about — re-reads the durable epoch here and refuses to
        extend a WAL history that a promoted follower now owns.
        """
        current = read_epoch(self.store_dir)
        if current > self.epoch:
            service.fence(current)
            raise StalePrimaryError(self.epoch, current)
        self.wal.append(ops, line)
        self.checkpointer.text.mark(service.guarded.touched, service.structure)
        if self.checkpointer.note_record():
            self.checkpoint(service, service.version + 1)

    def checkpoint(self, service: IndexService, version: int) -> str:
        """Write *service*'s live pair as *version* (its writer lock held).

        Only the pages the commits since the last checkpoint marked are
        re-rendered — every page if the pair changed since the last
        commit (a rolled-back batch) or a rebuild dropped them.
        """
        return self.checkpointer.checkpoint(service.graph, service.structure, version=version)

    def health(self) -> dict:
        """The durability plane's position."""
        return {
            "dir": self.store_dir,
            "epoch": self.epoch,
            "last_lsn": self.wal.last_lsn,
            "durable_lsn": self.wal.durable_lsn,
            "wal_active_segment": self.wal.active_segment,
            "wal_fsync_policy": self.wal.fsync,
            "wal_rotations": self.wal.rotations,
            "checkpoints_written": self.checkpointer.checkpoints_written,
            "records_since_checkpoint": self.checkpointer.records_since_checkpoint,
            "last_checkpoint_ms": self.checkpointer.last_checkpoint_ms,
            "last_checkpoint_bytes": self.checkpointer.last_checkpoint_bytes,
            "last_checkpoint_pages": self.checkpointer.last_checkpoint_pages,
        }

    def close(self) -> None:
        """Close the WAL (the service has stopped committing)."""
        self.wal.close()
        current_obs().add("store.closes")
