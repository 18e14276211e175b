"""repro.store — durable persistence for the served index.

The volatile layers (graph, index, maintenance, service) never touch
disk; this package adds the persistent spine underneath them:

* :mod:`repro.store.wal` — an append-only write-ahead log of committed
  batches: JSONL segments, per-record CRC32, monotonic LSNs, pluggable
  fsync policy, whole-segment truncation.
* :mod:`repro.store.checkpoint` — atomic full snapshots of the graph +
  index pair (tmp-write / fsync / rename), with cadence, pruning and
  WAL truncation handled by :class:`Checkpointer`.
* :mod:`repro.store.recovery` — crash recovery: newest valid
  checkpoint, torn-tail-tolerant WAL replay through the guarded
  maintainer, invariant post-check.
* :mod:`repro.store.service` — :class:`ServiceStore`, the part an
  :class:`~repro.service.IndexService` built with ``store_dir=`` holds:
  it logs every commit before it is published; ``IndexService.recover``
  reopens one.

The crash contract, end to end: any state a reader ever observed is
reconstructible after a crash at any byte of any write — the torture
suite in ``tests/store`` cuts the store at every such byte and asserts
the recovered graph/index dumps are identical to a never-crashed run.
"""

from repro.store.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    Checkpointer,
    checkpoint_from_bytes,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.store.epoch import EPOCH_FILE, read_epoch, write_epoch
from repro.store.recovery import RecoveryResult, recover
from repro.store.service import ServiceStore, StoreConfig
from repro.store.wal import (
    FSYNC_POLICIES,
    WAL_FORMAT_VERSION,
    AppendResult,
    WalRecord,
    WriteAheadLog,
    encode_record,
    last_lsn_on_disk,
    list_segments,
    read_records,
    read_records_since,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "Checkpointer",
    "latest_checkpoint",
    "checkpoint_from_bytes",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "write_checkpoint",
    "EPOCH_FILE",
    "read_epoch",
    "write_epoch",
    "RecoveryResult",
    "recover",
    "ServiceStore",
    "StoreConfig",
    "FSYNC_POLICIES",
    "WAL_FORMAT_VERSION",
    "AppendResult",
    "WalRecord",
    "WriteAheadLog",
    "encode_record",
    "last_lsn_on_disk",
    "list_segments",
    "read_records",
    "read_records_since",
]
