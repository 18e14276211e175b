"""Crash recovery: newest checkpoint + surviving WAL tail → live state.

The recovery protocol, in order:

1. **Select** the newest checkpoint that loads and passes its CRC
   (:func:`repro.store.checkpoint.latest_checkpoint`); partial or
   corrupt files fall back to their predecessor.  No checkpoint at all
   is a :class:`RecoveryError` — an initialised store always has one
   (the durable service writes checkpoint 0 on first open).
2. **Materialise** the graph and its structure through the hardened
   loaders (they validate partitions, labels, supports — a tampered
   checkpoint fails here, not mid-replay).
3. **Replay** every WAL record with ``lsn > checkpoint.wal_lsn``
   through :meth:`GuardedMaintainer.apply_batch` — the same code path
   that applied the batches the first time, so replay is deterministic:
   identical oids, identical inode ids, identical split/merge order.  The
   replay guard raises on any failure and checks no record
   (``check_level=""``): the post-check below covers them all.  A torn
   tail is truncated at the first bad CRC (the unacknowledged suffix); a
   gap *before* the tail aborts recovery.
4. **Post-check**: an :class:`InvariantGuard` pass at ``valid`` depth
   over the recovered pair, so a recovery that produced an inconsistent
   index fails loudly here instead of corrupting the first live commit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.exceptions import RecoveryError
from repro.graph.datagraph import DataGraph
from repro.index.structure import Structure
from repro.obs import current as current_obs
from repro.resilience.guard import GuardConfig, GuardedMaintainer
from repro.resilience.invariants import InvariantGuard
from repro.resilience.wire import batch_from_wire
from repro.store.checkpoint import Checkpoint, latest_checkpoint
from repro.store.wal import read_records_since


@dataclass
class RecoveryResult:
    """Everything :func:`recover` reconstructed, plus how it got there."""

    graph: DataGraph
    maintainer: Any  # the split/merge maintainer of the recovered structure
    #: service version of the recovered state (checkpoint version + replay)
    version: int
    checkpoint_lsn: int
    last_lsn: int
    replayed_records: int
    replayed_ops: int

    @property
    def structure(self) -> Structure:
        """The recovered 1-index or A(k) family (its ``kind`` / ``k`` are the store's)."""
        return self.maintainer.structure


def recover(
    store_dir: str,
    check_level: str = "valid",
    repair: bool = True,
) -> RecoveryResult:
    """Run the full recovery protocol over *store_dir*.

    The single post-check at *check_level* depth covers the recovered
    state (pass ``check_level=""`` to skip it).  ``repair=True``
    truncates a torn WAL tail on disk so the recovered service appends
    from a clean end.
    """
    obs = current_obs()
    started = time.perf_counter()
    with obs.span("store.recover", dir=store_dir):
        ckpt = latest_checkpoint(store_dir)
        if ckpt is None:
            raise RecoveryError(
                f"no loadable checkpoint in {store_dir!r}; the store was never "
                "initialised (or every checkpoint is corrupt)"
            )
        graph, maintainer = ckpt.adopt()
        guarded = GuardedMaintainer(maintainer, GuardConfig(policy="raise", check_level=""))

        replayed_records = 0
        replayed_ops = 0
        last_lsn = ckpt.wal_lsn
        expected = ckpt.wal_lsn + 1
        for record in read_records_since(store_dir, ckpt.wal_lsn, repair=repair):
            if record.lsn != expected:
                raise RecoveryError(
                    f"WAL gap during replay: expected lsn {expected}, "
                    f"found {record.lsn}"
                )
            expected = record.lsn + 1
            ops = batch_from_wire(record.ops)
            if ops:
                guarded.apply_batch(ops)
            replayed_records += 1
            replayed_ops += len(ops)
            last_lsn = record.lsn
        if check_level:
            InvariantGuard(level=check_level).check(graph, maintainer.structure)
        elapsed = time.perf_counter() - started
        obs.add("store.recoveries")
        obs.add("store.replayed_records", replayed_records)
        obs.add("store.replayed_ops", replayed_ops)
        obs.observe("store.recovery_seconds", elapsed)
        obs.event(
            "store.recovered",
            dir=store_dir,
            checkpoint_lsn=ckpt.wal_lsn,
            last_lsn=last_lsn,
            replayed_records=replayed_records,
            replayed_ops=replayed_ops,
            seconds=elapsed,
        )
        return RecoveryResult(
            graph=graph,
            maintainer=maintainer,
            version=ckpt.version + replayed_records,
            checkpoint_lsn=ckpt.wal_lsn,
            last_lsn=last_lsn,
            replayed_records=replayed_records,
            replayed_ops=replayed_ops,
        )
