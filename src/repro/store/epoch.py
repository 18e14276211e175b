"""The fencing epoch: one durable integer that arbitrates who may write.

Failover's split-brain hazard is a **zombie primary**: the old primary
is still running (it was partitioned, not dead) while a follower has
been promoted.  If both append to the same WAL history, the timeline
forks and replicas diverge irreconcilably.  The classic fix is a
monotonically increasing *epoch* (a.k.a. term): promotion bumps it, and
every writer checks — durably, in its commit path — that its own epoch
is still current before appending.  A demoted primary discovers the
bump at its next commit and refuses the write
(:class:`~repro.exceptions.StalePrimaryError`); reads stay allowed,
they are merely stale.

The epoch lives in ``epoch.json`` inside the store directory, written
with the same tmp + fsync + rename discipline as a checkpoint so a
crash mid-bump leaves either the old or the new value, never garbage.
A store without the file is at epoch 0 (every pre-replication store, so
the format is backward-compatible).
"""

from __future__ import annotations

import json
import os

from repro.core.codec import is_count
from repro.exceptions import StoreError
from repro.store.wal import replace_file

EPOCH_FILE = "epoch.json"


def read_epoch(store_dir: str) -> int:
    """The store's current fencing epoch (0 when the file is absent).

    A malformed epoch file is a :class:`StoreError`, not a silent 0 — a
    fenced-off primary must never mistake damage for permission.
    """
    path = os.path.join(store_dir, EPOCH_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fp:
            document = json.load(fp)
    except FileNotFoundError:
        return 0
    except (OSError, ValueError) as exc:
        raise StoreError(f"cannot read epoch file {path!r}: {exc}") from exc
    epoch = document.get("epoch") if isinstance(document, dict) else None
    if not is_count(epoch):
        raise StoreError(f"malformed epoch file {path!r}: {document!r}")
    return epoch


def write_epoch(store_dir: str, epoch: int) -> None:
    """Durably record *epoch* as the store's current fencing epoch.

    Refuses to move the epoch backwards — a promotion that lost a race
    with another promotion must fail loudly, not quietly un-fence the
    loser's writes.
    """
    if epoch < 0:
        raise StoreError("epoch must be >= 0")
    current = read_epoch(store_dir)
    if epoch < current:
        raise StoreError(
            f"refusing to lower the fencing epoch from {current} to {epoch}"
        )
    document = json.dumps({"epoch": epoch}).encode("ascii")
    replace_file(os.path.join(store_dir, EPOCH_FILE), document)
