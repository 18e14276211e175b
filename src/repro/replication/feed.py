"""The primary side of WAL shipping: the log served as a feed.

A :class:`Primary` wraps a store directory — optionally with the live
:class:`~repro.service.IndexService` writing into it — and answers
two questions a follower has:

* :meth:`checkpoint_bytes` — "give me your newest checkpoint" (the
  bootstrap path: the raw file bytes travel verbatim, CRC and all, so
  the follower verifies them with the same code a local recovery uses);
* :meth:`fetch` — "give me everything after LSN *n*" (the catch-up
  path: records are read through the segment-skipping
  :func:`~repro.store.wal.read_records_since`, wrapped in a CRC-framed
  :class:`FeedFrame` stamped with the store's fencing epoch and the
  log's current end).

Replication is recovery running continuously: both answers are pure
functions of the store directory, so a feed over a *dead* primary's
directory works identically — which is exactly what failover's final
catch-up drain relies on.

When a live service is attached, :meth:`fetch` holds its writer lock:
the WAL may rotate or checkpoint-truncate mid-scan otherwise.  Fetches
are short (``max_records``-bounded) and read-only, so the contention is
the same order as one commit.

**The frame.**  One feed response is one sealed JSON document
(:func:`repro.core.codec.seal`) around records stamped exactly as their
WAL lines are (:func:`repro.core.codec.stamp_record`)::

    {"crc": <frame crc>, "data": {
        "v": 1,
        "epoch": 3,            # the primary's fencing epoch
        "last_lsn": 42,        # end of the primary's log at fetch time
        "records": [{"crc": <record crc>, "lsn": 7, "ops": [...], "v": 1}, ...]
    }}

The frame CRC catches a truncated or bit-flipped response as a whole;
the record CRCs catch a payload that was re-framed around damaged
records — a corrupt proxy can produce a frame whose envelope checks out
but whose cargo does not.  Either failure is a
:class:`SerializationError`; the link treats it as a retriable torn
response, never applying a partial frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.codec import decode_record, is_count, seal, stamp_record, unseal
from repro.exceptions import ReplicationError, SerializationError
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.store.checkpoint import latest_checkpoint
from repro.store.epoch import read_epoch
from repro.service.service import IndexService
from repro.store.wal import last_lsn_on_disk, read_records_since

#: current feed frame format version; bump on structural changes
FEED_FORMAT_VERSION = 1

@dataclass(frozen=True)
class FeedFrame:
    """One decoded, CRC-verified replication feed response."""

    epoch: int
    last_lsn: int
    #: ``(lsn, wire-encoded ops)`` pairs, in LSN order
    records: list[tuple[int, list[dict[str, Any]]]]


def encode_feed_frame(epoch: int, last_lsn: int, records: list[dict[str, Any]]) -> bytes:
    """Encode one feed response; *records* are ``stamp_record`` dicts."""
    data = {
        "v": FEED_FORMAT_VERSION,
        "epoch": epoch,
        "last_lsn": last_lsn,
        "records": records,
    }
    return seal(data).encode("utf-8")


def decode_feed_frame(raw: bytes) -> FeedFrame:
    """Verify and decode one feed response.

    Checks, in order: the envelope and its CRC, the format version, then
    every record's CRC and shape.  Any failure raises
    :class:`SerializationError` — the caller must treat the whole frame
    as undelivered and re-fetch from its own applied LSN.
    """
    data = unseal(raw, SerializationError, "feed frame")
    try:
        version = data.get("v", 0)
        epoch, last_lsn, raw_records = data["epoch"], data["last_lsn"], data["records"]
    except (AttributeError, KeyError) as exc:
        raise SerializationError(f"malformed feed frame: {exc!r}") from exc
    if not is_count(version) or version > FEED_FORMAT_VERSION:
        raise SerializationError(
            f"feed frame format version {version!r} is not one this reader "
            f"supports (<= {FEED_FORMAT_VERSION})"
        )
    if not is_count(epoch) or not is_count(last_lsn) or not isinstance(raw_records, list):
        raise SerializationError("malformed feed frame: bad epoch/last_lsn/records")
    records = []
    for item in raw_records:
        try:
            decoded = decode_record(item)
        except ValueError as exc:
            raise SerializationError(f"malformed feed record: {exc}") from exc
        if decoded is None:
            raise SerializationError("feed record failed its CRC or shape check")
        records.append(decoded)
    return FeedFrame(epoch=epoch, last_lsn=last_lsn, records=records)


class Primary:
    """One store directory exposed as a replication feed.

    Construct from a live service (``Primary(service=primary_service)``)
    while the primary is up, or from a bare directory
    (``Primary(store_dir=path)``) to drain a dead primary's log during
    failover.  *fault_injector* is consumed by the **link**, not here —
    the feed itself always answers truthfully; the injector rides along
    so a link built from this feed inherits it.
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        service: Optional[IndexService] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if (store_dir is None) == (service is None):
            raise ReplicationError("Primary needs exactly one of store_dir= or service=")
        self.service = service
        self.store_dir = store_dir if store_dir is not None else service.store.store_dir
        self.fault_injector = fault_injector
        #: lifetime tallies
        self.fetches = 0
        self.records_shipped = 0

    @property
    def epoch(self) -> int:
        """The store's current fencing epoch (re-read per call)."""
        return read_epoch(self.store_dir)

    @property
    def last_lsn(self) -> int:
        """The end of the primary's log right now."""
        if self.service is not None:
            return self.service.store.wal.last_lsn
        return last_lsn_on_disk(self.store_dir)

    def checkpoint_bytes(self) -> bytes:
        """The newest valid checkpoint's raw file bytes (bootstrap).

        Validity is established the same way recovery establishes it —
        newest-first, skipping corrupt files — and the *bytes* of the
        chosen file are shipped so the follower's CRC check covers the
        transfer too.
        """
        ckpt = latest_checkpoint(self.store_dir)
        if ckpt is None:
            raise ReplicationError(
                f"store {self.store_dir!r} has no loadable checkpoint to bootstrap from"
            )
        with open(ckpt.path, "rb") as fp:
            return fp.read()

    def fetch(self, since_lsn: int, max_records: int = 64) -> bytes:
        """One encoded feed frame: up to *max_records* records past *since_lsn*.

        The frame's ``last_lsn`` is the log's end at fetch time, so a
        follower that receives fewer records than that end implies knows
        it has more catching up to do (and one that receives zero knows
        it is current).  Raises :class:`ReplicationError` when the log
        ends past *since_lsn* but retains nothing after it: a checkpoint
        truncated the records this follower still needed, and no amount
        of re-fetching will bring them back.
        """
        if max_records < 1:
            raise ReplicationError("max_records must be >= 1")
        started = time.perf_counter()
        if self.service is not None:
            with self.service._writer_lock:
                frame = self._build_frame(since_lsn, max_records)
        else:
            frame = self._build_frame(since_lsn, max_records)
        self.fetches += 1
        obs = current_obs()
        obs.add("replication.fetches_served")
        obs.observe("replication.fetch_serve_seconds", time.perf_counter() - started)
        return frame

    def _build_frame(self, since_lsn: int, max_records: int) -> bytes:
        records = []
        for record in read_records_since(self.store_dir, since_lsn):
            records.append(stamp_record(record.lsn, record.ops))
            if len(records) >= max_records:
                break
        last_lsn = self.last_lsn
        if not records and last_lsn > since_lsn:
            raise ReplicationError(
                f"replication gap: the log ends at lsn {last_lsn} but retains "
                f"no record after {since_lsn} — the primary truncated past "
                "this follower; re-bootstrap from a fresh checkpoint"
            )
        self.records_shipped += len(records)
        current_obs().add("replication.records_shipped", len(records))
        return encode_feed_frame(self.epoch, last_lsn, records)
