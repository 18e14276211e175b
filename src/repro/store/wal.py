"""The write-ahead log: append-only JSONL segments of mutation batches.

One WAL record is one committed service batch — the list of coalesced
operations in the :mod:`repro.resilience.wire` encoding — stamped with a
monotonically increasing **LSN** (log sequence number, one per commit)
and a CRC32.  On disk a record is one line of a segment file, in the
record format of :mod:`repro.core.codec` (the one a feed frame carries
in flight)::

    {"crc":2868999698,"lsn":7,"ops":[{"args":[...],"op":"insert_edge"}],"v":1}

Any torn or bit-flipped line fails either JSON parsing or the CRC and
marks the end of the recoverable log (see below).  ``v`` is the record
format version; readers reject records from a future format instead of
misparsing them.

**Segments** are named ``wal-<first_lsn>.jsonl`` and rotated when the
active segment exceeds ``segment_max_bytes``, so checkpoint truncation
(:meth:`WriteAheadLog.truncate_upto`) can drop whole files instead of
rewriting one unbounded log.

**Durability** is a policy (`fsync`):

* ``always`` — fsync after every append: a record returned from
  :meth:`append` survives an immediate power cut; slowest.
* ``batch``  — fsync every ``sync_every`` appends and at every rotation,
  checkpoint and close: bounded loss window, near-``off`` throughput.
* ``off``    — never fsync (the OS decides); survives process crashes
  (the data is in the page cache) but not power loss.

**Torn tails.**  A crash mid-append leaves a partial final line.  The
reader (:func:`read_records_since`) accepts every valid record up to the first
bad line of the **final** segment and truncates the file there — that is
exactly the prefix the writer could have acknowledged.  A crash that
cuts only the trailing newline leaves a whole, valid record, which is
accepted; repair rewrites the terminator so the next append starts a
fresh line.  A bad record with valid records *after* it — in any
segment — is real corruption and raises :class:`WalCorruptionError`;
replay must not silently skip the middle of a log.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.core import codec
from repro.exceptions import StoreError, WalCorruptionError
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector

#: current WAL record format version; bump on structural changes
WAL_FORMAT_VERSION = codec.RECORD_FORMAT_VERSION

#: fsync policies, strongest first
FSYNC_POLICIES = ("always", "batch", "off")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"


def segment_name(first_lsn: int) -> str:
    """The file name of the segment whose first record is *first_lsn*."""
    return f"{SEGMENT_PREFIX}{first_lsn:020d}{SEGMENT_SUFFIX}"


def segment_first_lsn(name: str) -> int:
    """Parse a segment file name back to its first LSN."""
    return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


def list_segments(directory: str) -> list[str]:
    """Segment file names in *directory*, in LSN order."""
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    ]
    return sorted(names, key=segment_first_lsn)


def encode_record(lsn: int, ops: list[dict[str, Any]]) -> bytes:
    """One WAL record as a CRC-stamped JSONL line."""
    return (codec.encode_record(lsn, ops) + "\n").encode("utf-8")


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: a commit's LSN plus its wire-encoded ops."""

    lsn: int
    ops: list[dict[str, Any]]


@dataclass(frozen=True)
class AppendResult:
    """Where one append landed (the crash-point tests cut inside this span)."""

    lsn: int
    segment: str
    start: int  # byte offset of the record within its segment
    end: int  # byte offset one past the record's newline


def _decode_line(line: bytes) -> Optional[WalRecord]:
    """Decode one segment line; ``None`` marks a torn/corrupt record."""
    try:
        record = json.loads(line)
    except ValueError:  # not JSON, or not UTF-8
        return None
    try:
        decoded = codec.decode_record(record)
    except ValueError as exc:
        # whole, but of a format this reader does not know: not a torn
        # tail; surface it loudly
        raise WalCorruptionError("<record>", 0, str(exc)) from exc
    return None if decoded is None else WalRecord(*decoded)


@dataclass(frozen=True)
class _SegmentScan:
    """What :func:`_scan_segment` found in one segment file."""

    records: list[WalRecord]
    valid_bytes: int  # byte length of the longest whole-valid-record prefix
    bad_reason: Optional[str]  # None iff the valid prefix runs to EOF
    tail_only: bool  # nothing record-like follows the bad data (if any)
    missing_newline: bool  # final record is whole but its newline was cut


def _record_like(line: bytes) -> bool:
    """Is *line* a whole, structurally valid record?

    Tells a torn tail (junk with nothing after it — safe to truncate)
    from mid-log corruption (a bad line *followed by* records the writer
    acknowledged — must never be dropped).
    """
    try:
        return _decode_line(line) is not None
    except WalCorruptionError:
        return True  # a future-format record is still a record, not torn junk


def _scan_segment(path: str) -> _SegmentScan:
    """Read one segment file.

    ``valid_bytes`` is the byte length of the longest prefix of whole,
    valid records; ``bad_reason`` is ``None`` iff the file ends exactly
    at that prefix.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    # rest: what follows the last newline (nothing, after a clean append)
    *lines, rest = data.split(b"\n")
    records: list[WalRecord] = []
    offset = 0
    for position, line in enumerate(lines):
        record = _decode_line(line)
        if record is None:
            tail_only = not any(map(_record_like, lines[position + 1 :] + [rest]))
            reason = f"bad record at byte {offset}"
            if not tail_only:
                reason += " with valid records after it"
            return _SegmentScan(records, offset, reason, tail_only, False)
        records.append(record)
        offset += len(line) + 1
    if not rest:
        return _SegmentScan(records, offset, None, True, False)
    # unterminated final line: accept it only if it decodes whole (the
    # crash cut exactly the trailing newline)
    record = _decode_line(rest)
    if record is None:
        return _SegmentScan(records, offset, "torn final record", True, False)
    records.append(record)
    return _SegmentScan(records, len(data), None, True, True)


def read_records(directory: str, repair: bool = False) -> list[WalRecord]:
    """Read every surviving record of the log, in LSN order.

    The whole log as a list: :func:`read_records_since` from before the
    first record, with its torn-tail, repair and corruption semantics.
    """
    return list(read_records_since(directory, -1, repair=repair))


def read_records_since(
    directory: str, lsn: int, repair: bool = False
) -> Iterator[WalRecord]:
    """Yield every surviving record with ``record.lsn > lsn``, lazily.

    The one walk over the segments — recovery replaying past a
    checkpoint, the replication feed serving a follower's ``since=LSN``
    fetch, and :func:`read_records` for the whole log all read through
    it.  A consumer of a suffix saves two costs:

    * **whole segments are skipped by name**: segment *i* holds LSNs
      ``[first_i, first_{i+1})``, so any segment whose successor's
      name-encoded first LSN is ``<= lsn + 1`` cannot contain a wanted
      record and is never even opened;
    * **records are yielded one at a time**, one segment resident in
      memory at once, instead of materialising the whole log up front.

    Over the segments actually scanned, tails are read as the module
    docstring says (*Torn tails*): damage with nothing record-like after
    it, in the **last** segment, ends the log — ``repair=True`` truncates
    the file to the valid prefix, or restores a cut final newline, so a
    reopened writer appends from a clean end — and a bad line *followed
    by* valid records, in any segment, raises
    :class:`WalCorruptionError`.  LSNs must increase by exactly one
    across segment boundaries; a gap or repeat is corruption.  ``lsn``
    past the end of the log yields nothing — an empty feed, not an error.
    """
    segments = list_segments(directory)
    expected: Optional[int] = None
    for position, name in enumerate(segments):
        # skip whole segments that end at or before the requested LSN;
        # bounds come from the *successor's* name, so the last segment
        # (no successor) is always scanned
        if position + 1 < len(segments):
            if segment_first_lsn(segments[position + 1]) <= lsn + 1:
                continue
        path = os.path.join(directory, name)
        scan = _scan_segment(path)
        if scan.bad_reason is not None:
            if position != len(segments) - 1 or not scan.tail_only:
                raise _corruption(name, scan, scan.bad_reason)
        if repair and (scan.bad_reason is not None or scan.missing_newline):
            _repair_tail(path, scan)
        for record in scan.records:
            if expected is not None and record.lsn != expected:
                raise _corruption(
                    name, scan, f"LSN gap: expected {expected}, found {record.lsn}"
                )
            expected = record.lsn + 1
            if record.lsn > lsn:
                yield record


def _corruption(segment: str, scan: _SegmentScan, reason: str) -> WalCorruptionError:
    """Put a corruption finding on the event stream; returns the error to raise."""
    current_obs().event(
        "store.wal_corruption", segment=segment, valid_bytes=scan.valid_bytes, reason=reason
    )
    return WalCorruptionError(segment, scan.valid_bytes, reason)


def _repair_tail(path: str, scan: _SegmentScan) -> None:
    """Cut a torn tail off the final segment, or restore its cut newline."""
    if scan.bad_reason is not None:
        with open(path, "rb+") as fp:
            fp.truncate(scan.valid_bytes)
    else:
        with open(path, "ab") as fp:
            fp.write(b"\n")
    obs = current_obs()
    obs.add("store.wal_tail_repairs")
    obs.event(
        "store.wal_tail_repaired",
        segment=os.path.basename(path),
        valid_bytes=scan.valid_bytes,
        reason=scan.bad_reason or "missing newline on final record",
    )


def last_lsn_on_disk(directory: str) -> int:
    """The LSN of the last surviving record in *directory* (0 when empty).

    Reads only the final segment (plus its name): the replication feed
    stamps every response with the log's current end so followers can
    compute their lag without the primary process being alive.
    """
    segments = list_segments(directory)
    if not segments:
        return 0
    scan = _scan_segment(os.path.join(directory, segments[-1]))
    if scan.records:
        return scan.records[-1].lsn
    # an empty active segment (post-truncation) is named for the next
    # LSN, so the log ends just before it
    return segment_first_lsn(segments[-1]) - 1


def _fsync_dir(directory: str) -> None:
    """Persist directory entries (segment creation/unlink); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


#: what :func:`replace_file` appends to a path while the new bytes are
#: not yet in place; a crash before the rename leaves such a file behind
TMP_SUFFIX = ".tmp"


def replace_file(
    path: str, data: bytes, before_rename: Optional[Callable[[], None]] = None
) -> None:
    """Put *data* at *path* atomically: a crash leaves the old file or the new.

    Written to ``<path>.tmp``, flushed and fsynced, renamed over *path*,
    then the directory is fsynced; *before_rename* runs between the
    write and the rename (the atomicity tests' fault point).
    """
    tmp_path = path + TMP_SUFFIX
    with open(tmp_path, "wb") as fp:
        fp.write(data)
        fp.flush()
        os.fsync(fp.fileno())
    if before_rename is not None:
        before_rename()
    os.replace(tmp_path, path)
    _fsync_dir(os.path.dirname(path))


class WriteAheadLog:
    """Append-only, CRC-guarded, segment-rotated log of commit batches.

    Opening a directory repairs any torn tail (see :func:`read_records`)
    and resumes the LSN sequence after the last valid record.  One
    writer per directory — the single-writer discipline of the service
    layer extends to its log; nothing here locks against a second
    process.

    *fault_injector* threads a :class:`FaultInjector` into the write
    path: its :meth:`~FaultInjector.io` hook runs immediately before
    every file write and fsync (chaos testing); production leaves it
    ``None``.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        sync_every: int = 8,
        segment_max_bytes: int = 1 << 20,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        if sync_every < 1:
            raise StoreError("sync_every must be >= 1")
        if segment_max_bytes < 1:
            raise StoreError("segment_max_bytes must be >= 1")
        self.directory = directory
        self.fsync = fsync
        self.sync_every = sync_every
        self.segment_max_bytes = segment_max_bytes
        self.fault_injector = fault_injector
        os.makedirs(directory, exist_ok=True)

        #: lifetime tallies (mirrored into the ``store.*`` obs counters)
        self.appended_records = 0
        self.appended_bytes = 0
        self.fsyncs_performed = 0
        self.rotations = 0
        self._unsynced = 0
        self.last_append: Optional[AppendResult] = None

        existing = read_records(directory, repair=True)
        segments = list_segments(directory)
        # a checkpoint truncation leaves one empty segment named for the
        # next LSN; resume from that floor, never restart at 1 — a record
        # re-using a checkpointed LSN would be skipped as superseded on
        # the next recovery, silently dropping an acknowledged commit
        floor = segment_first_lsn(segments[-1]) if segments else 1
        self.next_lsn = max(existing[-1].lsn + 1 if existing else 1, floor)
        # everything that survived the open scan is on disk already; it
        # is the durability floor until the next fsync moves it forward
        self.synced_lsn = self.next_lsn - 1
        self._segment = segments[-1] if segments else None
        self._fp = None
        if self._segment is not None:
            self._fp = open(os.path.join(directory, self._segment), "ab")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self.next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """LSN of the last record known to have reached stable storage.

        Advances only when an fsync actually runs, so under ``fsync="off"``
        it stays at the value observed at open — appended records live in
        the page cache and would not survive power loss.  ``last_lsn -
        durable_lsn`` is the acknowledged-but-volatile window that
        ``/health`` exposes.
        """
        return self.synced_lsn

    @property
    def active_segment(self) -> Optional[str]:
        """File name of the segment currently being appended to."""
        return self._segment

    def append(
        self, ops: list[dict[str, Any]], line: Optional[bytes] = None
    ) -> AppendResult:
        """Append one commit batch (already wire-encoded) as one record.

        *line* is ``encode_record(self.next_lsn, ops)`` when the caller
        built it already — the commit path does, before it applies the
        batch, so the record is serialised once.  Returns the assigned
        LSN plus the record's byte span within its segment.  Durability
        on return depends on the fsync policy.
        """
        if self._fp is None or self._fp.tell() >= self.segment_max_bytes:
            self._rotate()
        lsn = self.next_lsn
        if line is None:
            line = encode_record(lsn, ops)
        if self.fault_injector is not None:
            self.fault_injector.io("wal.append")
        write_started = time.perf_counter()
        start = self._fp.tell()
        self._fp.write(line)
        self._fp.flush()
        write_elapsed = time.perf_counter() - write_started
        self.next_lsn = lsn + 1
        self.appended_records += 1
        self.appended_bytes += len(line)
        self._unsynced += 1
        obs = current_obs()
        obs.add("store.wal_appends")
        obs.add("store.wal_ops", len(ops))
        obs.add("store.wal_bytes", len(line))
        obs.observe("store.wal_append_seconds", write_elapsed)
        if self.fsync == "always" or (
            self.fsync == "batch" and self._unsynced >= self.sync_every
        ):
            self.sync()
        self.last_append = AppendResult(
            lsn=lsn, segment=self._segment, start=start, end=start + len(line)
        )
        return self.last_append

    def sync(self) -> None:
        """Force the active segment to stable storage (unless ``off``)."""
        if self._fp is None or self.fsync == "off":
            self._unsynced = 0
            return
        if self.fault_injector is not None:
            self.fault_injector.io("wal.fsync")
        obs = current_obs()
        started = time.perf_counter()
        with obs.span("store.fsync", segment=self._segment):
            self._fp.flush()
            os.fsync(self._fp.fileno())
        self.fsyncs_performed += 1
        self._unsynced = 0
        self.synced_lsn = self.last_lsn
        obs.add("store.fsyncs")
        obs.observe("store.fsync_seconds", time.perf_counter() - started)

    def _rotate(self) -> None:
        """Close the active segment and start a fresh one at ``next_lsn``."""
        if self._fp is not None:
            if self.fsync != "off":
                self.sync()
            self._fp.close()
            self.rotations += 1
            current_obs().add("store.wal_rotations")
        self._segment = segment_name(self.next_lsn)
        self._fp = open(os.path.join(self.directory, self._segment), "ab")
        if self.fsync != "off":
            _fsync_dir(self.directory)

    def truncate_upto(self, lsn: int) -> int:
        """Drop every segment whose records are all ``<= lsn``.

        Called after a checkpoint at *lsn*: the checkpoint supersedes that
        prefix of the log.  Rotates first so the active segment is never
        rewritten, then unlinks obsolete whole segments.  Returns how many
        segments were removed.
        """
        self._rotate()
        segments = list_segments(self.directory)
        removed = 0
        # segment i holds LSNs [first_i, first_{i+1}); the active (last)
        # segment is empty post-rotation and always survives
        for name, successor in zip(segments, segments[1:]):
            if segment_first_lsn(successor) <= lsn + 1:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        if removed:
            if self.fsync != "off":
                _fsync_dir(self.directory)
            current_obs().add("store.wal_truncated_segments", removed)
        return removed

    def close(self) -> None:
        """Flush, fsync (policy permitting) and close the active segment."""
        if self._fp is None:
            return
        if self.fsync != "off":
            self.sync()
        self._fp.close()
        self._fp = None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def records(self) -> Iterator[WalRecord]:
        """Iterate the whole surviving log (reads from disk, no repair)."""
        return iter(read_records(self.directory, repair=False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WriteAheadLog dir={self.directory!r} next_lsn={self.next_lsn} "
            f"fsync={self.fsync!r} segment={self._segment!r}>"
        )
