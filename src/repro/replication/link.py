"""The hostile-network wrapper around a replication feed.

A :class:`ReplicationLink` is what a follower actually talks to.  It
owns everything that can go wrong between the primary's answer and the
follower's apply loop:

* **deadline/timeout** — a fetch that keeps failing exhausts either its
  attempt budget or its wall-clock deadline and raises
  :class:`~repro.exceptions.ReplicationTimeoutError`; one bad response
  never surfaces;
* **capped exponential backoff with jitter** — retry *n* sleeps
  ``min(base * 2^n, cap) * (1 ± jitter)`` from a seeded stream, so the
  chaos tests are deterministic and a thundering herd of followers
  desynchronises;
* **resumable re-fetch** — a torn or corrupt frame (frame CRC, record
  CRC, malformed JSON) is discarded *whole* and re-fetched from the same
  ``since_lsn``; the feed is idempotent, so resumption is just asking
  again;
* **epoch monotonicity** — the link remembers the highest epoch any
  frame carried and raises :class:`~repro.exceptions.StaleEpochError`
  on a frame from an earlier one (a zombie primary's answer must not
  reach the apply loop).

Fault injection happens *here*, on the response bytes, because this is
the layer whose job is surviving a hostile network: the armed
:class:`~repro.resilience.faults.FaultInjector`'s ``replication`` hook
names a mangling (:data:`~repro.resilience.faults.REPLICATION_FAULTS`)
and the link applies it to the primary's honest answer — drop it,
truncate it mid-frame, flip a byte inside one record, deliver the
previous frame again, or stall (an empty frame that still advertises
the log's end).  Every mangling therefore exercises the same
decode-verify-retry path a real network failure would.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Optional

from repro.exceptions import (
    ReplicationError,
    ReplicationTimeoutError,
    SerializationError,
    StaleEpochError,
)
from repro.obs import current as current_obs
from repro.core.codec import seal
from repro.replication.feed import FeedFrame, Primary, decode_feed_frame, encode_feed_frame
from repro.resilience.faults import FaultInjector


class _InjectedDrop(Exception):
    """Internal: the injector swallowed this response (retry path)."""


class ReplicationLink:
    """A follower's fetch channel: feed + retry policy + fault surface.

    *sleep* is injectable so the tests can run the full backoff schedule
    in zero wall-clock time.
    """

    def __init__(
        self,
        feed: Primary,
        max_attempts: int = 8,
        deadline_seconds: Optional[float] = None,
        backoff_base: float = 0.01,
        backoff_cap: float = 1.0,
        jitter: float = 0.25,
        seed: int = 0,
        fault_injector: Optional[FaultInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ReplicationError("max_attempts must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ReplicationError("jitter must lie in [0, 1)")
        self.feed = feed
        self.max_attempts = max_attempts
        self.deadline_seconds = deadline_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.fault_injector = (
            fault_injector if fault_injector is not None else feed.fault_injector
        )
        self.sleep = sleep
        self._rng = random.Random(seed)
        #: the highest epoch any verified frame carried
        self.highest_epoch = 0
        #: the last successfully delivered raw frame (duplicate fault replays it)
        self._last_raw: Optional[bytes] = None
        #: lifetime tallies
        self.fetches = 0
        self.retries = 0
        self.faults_applied: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Fetch with retry
    # ------------------------------------------------------------------

    def fetch(self, since_lsn: int, max_records: int = 64) -> FeedFrame:
        """One verified frame past *since_lsn*, however many tries it takes."""
        started = time.monotonic()
        failure: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if (
                self.deadline_seconds is not None
                and time.monotonic() - started > self.deadline_seconds
            ):
                break
            if attempt > 0:
                self.retries += 1
                current_obs().add("replication.retries")
                self.sleep(self._backoff(attempt))
            try:
                raw = self._transfer(since_lsn, max_records)
            except _InjectedDrop as exc:
                failure = ReplicationTimeoutError(str(exc))
                continue
            try:
                frame = decode_feed_frame(raw)
            except SerializationError as exc:
                # torn/corrupt response: discard whole, re-fetch from the
                # same LSN — the feed is idempotent
                current_obs().add("replication.torn_frames")
                failure = exc
                continue
            if frame.epoch < self.highest_epoch:
                raise StaleEpochError(self.highest_epoch, frame.epoch)
            self.highest_epoch = frame.epoch
            self._last_raw = raw
            self.fetches += 1
            current_obs().add("replication.fetches")
            return frame
        raise ReplicationTimeoutError(
            f"fetch(since={since_lsn}) failed after {self.max_attempts} attempts "
            f"({time.monotonic() - started:.3f}s); last failure: {failure!r}"
        ) from failure

    def fetch_checkpoint(self) -> bytes:
        """The primary's newest checkpoint bytes (bootstrap; retried).

        Verification happens in the follower via
        :func:`~repro.store.checkpoint.checkpoint_from_bytes`; the link
        only moves the bytes and retries an injected drop.
        """
        failure: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.retries += 1
                self.sleep(self._backoff(attempt))
            fault = None
            if self.fault_injector is not None:
                fault = self.fault_injector.replication("feed.checkpoint")
            if fault is not None:
                self._count_fault(fault)
                failure = ReplicationTimeoutError(f"injected {fault} on checkpoint fetch")
                continue
            return self.feed.checkpoint_bytes()
        raise ReplicationTimeoutError(
            f"checkpoint fetch failed after {self.max_attempts} attempts; "
            f"last failure: {failure!r}"
        ) from failure

    # ------------------------------------------------------------------
    # The hostile wire
    # ------------------------------------------------------------------

    def _transfer(self, since_lsn: int, max_records: int) -> bytes:
        """One network round trip, with the injector's mangling applied."""
        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.replication("feed.fetch")
        if fault == "stall":
            # the feed advertises its end but ships nothing: progress
            # without cargo, the failure mode lag alerts exist for
            self._count_fault(fault)
            return encode_feed_frame(self.feed.epoch, self.feed.last_lsn, [])
        if fault == "duplicate" and self._last_raw is not None:
            # the previous response arrives again (a retransmit the
            # network deduplication missed); apply-side idempotence
            # turns it into a logged no-op
            self._count_fault(fault)
            return self._last_raw
        raw = self.feed.fetch(since_lsn, max_records)
        if fault == "drop":
            self._count_fault(fault)
            raise _InjectedDrop("injected drop of feed response")
        if fault == "truncate":
            self._count_fault(fault)
            return raw[: max(1, len(raw) // 2)]
        if fault == "corrupt":
            self._count_fault(fault)
            return self._corrupt_one_record(raw)
        if fault == "duplicate":
            # nothing delivered yet to duplicate; the honest frame goes
            # through and the *next* match will replay it
            self._count_fault(fault)
        return raw

    @staticmethod
    def _corrupt_one_record(raw: bytes) -> bytes:
        """Mangle one record *after* its CRC was computed, re-frame validly.

        Models a corrupting middlebox that recomputes the outer envelope:
        the frame CRC passes, the per-record CRC must catch it.  A frame
        with no records gets a flipped byte instead (frame CRC catches
        that).
        """
        document = json.loads(raw)
        records = document["data"]["records"]
        if not records:
            mangled = bytearray(raw)
            mangled[len(mangled) // 2] ^= 0xFF
            return bytes(mangled)
        record = records[0]
        record["lsn"] = record.get("lsn", 0) + 1  # CRC no longer matches
        return seal(document["data"]).encode("utf-8")

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)
        return base * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))

    def _count_fault(self, kind: str) -> None:
        self.faults_applied[kind] = self.faults_applied.get(kind, 0) + 1
        current_obs().add(f"replication.fault_{kind}")
