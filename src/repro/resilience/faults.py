"""Deterministic fault injection for the chaos tests.

A :class:`FaultInjector` plugs into a transaction's journal as the
``on_record`` callback, so it observes every mutation *after* it has been
applied and journaled — raising from that point models a crash in the
middle of a maintenance operation while keeping the undo log consistent
(rollback always restores the exact pre-transaction state).

Trigger modes, combinable:

* ``at_record=M`` — fire when the journal reaches its M-th record; with
  ``rearm=True`` the trigger is periodic (every M-th record), otherwise
  it is one-shot — a resubmission of the same batch then succeeds;
* ``at_phase="split"`` / ``"merge"`` — fire on the first record emitted
  by the named maintenance phase (inode or class creation and dnode moves
  mark split work, inode folding/destruction and class closing mark merge
  work), in either index family;
* ``rate=p, seed=s`` — fire each record independently with probability
  *p* from a seeded stream; deterministic for a fixed seed.

* ``at_io=N`` — an **io** trigger kind: fire on the N-th I/O operation
  (WAL append, fsync, checkpoint rename) observed through the separate
  :meth:`FaultInjector.io` hook.  The durable layer (:mod:`repro.store`)
  threads the injector into its write paths, so the recovery tests can
  fail a write or fsync deterministically mid-commit.  The io counter is
  independent of the journal-record counter; ``rearm`` makes the trigger
  periodic here too.

* ``at_replication=N`` — a **network** trigger kind: fire on the N-th
  replication fetch observed through :meth:`FaultInjector.replication`.
  Unlike the other hooks this one does not raise — it *returns* the
  fault kind (one of :data:`REPLICATION_FAULTS`) and the caller
  (:class:`repro.replication.link.ReplicationLink`) mangles the response
  accordingly: drop the reply, truncate the payload mid-frame, flip a
  byte inside one record, deliver the previous frame again, or stall
  (advertise progress but ship no records).  ``replication_fault``
  selects the kind; pass a sequence to cycle through several across a
  rearmed run.

Every raising trigger raises :class:`repro.exceptions.InjectedFaultError`.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from repro.exceptions import InjectedFaultError

#: response manglings the replication hook can select
REPLICATION_FAULTS = ("drop", "truncate", "corrupt", "duplicate", "stall")

#: journal record kinds emitted by each named maintenance phase
PHASE_KINDS: dict[str, frozenset[str]] = {
    # split work creates inodes / classes and moves dnodes between them
    "split": frozenset({"inode_created", "dnode_moved", "class_opened", "member_moved"}),
    # merge work folds inodes together and destroys emptied ones / closes classes
    "merge": frozenset({"merge_folded", "inode_destroyed", "class_closed"}),
}


class FaultInjector:
    """A seeded, deterministic journal-record trigger.

    One injector may outlive many transactions (the record count keeps
    running across them), which is how a chaos run injects faults at
    arbitrary points of a long workload.  :attr:`fired` counts the faults
    raised; :attr:`seen` the records observed.
    """

    def __init__(
        self,
        at_record: Optional[int] = None,
        at_phase: Optional[str] = None,
        rate: float = 0.0,
        seed: int = 0,
        rearm: bool = False,
        at_io: Optional[int] = None,
        at_replication: Optional[int] = None,
        replication_fault: Union[str, Sequence[str]] = "drop",
    ):
        if at_record is not None and at_record < 1:
            raise ValueError("at_record must be >= 1")
        if at_phase is not None and at_phase not in PHASE_KINDS:
            raise ValueError(f"unknown phase {at_phase!r}; choose from {sorted(PHASE_KINDS)}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        if at_io is not None and at_io < 1:
            raise ValueError("at_io must be >= 1")
        if at_replication is not None and at_replication < 1:
            raise ValueError("at_replication must be >= 1")
        if isinstance(replication_fault, str):
            replication_fault = (replication_fault,)
        else:
            replication_fault = tuple(replication_fault)
        for kind in replication_fault:
            if kind not in REPLICATION_FAULTS:
                raise ValueError(
                    f"unknown replication fault {kind!r}; "
                    f"choose from {REPLICATION_FAULTS}"
                )
        self.at_record = at_record
        self.at_phase = at_phase
        self.rate = rate
        self.rearm = rearm
        self.at_io = at_io
        self.at_replication = at_replication
        self.replication_faults = replication_fault
        self.seen = 0
        self.io_seen = 0
        self.replication_seen = 0
        self.fired = 0
        self._armed = True
        self._rng = random.Random(seed)

    def __call__(self, op: str, record_number: int) -> None:
        """The journal's ``on_record`` hook; raises when a trigger matches."""
        del record_number  # position within one journal; we count globally
        self.seen += 1
        if not self._armed:
            return
        trigger = None
        if self.at_record is not None:
            if self.rearm:
                if self.seen % self.at_record == 0:
                    trigger = f"record %{self.at_record}"
            elif self.seen == self.at_record:
                trigger = f"record {self.at_record}"
        if trigger is None and self.at_phase is not None:
            if op in PHASE_KINDS[self.at_phase]:
                trigger = f"phase {self.at_phase} ({op})"
        if trigger is None and self.rate > 0.0:
            if self._rng.random() < self.rate:
                trigger = f"rate {self.rate}"
        if trigger is None:
            return
        if not self.rearm:
            self._armed = False
        self.fired += 1
        raise InjectedFaultError(trigger, self.seen)

    def io(self, op: str) -> None:
        """The durable layer's I/O hook; raises when the io trigger matches.

        Called by :mod:`repro.store` immediately **before** a WAL append,
        an fsync, or a checkpoint rename performs its system call, so a
        firing models the I/O never happening (a crash or an EIO), with
        everything previously written still on disk.
        """
        self.io_seen += 1
        if not self._armed or self.at_io is None:
            return
        if self.rearm:
            if self.io_seen % self.at_io != 0:
                return
        elif self.io_seen != self.at_io:
            return
        if not self.rearm:
            self._armed = False
        self.fired += 1
        raise InjectedFaultError(f"io {op}", self.io_seen)

    def replication(self, op: str) -> Optional[str]:
        """The replication link's network hook; returns a fault kind or ``None``.

        Called once per fetch attempt (*op* names it, e.g. ``"feed.fetch"``).
        A match returns the next kind from ``replication_fault`` (cycling
        when several were given) instead of raising — the link owns the
        response bytes, so it applies the mangling itself and the fault
        exercises the *decode-and-retry* path rather than an exception
        path the network would never take.
        """
        del op  # named for symmetry with io(); the count is global
        self.replication_seen += 1
        if not self._armed or self.at_replication is None:
            return None
        if self.rearm:
            if self.replication_seen % self.at_replication != 0:
                return None
        elif self.replication_seen != self.at_replication:
            return None
        if not self.rearm:
            self._armed = False
        kind = self.replication_faults[
            (self.fired) % len(self.replication_faults)
        ]
        self.fired += 1
        return kind

    def reset(self) -> None:
        """Re-arm a one-shot injector and restart the record and io counts."""
        self.seen = 0
        self.io_seen = 0
        self.replication_seen = 0
        self._armed = True
