"""``repro.resilience`` — transactional maintenance and graceful degradation.

The paper's maintainers mutate a graph and its index in lockstep; an
exception mid-operation would leave both silently corrupt.  This package
makes every batch of maintenance operations all-or-nothing:

* :class:`MutationJournal` / :class:`Transaction` — an undo log the
  graph and the structure write through while a transaction is open
  (``None`` hooks, i.e. zero cost, otherwise); a 1-index and an
  :class:`~repro.index.akindex.AkIndexFamily` both enlist through their
  journaled primitives, so a rollback restores either byte for byte;
* :class:`GuardedMaintainer` / :class:`GuardConfig` — runs a batch of any
  maintainer's public mutations as one transaction through
  ``apply_batch``, post-checks every transaction before it commits, and
  applies a ``raise`` / ``degrade`` failure policy, where ``degrade``
  falls back to reconstruction from the rolled-back graph;
* :class:`InvariantGuard` — the post-check, scoped to a transaction's
  touched set plus the next audit slice, reusing the library's
  validity/minimality oracles;
* :class:`FaultInjector` — deterministic, seeded mid-operation faults
  for the chaos suite (``tests/resilience/``).
"""

from repro.resilience.faults import PHASE_KINDS, REPLICATION_FAULTS, FaultInjector
from repro.resilience.guard import POLICIES, GuardConfig, GuardedMaintainer, GuardStats
from repro.resilience.invariants import LEVELS, InvariantGuard
from repro.resilience.journal import (
    JournalRecord,
    MutationJournal,
    TouchedSet,
    Transaction,
)
from repro.resilience.wire import batch_from_wire, batch_to_wire, op_from_wire, op_to_wire

__all__ = [
    "op_to_wire",
    "op_from_wire",
    "batch_to_wire",
    "batch_from_wire",
    "MutationJournal",
    "Transaction",
    "TouchedSet",
    "JournalRecord",
    "GuardedMaintainer",
    "GuardConfig",
    "GuardStats",
    "POLICIES",
    "InvariantGuard",
    "LEVELS",
    "FaultInjector",
    "PHASE_KINDS",
    "REPLICATION_FAULTS",
]
