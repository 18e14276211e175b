"""``repro.resilience`` — transactional maintenance and graceful degradation.

The paper's maintainers mutate a graph and its index in lockstep; an
exception mid-operation would leave both silently corrupt.  This package
makes every maintenance operation all-or-nothing:

* :class:`MutationJournal` / :class:`Transaction` — an undo log the
  graph and index write through while a transaction is open (``None``
  hooks, i.e. zero cost, otherwise), with snapshot-based enlistment for
  the :class:`~repro.index.akindex.AkIndexFamily`;
* :class:`GuardedMaintainer` / :class:`GuardConfig` — runs any
  maintainer's public mutations transactionally and applies a ``raise``
  / ``retry`` / ``degrade`` failure policy, where ``degrade`` falls back
  to reconstruction from the rolled-back graph;
* :class:`InvariantGuard` — cadenced post-checks reusing the library's
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
