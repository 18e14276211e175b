"""Checked transactional batches of maintenance operations, with a failure policy.

:class:`GuardedMaintainer` wraps any maintainer (1-index split/merge or
propagate, A(k) split/merge or simple) and runs a batch of its public
mutations — ``(method, args)`` pairs naming ``insert_edge`` /
``delete_edge`` / ``insert_node`` / … — inside *one*
:class:`~repro.resilience.journal.Transaction` through
:meth:`~GuardedMaintainer.apply_batch`: the serving layer's unit of
commit (see :mod:`repro.service`), a follower's apply and recovery's
replay all commit that way.  Every transaction is post-checked at the
configured depth before it commits, so no committed batch is one whose
check failed.  Any exception raised mid-batch (a maintainer bug,
corrupted state detected by a support counter, an injected fault) or a
failed post-check rolls the graph *and* the structure back to the exact
pre-batch state, after which the configured policy decides what happens
next:

* ``raise``   — re-raise; the caller sees a clean failure on clean state
  and may resubmit the batch (a transient fault has cleared by then);
* ``degrade`` — rebuild the index from the rolled-back graph (the
  reconstruction discipline of Section 7 / Blume et al.), re-apply the
  batch in a fresh checked transaction, and if even that fails, apply
  the raw graph mutations and rebuild once more — the batch always
  lands, at reconstruction cost instead of incremental cost.

Observability: every batch runs in a ``txn`` span and the counters
``resilience.txns`` / ``.faults`` / ``.rollbacks`` / ``.degradations`` /
``.checks`` tally the guard's work (``.check_visited`` /
``.audit_visited`` what the local checks and the audit slices walked,
``.audits`` the cycles completed), so a traced served run shows exactly
where resilience cost went.  The failure paths additionally emit
``resilience.rolled_back`` (with the ``audit_range`` when an audit slice
found it) / ``.degraded`` / ``.gave_up`` events — the triggers a
:class:`~repro.obs.flight.FlightRecorder` dumps its ring on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.exceptions import InjectedFaultError, InvariantViolationError, RollbackError
from repro.graph.datagraph import DataGraph
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import OPERATIONS
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.resilience.invariants import InvariantGuard
from repro.resilience.journal import TouchedSet, Transaction

POLICIES = ("raise", "degrade")


def _stats_of(result: Any) -> UpdateStats:
    """Extract the UpdateStats from a maintainer-method return value.

    ``insert_node`` / ``add_subgraph`` return ``(payload, stats)`` pairs;
    everything else returns the stats directly.
    """
    if isinstance(result, UpdateStats):
        return result
    return result[1]


@dataclass(frozen=True)
class GuardConfig:
    """How a :class:`GuardedMaintainer` checks its transactions and reacts to failures."""

    #: what to do after a rollback: ``raise`` / ``degrade``
    policy: str = "raise"
    #: post-check depth of every transaction: ``basic`` / ``valid`` /
    #: ``minimal``, or ``""`` for none (recovery's replay, which one
    #: whole-graph check follows)
    check_level: str = "minimal"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")


@dataclass
class GuardStats:
    """Tally of a guarded maintainer's lifetime (mirrors the obs counters)."""

    commits: int = 0
    faults: int = 0
    rollbacks: int = 0
    degradations: int = 0
    raw_fallbacks: int = 0
    checks: int = 0
    check_failures: int = 0
    last_errors: list[str] = field(default_factory=list)


class GuardedMaintainer:
    """Run batches of a maintainer's mutations as checked transactions.

    :meth:`apply_batch` is the one transactional entry; ``graph`` and
    ``structure`` name what the wrapped maintainer maintains.  The
    maintainer stays fully owned by the guard: mutating through it
    directly while a guard is in use defeats the journal and the check.

    *fault_injector* threads a :class:`FaultInjector` into every
    transaction (chaos testing); production use leaves it ``None``.
    """

    def __init__(
        self,
        maintainer: Any,
        config: Optional[GuardConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.maintainer = maintainer
        self.graph: DataGraph = maintainer.graph
        self.config = config if config is not None else GuardConfig()
        self.fault_injector = fault_injector
        self.stats = GuardStats()
        #: what is maintained (:class:`repro.index.structure.Structure`) ...
        self.structure = maintainer.structure
        #: ... and the same object under its kind's name, the other ``None``
        self.index = getattr(maintainer, "index", None)
        self.family = getattr(maintainer, "family", None)
        #: optional :class:`TouchedSet` accumulator for incremental
        #: publication (set via :meth:`track_touched`); ``None`` = off
        self.touched: Optional[TouchedSet] = None
        self.invariants = InvariantGuard(level=self.config.check_level)

    # ------------------------------------------------------------------
    # The guarded mutation surface
    # ------------------------------------------------------------------

    def apply_batch(self, operations: Sequence[tuple[str, tuple]]) -> UpdateStats:
        """Apply a whole sequence of mutations in **one** checked transaction.

        *operations* is a list of ``(method, args)`` pairs naming the
        wrapped maintainer's public mutation methods.  The batch is
        atomic: a failure anywhere — in an operation, or in the
        post-check that follows the last one — rolls back every
        operation already applied, then the configured policy takes
        over: ``raise`` re-raises, ``degrade`` rebuilds and re-applies
        the batch (falling back to raw graph mutations plus one final
        rebuild).  The post-check runs once per *batch*, not once per
        operation, which is one of the reasons batching is cheaper than
        an equivalent stream of single-operation batches.

        Returns the accumulated :class:`UpdateStats` of the batch; what
        an operation creates (``insert_node``'s oid, ``add_subgraph``'s
        copies) is read off the graph.  An empty batch is a no-op (no
        transaction is opened).
        """
        ops = [(method, tuple(args)) for method, args in operations]
        if not ops:
            return UpdateStats(trivial=True)
        obs = current_obs()
        policy = self.config.policy
        with obs.span("txn", op="batch", policy=policy, ops=len(ops)):
            try:
                return self._attempt(ops, obs)
            except RollbackError:
                raise  # state is lost; no policy can help
            except Exception as exc:  # noqa: BLE001 - policy boundary
                self._note_failure(exc, obs)
                error = f"{type(exc).__name__}: {exc}"
                if policy == "degrade":
                    obs.event("resilience.degraded", op="batch", ops=len(ops), error=error)
                    return self._degrade(ops, obs)
                obs.event(
                    "resilience.gave_up", op="batch", ops=len(ops), policy=policy, error=error
                )
                raise

    # ------------------------------------------------------------------
    # Touched-set tracking (incremental snapshot publication)
    # ------------------------------------------------------------------

    def track_touched(self, touched: Optional[TouchedSet]) -> None:
        """Install (or remove, with ``None``) a touched-set accumulator.

        While installed, every transaction feeds its journal records into
        *touched*.  The accumulator is a conservative superset across
        rollbacks — which is also what lets it scope the post-check — and
        the consumer clears it after each successful publish.
        """
        self.touched = touched

    # ------------------------------------------------------------------
    # Transaction engine
    # ------------------------------------------------------------------

    def _attempt(self, ops: list[tuple[str, tuple]], obs) -> UpdateStats:
        """One transaction: apply the batch, post-check it, commit."""
        txn = Transaction(self.graph, self.structure, self.fault_injector, self.touched)
        txn.begin()
        obs.add("resilience.txns")
        try:
            total = UpdateStats(trivial=True)
            for method, args in ops:
                total.absorb(_stats_of(getattr(self.maintainer, method)(*args)))
            if self.invariants.level:
                self.stats.checks += 1
                obs.add("resilience.checks")
                self.invariants.check(self.graph, self.structure, self.touched)
        except BaseException as exc:
            txn.rollback()
            self.stats.rollbacks += 1
            obs.add("resilience.rollbacks")
            attrs = {"error": f"{type(exc).__name__}: {exc}"}
            if getattr(exc, "definition", None) is not None:
                attrs.update(definition=exc.definition, pair=exc.pair)
            if getattr(exc, "audit_range", None) is not None:
                attrs.update(audit_range=exc.audit_range)
            obs.event("resilience.rolled_back", **attrs)
            raise
        txn.commit()
        self.stats.commits += 1
        return total

    def _degrade(self, ops: list[tuple[str, tuple]], obs) -> UpdateStats:
        """Rebuild from the rolled-back graph, then get the batch applied.

        First preference: re-apply the batch incrementally, checked, on
        the freshly rebuilt index (it may have failed due to state the
        rebuild cleared).  Last resort: apply each operation's index-free
        graph effect journal-free and rebuild once more — this cannot
        fail on account of index state, so the guard always makes
        progress.
        """
        self.stats.degradations += 1
        obs.add("resilience.degradations")
        if self.touched is not None:
            # rebuild renames every inode: nothing of the previous
            # snapshot is reusable, so force the full-capture fallback
            self.touched.mark_all()
        self.maintainer.rebuild_from_graph()
        try:
            return self._attempt(ops, obs)
        except RollbackError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._note_failure(exc, obs)
            self.stats.raw_fallbacks += 1
            obs.add("resilience.raw_fallbacks")
            for method, args in ops:
                OPERATIONS[method].raw(self.graph, *args)
            self.maintainer.rebuild_from_graph()
            return UpdateStats()

    def _note_failure(self, exc: BaseException, obs) -> None:
        if isinstance(exc, InjectedFaultError):
            self.stats.faults += 1
            obs.add("resilience.faults")
        if isinstance(exc, InvariantViolationError):
            self.stats.check_failures += 1
            obs.add("resilience.check_failures")
        self.stats.last_errors.append(f"{type(exc).__name__}: {exc}")
        del self.stats.last_errors[:-8]
