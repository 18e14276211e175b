"""Transactional execution of maintenance operations with failure policies.

:class:`GuardedMaintainer` wraps any maintainer (1-index split/merge or
propagate, A(k) split/merge or simple) and runs each public mutation —
``insert_edge`` / ``delete_edge`` / ``insert_node`` / ``delete_node`` /
``add_subgraph`` / ``delete_subgraph`` — inside a
:class:`~repro.resilience.journal.Transaction`, and :meth:`~GuardedMaintainer.apply_batch`
runs a whole sequence of such operations in a *single* transaction (the
serving layer's unit of commit — see :mod:`repro.service`).  Any exception raised
mid-operation (a maintainer bug, corrupted state detected by a support
counter, an injected fault) or a failed post-check rolls the graph *and*
index back to the exact pre-call state, after which the configured
policy decides what happens next:

* ``raise``   — re-raise; the caller sees a clean failure on clean state;
* ``retry``   — re-run the operation in a fresh transaction up to
  ``max_retries`` times (transient faults clear; deterministic ones fall
  through to ``raise``);
* ``degrade`` — rebuild the index from the rolled-back graph (the
  reconstruction discipline of Section 7 / Blume et al.), re-apply the
  operation incrementally, and if even that fails, apply the raw graph
  mutation and rebuild once more — the update always lands, at
  reconstruction cost instead of incremental cost.

Observability: every attempt runs in a ``txn`` span and the counters
``resilience.txns`` / ``.faults`` / ``.rollbacks`` / ``.retries`` /
``.degradations`` / ``.checks`` tally the guard's work
(``.check_visited`` / ``.audit_visited`` what the local checks and the
audit slices walked, ``.audits`` the cycles completed), so a traced
guarded run (``--guard --trace``) shows exactly where resilience cost
went.  The failure paths additionally emit ``resilience.rolled_back``
(with the ``audit_range`` when an audit slice found it) /
``.degraded`` / ``.gave_up`` events — the triggers a
:class:`~repro.obs.flight.FlightRecorder` dumps its ring on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.exceptions import RollbackError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.maintenance.base import UpdateStats
from repro.maintenance.operations import OPERATIONS
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.resilience.invariants import InvariantGuard
from repro.resilience.journal import TouchedSet, Transaction

POLICIES = ("raise", "retry", "degrade")


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
    """How a :class:`GuardedMaintainer` reacts to failures."""

    #: what to do after a rollback: ``raise`` / ``retry`` / ``degrade``
    policy: str = "raise"
    #: invariant depth: ``basic`` / ``valid`` / ``minimal``
    check_level: str = "minimal"
    #: post-check every N-th update (0 disables checks)
    check_every: int = 1
    #: attempts after the first failure under the ``retry`` policy
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")


@dataclass
class GuardStats:
    """Tally of a guarded maintainer's lifetime (mirrors the obs counters)."""

    commits: int = 0
    faults: int = 0
    rollbacks: int = 0
    retries: int = 0
    degradations: int = 0
    raw_fallbacks: int = 0
    checks: int = 0
    check_failures: int = 0
    last_errors: list[str] = field(default_factory=list)


class GuardedMaintainer:
    """Run a maintainer's mutations transactionally with a failure policy.

    Satisfies the same protocol as the wrapped maintainer (``graph``,
    ``insert_edge``, ``delete_edge``, ``index_size``, …) so the
    experiment runner can use it as a drop-in replacement.  The wrapped
    maintainer stays fully owned by the guard: mutating through it
    directly while a guard is in use defeats the journal.

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
        self.invariants = InvariantGuard(
            level=self.config.check_level, check_every=self.config.check_every
        )

    # ------------------------------------------------------------------
    # The guarded mutation surface
    # ------------------------------------------------------------------

    def insert_edge(
        self, source: int, target: int, kind: EdgeKind = EdgeKind.TREE
    ) -> UpdateStats:
        """Insert a dedge transactionally."""
        return self._call("insert_edge", (source, target, kind))

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete a dedge transactionally."""
        return self._call("delete_edge", (source, target))

    def insert_node(
        self, parent: int, label: str, value: object = None
    ) -> tuple[int, UpdateStats]:
        """Create a dnode under *parent* transactionally."""
        return self._call("insert_node", (parent, label, value))

    def delete_node(self, dnode: int) -> UpdateStats:
        """Delete a dnode and its incident dedges transactionally."""
        return self._call("delete_node", (dnode,))

    def add_subgraph(
        self,
        subgraph: DataGraph,
        subgraph_root: int,
        cross_edges: tuple = (),
        preserve_oids: bool = False,
    ) -> tuple[dict[int, int], UpdateStats]:
        """Add a rooted subgraph transactionally."""
        args: tuple = (subgraph, subgraph_root, tuple(cross_edges))
        if preserve_oids:
            args += (True,)
        return self._call("add_subgraph", args)

    def delete_subgraph(self, subgraph_root: int) -> UpdateStats:
        """Delete the subtree rooted at *subgraph_root* transactionally."""
        return self._call("delete_subgraph", (subgraph_root,))

    def set_value(self, dnode: int, value: object) -> UpdateStats:
        """Change a dnode's value transactionally."""
        return self._call("set_value", (dnode, value))

    def reconstruct(self) -> UpdateStats:
        """Merge a 1-index back to its minimum transactionally."""
        return self._call("reconstruct", ())

    def apply_batch(self, operations: Sequence[tuple[str, tuple]]) -> UpdateStats:
        """Apply a whole sequence of mutations in **one** transaction.

        *operations* is a list of ``(method, args)`` pairs naming this
        guard's public mutation methods.  The batch is atomic: a failure
        anywhere rolls back every operation already applied, then the
        configured policy takes over exactly as for a single operation —
        ``retry`` re-runs the whole batch, ``degrade`` rebuilds and
        re-applies it (falling back to raw graph mutations plus one final
        rebuild).  Invariant post-checks run once per *batch*, not once
        per operation, which is one of the reasons batching is cheaper
        than an equivalent stream of single-operation transactions.

        Returns the accumulated :class:`UpdateStats` of the batch.  An
        empty batch is a no-op (no transaction is opened).
        """
        ops = [(method, tuple(args)) for method, args in operations]
        if not ops:
            return UpdateStats(trivial=True)

        def apply_fn() -> UpdateStats:
            total = UpdateStats(trivial=True)
            for method, args in ops:
                total.absorb(_stats_of(getattr(self.maintainer, method)(*args)))
            return total

        def raw_fn() -> UpdateStats:
            for method, args in ops:
                self._raw(method, args)
            return UpdateStats()

        return self._execute("batch", apply_fn, raw_fn, num_ops=len(ops))

    def index_size(self) -> int:
        """Current index size (protocol passthrough)."""
        return self.maintainer.index_size()

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

    def _call(self, method: str, args: tuple) -> Any:
        """Run one maintainer method under the configured policy."""
        return self._execute(
            method,
            lambda: getattr(self.maintainer, method)(*args),
            lambda: self._raw(method, args),
        )

    def _raw(self, method: str, args: tuple) -> Any:
        """One operation's index-free graph effect, shaped like the maintainer's return.

        The ``degrade`` policy's last resort: apply the bare graph change
        journal-free, then rebuild the index — this cannot fail on
        account of index state, so the guard always makes progress.
        """
        payload = OPERATIONS[method].raw(self.graph, *args)
        return UpdateStats() if payload is None else (payload, UpdateStats())

    def _execute(
        self,
        label: str,
        apply_fn: Callable[[], Any],
        raw_fn: Callable[[], Any],
        num_ops: int = 1,
    ) -> Any:
        """Run *apply_fn* transactionally under the configured policy."""
        obs = current_obs()
        policy = self.config.policy
        attempts = 1 + (self.config.max_retries if policy == "retry" else 0)
        with obs.span("txn", op=label, policy=policy, ops=num_ops):
            last_error: Optional[BaseException] = None
            for attempt in range(attempts):
                try:
                    return self._attempt(apply_fn, obs)
                except RollbackError:
                    raise  # state is lost; no policy can help
                except Exception as exc:  # noqa: BLE001 - policy boundary
                    last_error = exc
                    self._note_failure(exc, obs)
                    if policy == "retry" and attempt < attempts - 1:
                        self.stats.retries += 1
                        obs.add("resilience.retries")
                        continue
                    break
            assert last_error is not None
            if policy == "degrade":
                obs.event(
                    "resilience.degraded",
                    op=label,
                    ops=num_ops,
                    error=f"{type(last_error).__name__}: {last_error}",
                )
                return self._degrade(apply_fn, raw_fn, obs)
            obs.event(
                "resilience.gave_up",
                op=label,
                ops=num_ops,
                policy=policy,
                error=f"{type(last_error).__name__}: {last_error}",
            )
            raise last_error

    def _attempt(self, apply_fn: Callable[[], Any], obs) -> Any:
        """One transactional attempt: mutate, post-check, commit."""
        txn = Transaction(self.graph, self.structure, self.fault_injector, self.touched)
        txn.begin()
        obs.add("resilience.txns")
        try:
            result = apply_fn()
            if self.invariants.due(self.touched):
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
        return result

    def _degrade(
        self, apply_fn: Callable[[], Any], raw_fn: Callable[[], Any], obs
    ) -> Any:
        """Rebuild from the rolled-back graph, then get the update applied.

        First preference: re-apply the operation incrementally on the
        freshly rebuilt index (it may have failed due to state the
        rebuild cleared).  Last resort: apply the raw graph mutation
        journal-free and rebuild once more — this cannot fail on account
        of index state, so the guard always makes progress.
        """
        self.stats.degradations += 1
        obs.add("resilience.degradations")
        if self.touched is not None:
            # rebuild renames every inode: nothing of the previous
            # snapshot is reusable, so force the full-capture fallback
            self.touched.mark_all()
        self.maintainer.rebuild_from_graph()
        try:
            return self._attempt(apply_fn, obs)
        except RollbackError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._note_failure(exc, obs)
            self.stats.raw_fallbacks += 1
            obs.add("resilience.raw_fallbacks")
            result = raw_fn()
            self.maintainer.rebuild_from_graph()
            return result

    def _note_failure(self, exc: BaseException, obs) -> None:
        from repro.exceptions import InjectedFaultError, InvariantViolationError

        if isinstance(exc, InjectedFaultError):
            self.stats.faults += 1
            obs.add("resilience.faults")
        if isinstance(exc, InvariantViolationError):
            self.stats.check_failures += 1
            obs.add("resilience.check_failures")
        self.stats.last_errors.append(f"{type(exc).__name__}: {exc}")
        del self.stats.last_errors[:-8]
